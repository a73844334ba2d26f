"""Core domain types and group-utility accounting."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank.core import (
    SCORE_CELL_LIMIT,
    Catalog,
    GroupUtilityVector,
    InteractionLog,
    RankingSlate,
    ScoreMatrix,
    group_sets,
    group_utility,
)
from fairrank.errors import InvariantViolation, MissingUserGroups, UnknownEntity
from fairrank.ingest import filter_and_split

from conftest import make_catalog, random_instance, score_matrix, slate_of
from reference_ingest import log_of, records_of
from reference_metrics import ids
from reference_trainer import DualState


def utility_evenness_gap(v: GroupUtilityVector) -> float:
    """Spread between the best- and worst-off group; 0 iff perfectly even."""
    vals = v.values.tolist()
    if not vals:
        raise InvariantViolation("utility vector has no groups")
    return max(vals) - min(vals)


class TestCatalog:
    def test_duplicate_users_rejected(self):
        with pytest.raises(InvariantViolation):
            Catalog(users=["u1", "u1"], items=["i1"], groups=["g"], item_groups={"i1": frozenset({"g"})})

    def test_item_without_group_rejected(self):
        with pytest.raises(InvariantViolation):
            Catalog(users=["u1"], items=["i1", "i2"], groups=["g"], item_groups={"i1": frozenset({"g"})})

    def test_undeclared_group_rejected(self):
        with pytest.raises(InvariantViolation):
            Catalog(users=["u1"], items=["i1"], groups=["g"], item_groups={"i1": frozenset({"h"})})

    def test_member_is_read_only_items_by_group_ids(self, tiny_catalog):
        member = tiny_catalog.member
        assert member.dtype == bool
        assert member.shape == (len(tiny_catalog.items), len(tiny_catalog.group_ids))
        with pytest.raises(ValueError):
            member[0, 0] = not member[0, 0]

    def test_member_columns_in_ascending_group_id_when_declared_unsorted(self):
        catalog = Catalog(
            users=["u"],
            items=["i1", "i2", "i3"],
            groups=["gz", "ga", "gm"],
            item_groups={"i1": {"gz"}, "i2": {"ga"}, "i3": {"gm"}},
        )
        assert catalog.groups == ["gz", "ga", "gm"]
        assert catalog.group_ids == ["ga", "gm", "gz"]
        assert catalog.member.tolist() == [[False, False, True], [True, False, False], [False, True, False]]

    def test_multi_group_items_set_several_columns(self, rng):
        for _ in range(20):
            catalog, _ = random_instance(rng, 2, int(rng.integers(2, 12)), int(rng.integers(1, 5)), tie_heavy=True)
            for i, item in enumerate(catalog.items):
                columns = np.flatnonzero(catalog.member[i])
                assert {catalog.group_ids[j] for j in columns} == catalog.item_groups[item]
        catalog = make_catalog({"i1": {"g1", "g3"}, "i2": {"g2"}, "i3": {"g1", "g2", "g3"}}, users=["u"])
        assert catalog.member.sum(axis=1).tolist() == [2, 1, 3]

    def test_position_maps_follow_declared_order(self):
        catalog = Catalog(users=["u2", "u1"], items=["ib", "ia"], groups=["g"], item_groups={"ia": {"g"}, "ib": {"g"}})
        assert catalog.user_pos == {"u2": 0, "u1": 1}
        assert catalog.item_pos == {"ib": 0, "ia": 1}
        assert catalog.member.tolist() == [[True], [True]]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"users": ["u", "u"]}, "duplicate identifiers in catalog users"),
            ({"items": ["i1", "i1"]}, "duplicate identifiers in catalog items"),
            ({"groups": []}, "catalog declares no groups"),
            ({"items": ["i1", "i2"]}, "items without group membership: ['i2']"),
            ({"item_groups": {"i1": {"g"}, "i9": {"g"}}}, "item_groups references undeclared items: ['i9']"),
            ({"item_groups": {"i1": set()}}, "item 'i1' belongs to no group"),
            ({"item_groups": {"i1": {"g", "h"}}}, "item 'i1' references undeclared groups ['h']"),
            ({"user_groups": {"u": "g", "u9": "g", "u8": "g"}}, "user_groups references undeclared user 'u9'"),
        ],
    )
    def test_validation_messages(self, kwargs, message):
        fields = {"users": ["u"], "items": ["i1"], "groups": ["g"], "item_groups": {"i1": {"g"}}, **kwargs}
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            Catalog(**fields)

    def test_user_groups_are_not_item_groups(self):
        catalog = Catalog(["u1", "u2"], ["i1"], ["g"], {"i1": {"g"}}, user_groups={"u1": "female", "u2": "g"})
        assert (catalog.groups, catalog.group_ids, catalog.member.shape) == (["g"], ["g"], (1, 1))


class TestRankingSlate:
    def test_duplicate_item_rejected(self):
        with pytest.raises(InvariantViolation):
            slate_of(2, {"u1": ["i1", "i1"]})

    def test_overlong_slate_rejected(self):
        with pytest.raises(InvariantViolation):
            slate_of(1, {"u1": ["i1", "i2"]})

    def test_rows_follow_matrix_users_and_are_read_only(self):
        matrix = score_matrix({"u2": {"ia": 0.5, "ib": 0.2}, "u1": {"ib": 0.9}})
        slate = slate_of(3, {"u2": ["ib", "ia"], "u1": ["ib"]}, matrix)
        assert slate.slates.tolist() == [[1, -1, -1], [1, 0, -1]]
        assert ids(slate) == {"u1": ["ib"], "u2": ["ib", "ia"]}
        with pytest.raises(ValueError):
            slate.slates[0, 0] = 0

    @pytest.mark.parametrize(
        "rows, error, match",
        [
            ([[0, -1], [1, 0]], InvariantViolation, "not users x K"),
            ([[0, -1, -1], [1, 1, -1]], InvariantViolation, r"^duplicate item in slate of user 'u2'$"),
            ([[1, -1, -1], [0, -1, -1]], UnknownEntity, r"^no score for \('u1', 'ib'\)$"),
            ([[0, -1, -1], [2, -1, -1]], UnknownEntity, r"^no score for \('u2', 'column 2'\)$"),
            ([[0, -1, -1], [-2, -1, -1]], UnknownEntity, r"^no score for \('u2', 'column -2'\)$"),
        ],
    )
    def test_rejects(self, rows, error, match):
        matrix = score_matrix({"u1": {"ia": 0.5}, "u2": {"ia": 0.1, "ib": 0.2}})
        with pytest.raises(error, match=match):
            RankingSlate(3, np.array(rows), matrix)

    def test_k_must_be_positive(self):
        with pytest.raises(InvariantViolation, match="positive"):
            RankingSlate(0, np.zeros((1, 0), dtype=int), score_matrix({"u": {"i": 1.0}}))


class TestGroupUtility:
    def test_unit_exposure_per_slot(self, tiny_catalog):
        slates = slate_of(2, {"u1": ["i1", "i2"]})
        guv = group_utility(slates, tiny_catalog, axis="item", mode="exposure")
        assert (guv.group_ids, guv.values.tolist()) == (["g1", "g2"], [1.0, 1.0])
        assert guv.values.sum() == 2.0

    def test_empty_slates_all_zero(self, tiny_catalog):
        slates = slate_of(2, {"u1": [], "u2": []})
        guv = group_utility(slates, tiny_catalog)
        assert (guv.group_ids, guv.values.tolist()) == (["g1", "g2"], [0.0, 0.0])

    def test_click_mode_sums_clamped_scores(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g1"}}, users=["u1"])
        scores = score_matrix({"u1": {"i1": 0.8, "i2": 0.3}})
        slates = slate_of(2, {"u1": ["i1", "i2"]}, scores)
        guv = group_utility(slates, catalog, mode="click")
        # Brute-force oracle: sum of clamped scores.
        assert guv.values[0] == pytest.approx(0.8 + 0.3)

    def test_click_mode_clamps_out_of_range(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g1"}}, users=["u1"])
        scores = score_matrix({"u1": {"i1": 1.7, "i2": -0.4}})
        slates = slate_of(2, {"u1": ["i1", "i2"]}, scores)
        guv = group_utility(slates, catalog, mode="click")
        assert guv.values[0] == pytest.approx(1.0)

    def test_multi_group_item_credits_each_group_fully(self, tiny_catalog):
        slates = slate_of(1, {"u1": ["i3"]})
        guv = group_utility(slates, tiny_catalog)
        assert (guv.group_ids, guv.values.tolist()) == (["g1", "g2"], [1.0, 1.0])
        assert guv.values.sum() == 2.0

    def test_user_axis(self, tiny_catalog):
        slates = slate_of(2, {"u1": ["i1", "i2"], "u2": ["i1"]})
        guv = group_utility(slates, tiny_catalog, axis="user")
        assert (guv.group_ids, guv.values.tolist()) == (["g1", "g2"], [2.0, 1.0])

    def test_user_axis_credits_only_the_users_own_group(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g1"}}, users=["u1", "u2", "u3"], user_groups={"u1": "g2", "u2": "g2"})
        scores = score_matrix({u: {"i1": 0.25, "i2": 0.5} for u in catalog.users})
        slates = slate_of(2, {"u1": ["i1", "i2"], "u2": ["i2"], "u3": ["i1"]}, scores)
        guv = group_utility(slates, catalog, axis="user", mode="click")
        assert (guv.group_ids, guv.values.tolist()) == (["g2"], [1.25])

    def test_user_axis_without_user_groups(self):
        catalog = make_catalog({"i1": {"g1"}}, users=["u1"])
        slates = slate_of(1, {"u1": ["i1"]})
        with pytest.raises(MissingUserGroups):
            group_utility(slates, catalog, axis="user")

    def test_unknown_item_raises(self, tiny_catalog):
        slates = slate_of(1, {"u1": ["ghost"]})
        with pytest.raises(UnknownEntity, match=r"^item 'ghost' not in catalog$"):
            group_utility(slates, tiny_catalog)

    def test_additive_over_user_partition(self, rng):
        catalog = make_catalog(
            {f"i{j}": {f"g{j % 3}"} for j in range(12)},
            users=[f"u{i}" for i in range(8)],
        )
        items = sorted(catalog.items)
        slates = {
            u: [items[j] for j in rng.choice(12, size=4, replace=False)] for u in catalog.users
        }
        whole = group_utility(slate_of(4, slates), catalog)
        first = {u: slates[u] for u in catalog.users[:3]}
        second = {u: slates[u] for u in catalog.users[3:]}
        a = group_utility(slate_of(4, first), catalog)
        b = group_utility(slate_of(4, second), catalog)
        assert whole.values == pytest.approx(a.values + b.values)

    def test_exposure_invariant_under_monotone_rescale(self, rng):
        catalog = make_catalog({f"i{j}": {f"g{j % 2}"} for j in range(6)}, users=["u0", "u1"])
        base = {u: {f"i{j}": float(rng.uniform(0.1, 1)) for j in range(6)} for u in catalog.users}
        slates = {u: sorted(base[u], key=base[u].get, reverse=True)[:3] for u in catalog.users}
        guv1 = group_utility(slate_of(3, slates, score_matrix(base)), catalog, mode="exposure")
        rescaled = score_matrix({u: {i: 3.0 * s + 1.0 for i, s in row.items()} for u, row in base.items()})
        guv2 = group_utility(slate_of(3, slates, rescaled), catalog, mode="exposure")
        assert np.array_equal(guv1.values, guv2.values)

    def test_click_bounded_by_exposure(self, rng):
        catalog = make_catalog({f"i{j}": {f"g{j % 2}"} for j in range(6)}, users=["u0", "u1"])
        rows = {u: {f"i{j}": float(rng.uniform(0, 1)) for j in range(6)} for u in catalog.users}
        scores = score_matrix(rows)
        slates = slate_of(3, {u: list(rows[u])[:3] for u in catalog.users}, scores)
        click = group_utility(slates, catalog, mode="click")
        expo = group_utility(slates, catalog, mode="exposure")
        assert (click.values <= expo.values + 1e-12).all()

    def test_exposure_total_counts_memberships(self, tiny_catalog):
        slates = {"u1": ["i1", "i3"], "u2": ["i2", "i3"]}
        guv = group_utility(slate_of(2, slates), tiny_catalog)
        memberships = sum(len(tiny_catalog.item_groups[i]) for u in slates for i in slates[u])
        assert guv.values.sum() == pytest.approx(memberships)


class TestEvennessGap:
    def test_uniform_is_zero(self):
        v = GroupUtilityVector("item", "exposure", ["a", "b", "c"], [2.0, 2.0, 2.0])
        assert utility_evenness_gap(v) == 0.0

    def test_max_minus_min(self):
        v = GroupUtilityVector("item", "exposure", ["a", "b", "c"], [0.0, 1.0, 3.0])
        assert utility_evenness_gap(v) == 3.0

    def test_single_group(self):
        v = GroupUtilityVector("item", "exposure", ["a"], [5.0])
        assert utility_evenness_gap(v) == 0.0


class TestDualState:
    def test_uniform_init_on_simplex(self):
        state = DualState.uniform(3.0, ["a", "b", "c"], step=0.1)
        state.validate()
        assert state.prices == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_zero_budget_forces_zero_prices(self):
        state = DualState.uniform(0.0, ["a", "b"], step=0.1)
        state.validate()
        assert all(p == 0.0 for p in state.prices.values())
        after = state.exp_step({"a": 1.0, "b": -1.0}, ascent=True)
        assert after.prices == state.prices

    def test_exp_step_preserves_simplex(self, rng):
        state = DualState.uniform(2.5, ["a", "b", "c", "d"], step=0.2)
        for _ in range(50):
            grad = {g: float(rng.normal()) for g in state.prices}
            state = state.exp_step(grad, ascent=bool(rng.integers(0, 2)))
            state.validate(tol=1e-9)

    def test_invalid_sum_detected(self):
        state = DualState(budget=1.0, prices={"a": 0.7, "b": 0.7}, step=0.1)
        with pytest.raises(InvariantViolation):
            state.validate()


class TestInteractionLog:
    def test_label_range_enforced(self):
        with pytest.raises(InvariantViolation, match=re.escape("label 7.0 outside [0, 5]")):
            InteractionLog(["u"], ["i"], [0, 0], [0, 0], [1.0, 7.0], [0, 1])

    @pytest.mark.parametrize("label", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_labels_outside_the_range_or_not_finite_rejected(self, label):
        with pytest.raises(InvariantViolation, match=re.escape(f"label {label} outside [0, 5]")):
            InteractionLog(["u"], ["i"], [0, 0], [0, 0], [1.0, label], [0, 1])

    def test_chronological_view_sorted_stably(self):
        log = log_of([("u1", "i1", 1.0, 30), ("u1", "i2", 1.0, 10), ("u1", "i3", 1.0, 10)])
        dataset = filter_and_split(log, min_interactions=1, ratios=(0.6, 0.2, 0.2))
        chron = records_of(dataset.train) + records_of(dataset.valid) + records_of(dataset.test)
        assert [r.item for r in chron] == ["i2", "i3", "i1"]
        assert [r.timestamp for r in chron] == sorted(r.timestamp for r in chron)

    @pytest.mark.parametrize(
        "tables, columns",
        [
            ((["u", "u"], ["i"]), ([0], [0], [1.0], [0])),
            ((["u"], ["i"]), ([1], [0], [1.0], [0])),
            ((["u"], ["i"]), ([0], [-1], [1.0], [0])),
            ((["u"], ["i"]), ([0, 0], [0], [1.0], [0])),
        ],
        ids=["duplicate-id", "user-past-table", "negative-item", "short-column"],
    )
    def test_malformed_columns_rejected(self, tables, columns):
        with pytest.raises(InvariantViolation):
            InteractionLog(*tables, *columns)

    def test_columns_are_read_only(self):
        log = log_of([("u1", "i1", 1.0, 3)])
        for column in (log.user, log.item, log.label, log.timestamp, log.relevant):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_onto_names_the_first_unknown_row(self, tiny_catalog):
        log = log_of([("u1", "i1", 1.0, 1), ("u1", "ghost", 1.0, 2), ("nobody", "i2", 1.0, 3)])
        with pytest.raises(UnknownEntity, match="^item 'ghost' not in catalog$"):
            log.onto(tiny_catalog)
        moved = log.take([0, 2, 0]).take([0, 2]).onto(make_catalog({"i1": {"g1"}}, users=["u0", "u1"]))
        assert (moved.user_ids, moved.item_ids) == (["u0", "u1"], ["i1"])
        assert (moved.user.tolist(), moved.item.tolist()) == ([1, 1], [0, 0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=12),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_evenness_gap_scales_linearly(values, c):
    groups = {f"g{i}": v for i, v in enumerate(values)}
    v1 = GroupUtilityVector("item", "exposure", list(groups), list(groups.values()))
    v2 = GroupUtilityVector("item", "exposure", list(groups), [c * x for x in groups.values()])
    assert utility_evenness_gap(v2) == pytest.approx(c * utility_evenness_gap(v1), rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 60), n_cols=st.integers(1, 12))
def test_group_sets_match_np_unique(seed, n_rows, n_cols):
    """One lexsort gives ``np.unique(axis=0, return_inverse=True)``'s sets and inverse, duplicate rows included."""
    rng = np.random.default_rng(seed)
    distinct = rng.random((int(rng.integers(1, n_rows + 1)), n_cols)) < rng.uniform(0.1, 0.9)
    member = distinct[rng.integers(0, len(distinct), n_rows)]  # rows drawn with repeats
    sets, set_of = group_sets(member)
    expected_sets, expected_of = np.unique(member, axis=0, return_inverse=True)
    assert sets.dtype == bool and np.array_equal(sets, expected_sets)
    assert set_of.tolist() == expected_of.ravel().tolist()


@pytest.mark.parametrize(
    "member",
    [[[True]], [[False], [True], [False]], [[True, False, True]], [[True, True], [True, True]]],
    ids=["one-cell", "one-column", "one-row", "all-duplicates"],
)
def test_group_sets_of_edge_shapes(member):
    member = np.array(member)
    sets, set_of = group_sets(member)
    expected_sets, expected_of = np.unique(member, axis=0, return_inverse=True)
    assert np.array_equal(sets, expected_sets) and set_of.tolist() == expected_of.ravel().tolist()


class TestScoreMatrix:
    def test_tables_sorted_empty_rows_kept_unscored_items_dropped(self):
        S = np.array([[0.5, np.nan, 0.2], [0.0, 9.0, 0.0]])
        valid = np.array([[True, False, True], [False, False, False]])
        matrix = ScoreMatrix(["u2", "u1"], ["ib", "iz", "ia"], S, valid)
        assert matrix.user_ids == ["u1", "u2"] and matrix.item_ids == ["ia", "ib"]
        assert matrix.user_pos == {"u1": 0, "u2": 1} and matrix.item_pos == {"ia": 0, "ib": 1}
        assert matrix.n_valid.tolist() == [0, 2]
        assert np.isneginf(matrix.S[0]).all()
        assert matrix.row("u1") == {} and matrix.row("u2") == {"ia": 0.2, "ib": 0.5}
        assert matrix.S[1, [1, 0]].tolist() == [0.5, 0.2]
        assert matrix.order[1].tolist() == [1, 0]

    @pytest.mark.parametrize(
        "users, items, S, semantics, match",
        [
            (["u"], ["i", "j"], [[0.5, np.inf]], "raw", r"non-finite score for \('u', 'j'\)"),
            (["u"], ["i"], [[1.5]], "probability", "outside"),
            (["u", "u"], ["i"], [[0.5], [0.5]], "raw", "duplicate"),
            (["u"], ["i", "i"], [[0.5, 0.5]], "raw", "duplicate"),
            (["u"], ["i"], [[0.5, 0.5]], "raw", "shape"),
            (["u"], ["i"], [[0.5]], "logit", "semantics"),
        ],
    )
    def test_rejects(self, users, items, S, semantics, match):
        with pytest.raises(InvariantViolation, match=match):
            ScoreMatrix(users, items, np.array(S), semantics=semantics)

    def test_more_cells_than_the_limit_refused_before_allocating(self):
        users, items = [f"u{u}" for u in range(1 << 16)], [f"i{i}" for i in range(1 << 15)]
        S = np.broadcast_to(np.float64(0.5), (len(users), len(items)))  # 2**31 cells, zero strides: no memory
        assert S.size == 2 * SCORE_CELL_LIMIT
        tracemalloc.start()
        try:
            with pytest.raises(InvariantViolation, match=rf"^score array of {S.size} cells, more than the limit of "
                                                         rf"{SCORE_CELL_LIMIT}$"):
                ScoreMatrix(users, items, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24

    def test_unscored_entry_unknown(self):
        matrix = score_matrix({"u1": {"i1": 0.5}, "u2": {"i2": 0.5}})
        with pytest.raises(UnknownEntity, match=r"^no score for \('u1', 'i2'\)$"):
            slate_of(2, {"u1": ["i1", "i2"]}, matrix)
        with pytest.raises(UnknownEntity):
            matrix.row("u9")
