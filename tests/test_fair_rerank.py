"""Fairness re-rankers: reductions, guarantees, and oracle equivalence."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fairrank.core import Catalog, ScoreMatrix, group_utility
from fairrank.errors import EmptyCandidates, InvariantViolation
from fairrank.fair_rerank import (
    RerankContext,
    cpfair,
    fairrec,
    min_regularizer,
    pmmf,
    proportional_shares,
    topk,
    welf,
)

from conftest import full_coverage_instance, make_catalog, random_instance, score_matrix
from reference_metrics import IdSlates, ids
from reference_rerank import welf_objective

_TINY = 1e-12


def ctx_for(catalog, matrix, k, **kwargs):
    return RerankContext(scores=matrix, catalog=catalog, k=k, **kwargs)


class TestContext:
    def test_bad_target_shares(self, tiny_catalog):
        matrix = score_matrix({"u1": {"i1": 1.0}, "u2": {"i1": 0.5}})
        with pytest.raises(InvariantViolation):
            RerankContext(matrix, tiny_catalog, k=1, target_shares=[0.9, 0.9])

    def test_proportional_shares(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g1"}, "i3": {"g1"}, "i4": {"g2"}}, users=["u"])
        shares = proportional_shares(catalog)
        assert shares.tolist() == [0.75, 0.25]
        matrix = score_matrix({"u": {"i1": 0.4, "i2": 0.3, "i3": 0.2, "i4": 0.1}})
        # Accepted as a valid beta by the context.
        RerankContext(matrix, catalog, k=2, target_shares=shares)

    def test_bad_arrival_order(self, tiny_catalog):
        matrix = score_matrix({"u1": {"i1": 1.0}, "u2": {"i1": 0.5}})
        with pytest.raises(InvariantViolation):
            RerankContext(matrix, tiny_catalog, k=1, arrival_order=["u1"])

    def test_empty_candidates(self, tiny_catalog):
        matrix = score_matrix({"u1": {"i1": 1.0}, "u2": {}})
        with pytest.raises(EmptyCandidates):
            topk(ctx_for(tiny_catalog, matrix, k=1))

    def test_empty_candidates_raise_at_construction(self, tiny_catalog):
        matrix = score_matrix({"u1": {"i1": 1.0}, "u2": {}})
        with pytest.raises(EmptyCandidates, match=r"^users without candidates: \['u2'\]$"):
            RerankContext(matrix, tiny_catalog, k=1)

    def test_member_rows_follow_score_matrix_items(self):
        catalog = make_catalog({"i1": {"g2"}, "i2": {"g1"}, "i3": {"g1", "g2"}, "i4": {"g3"}}, users=["u"])
        matrix = score_matrix({"u": {"i4": 0.1, "i2": 0.3}})
        ctx = ctx_for(catalog, matrix, k=1, target_shares=[0.5, 0.25, 0.25])
        assert ctx.groups == ["g1", "g2", "g3"]
        assert matrix.item_ids == ["i2", "i4"]
        assert ctx.member.tolist() == [[True, False, False], [False, False, True]]
        assert ctx.member_f.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        assert ctx.beta.tolist() == [0.5, 0.25, 0.25]

    def test_proportional_shares_follow_group_ids_when_declared_unsorted(self):
        item_groups = {"i1": {"gz"}, "i2": {"ga", "gz"}, "i3": {"gz"}}
        catalog = Catalog(users=["u"], items=["i1", "i2", "i3"], groups=["gz", "ga"], item_groups=item_groups)
        shares = proportional_shares(catalog)
        assert catalog.group_ids == ["ga", "gz"]
        assert shares.dtype == float and shares.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize(
        "shares",
        [[0.5, 0.5, 0.0], [[0.5, 0.5]], [1.5, -0.5], [float("nan")] * 2],
        ids=["long", "2-d", "negative", "nan"],
    )
    def test_target_shares_are_one_non_negative_share_per_group(self, tiny_catalog, shares):
        matrix = score_matrix({"u1": {"i1": 1.0}, "u2": {"i1": 0.5}})
        with pytest.raises(InvariantViolation, match="target"):
            RerankContext(matrix, tiny_catalog, k=1, target_shares=shares)

    def test_beta_is_a_read_only_copy(self, tiny_catalog):
        shares = np.array([0.25, 0.75])
        matrix = score_matrix({"u1": {"i1": 1.0}, "u2": {"i1": 0.5}})
        ctx = RerankContext(matrix, tiny_catalog, k=1, target_shares=shares)
        shares[0] = 0.5
        assert ctx.beta.tolist() == [0.25, 0.75] and not ctx.beta.flags.writeable
        assert RerankContext(ctx.scores, tiny_catalog, k=1).beta.tolist() == [0.5, 0.5]


class TestTopk:
    def test_takes_best(self):
        catalog = make_catalog({"i1": {"g"}, "i2": {"g"}}, users=["u"])
        matrix = score_matrix({"u": {"i1": 0.9, "i2": 0.1}})
        slates = topk(ctx_for(catalog, matrix, k=1))
        assert ids(slates) == {"u": ["i1"]}

    def test_tie_broken_by_item_id(self):
        catalog = make_catalog({"ia": {"g"}, "ib": {"g"}, "ic": {"g"}}, users=["u"])
        matrix = score_matrix({"u": {"ib": 0.5, "ia": 0.5, "ic": 0.5}})
        slates = topk(ctx_for(catalog, matrix, k=2))
        assert ids(slates) == {"u": ["ia", "ib"]}

    def test_matches_full_sort_oracle(self, rng):
        items = {f"i{j:03d}": {"g"} for j in range(500)}
        catalog = make_catalog(items, users=["u"])
        row = {item: float(s) for item, s in zip(sorted(items), rng.uniform(0, 1, 500))}
        matrix = score_matrix({"u": row})
        slates = topk(ctx_for(catalog, matrix, k=10))
        oracle = [it for it, _ in sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))][:10]
        assert ids(slates)["u"] == oracle

    def test_short_row_keeps_all(self):
        catalog = make_catalog({"i1": {"g"}, "i2": {"g"}}, users=["u"])
        matrix = score_matrix({"u": {"i1": 0.2, "i2": 0.4}})
        slates = topk(ctx_for(catalog, matrix, k=5))
        assert ids(slates) == {"u": ["i2", "i1"]}


class TestMinRegularizer:
    def test_lambda_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 12, 30, 4)
        assert ids(min_regularizer(ctx_for(catalog, matrix, 5), lam=0.0)) == ids(topk(ctx_for(catalog, matrix, 5)))

    def test_large_lambda_serves_starved_group(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g2"}}, users=["u1", "u2"])
        matrix = score_matrix({u: {"i1": 0.9, "i2": 0.1} for u in ["u1", "u2"]})
        slates = min_regularizer(ctx_for(catalog, matrix, 1), lam=10.0)
        guv = group_utility(slates, catalog)
        # Exhaustive oracle: over all 4 slate pairs the best achievable
        # minimum group exposure is 1 (one user per group).
        best_min = max(
            min(
                sum(1 for pick in picks if pick == "i1"),
                sum(1 for pick in picks if pick == "i2"),
            )
            for picks in itertools.product(["i1", "i2"], repeat=2)
        )
        assert min(guv.values) == best_min == 1.0

    def test_single_group_any_lambda_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 8, 20, 1)
        base = ids(topk(ctx_for(catalog, matrix, 4)))
        for lam in (0.5, 3.0, 100.0):
            assert ids(min_regularizer(ctx_for(catalog, matrix, 4), lam=lam)) == base


def enumerate_best_swap(catalog, matrix, k, lam, beta=None):
    """Independent single-swap oracle over all (user, out, in) triples.

    Comparator: max ratio, then min loss, then smallest (user, out, in).
    Returns (user, out, in, new_min_dev) or None.
    """
    users = sorted(matrix.users())
    groups = sorted(catalog.groups)
    if beta is None:
        beta = {g: 1.0 / len(groups) for g in groups}
    beta_arr = np.array([beta[g] for g in groups])
    gpos = {g: i for i, g in enumerate(groups)}

    slates = {}
    e = np.zeros(len(groups))
    for u in users:
        row = matrix.row(u)
        slate = [it for it, _ in sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]
        slates[u] = slate
        for it in slate:
            for g in catalog.item_groups[it]:
                e[gpos[g]] += 1.0
    dev = float(np.abs(e - beta_arr * e.sum()).sum())

    best = None
    best_key = None
    for uidx, u in enumerate(users):
        row = matrix.row(u)
        slate = set(slates[u])
        outs = sorted(slate)
        ins = sorted(set(row) - slate)
        for out in outs:
            for in_ in ins:
                loss = row[out] - row[in_]
                if loss > lam + _TINY:
                    continue
                e2 = e.copy()
                for g in catalog.item_groups[out]:
                    e2[gpos[g]] -= 1.0
                for g in catalog.item_groups[in_]:
                    e2[gpos[g]] += 1.0
                new_dev = float(np.abs(e2 - beta_arr * e2.sum()).sum())
                gain = dev - new_dev
                if gain <= _TINY:
                    continue
                ratio = gain / max(loss, _TINY)
                # Ties beyond (ratio, loss) are resolved by enumeration order
                # (user asc, out id asc, in id asc): strict > keeps the earlier one.
                key = (ratio, -loss)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (u, out, in_, new_dev)
    return best


class TestCpfair:
    def test_lambda_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 10, 25, 3)
        base = ids(topk(ctx_for(catalog, matrix, 4)))
        assert ids(cpfair(ctx_for(catalog, matrix, 4), lam=0.0, swap_budget=10)) == base

    def test_budget_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 10, 25, 3)
        base = ids(topk(ctx_for(catalog, matrix, 4)))
        assert ids(cpfair(ctx_for(catalog, matrix, 4), lam=5.0, swap_budget=0)) == base

    def test_single_swap_reduces_deviation(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g2"}}, users=["u1", "u2"])
        matrix = score_matrix({u: {"i1": 0.9, "i2": 0.1} for u in ["u1", "u2"]})
        before = group_utility(topk(ctx_for(catalog, matrix, 1)), catalog)
        slates = cpfair(ctx_for(catalog, matrix, 1), lam=1e9, swap_budget=1)
        after = group_utility(slates, catalog)

        def deviation(guv):
            total = guv.values.sum()
            return sum(abs(v - total / 2) for v in guv.values)

        assert deviation(after) < deviation(before)
        oracle = enumerate_best_swap(catalog, matrix, 1, lam=1e9)
        assert oracle is not None
        user, out, in_, new_dev = oracle
        assert slates.meta["deviation"] == pytest.approx(new_dev)
        assert in_ in ids(slates)[user]
        assert out not in ids(slates)[user]

    def test_first_swap_matches_enumeration_oracle(self, rng):
        for trial in range(20):
            local = np.random.default_rng(1000 + trial)
            catalog, matrix = random_instance(local, int(local.integers(2, 8)), int(local.integers(6, 20)), int(local.integers(2, 5)))
            k = int(local.integers(1, 4))
            lam = float(local.uniform(0.05, 1.0))
            result = cpfair(ctx_for(catalog, matrix, k), lam=lam, swap_budget=1)
            oracle = enumerate_best_swap(catalog, matrix, k, lam=lam)
            base = ids(topk(ctx_for(catalog, matrix, k)))
            if oracle is None:
                assert ids(result) == base
                continue
            user, out, in_, new_dev = oracle
            assert result.meta["swaps"] == 1
            assert result.meta["deviation"] == pytest.approx(new_dev, abs=1e-9)
            assert set(ids(result)[user]) == (set(base[user]) - {out}) | {in_}

    def test_swaps_bounded_by_budget(self, rng):
        catalog, matrix = random_instance(rng, 12, 30, 4)
        result = cpfair(ctx_for(catalog, matrix, 5), lam=1.0, swap_budget=3)
        assert result.meta["swaps"] <= 3

    def test_infinite_loss_cap_is_no_cap(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g2"}}, users=["u1", "u2"])
        matrix = score_matrix({u: {"i1": 0.9, "i2": 0.1} for u in ["u1", "u2"]})
        slates = cpfair(ctx_for(catalog, matrix, 1), lam=math.inf)
        assert slates.meta["swaps"] == 1
        assert ids(slates) == ids(cpfair(ctx_for(catalog, matrix, 1), lam=1e9))

    @pytest.mark.parametrize("tie_heavy", [True, False], ids=["tie-heavy", "distinct"])
    def test_working_set_holds_no_users_by_group_set_pairs_table(self, tie_heavy):
        catalog, matrix = random_instance(np.random.default_rng(0), 300, 400, 6, tie_heavy=tie_heavy)
        ctx = ctx_for(catalog, matrix, 10)
        sets = len(np.unique(catalog.member, axis=0))
        assert sets > 30 if tie_heavy else sets == 6
        tracemalloc.start()
        try:
            cpfair(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The ranking order (S's size) and its sort key, plus users x sets tables and an eighth
        # of S for the slate mask.  A users x sets^2 float table alone is 4.2 S on the tie-heavy
        # instance.
        assert peak <= 3 * matrix.S.nbytes


class TestFairrec:
    def test_single_group_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 6, 15, 1)
        base = ids(topk(ctx_for(catalog, matrix, 3)))
        assert ids(fairrec(ctx_for(catalog, matrix, 3), phi=1.0)) == base

    def test_guarantee_met_with_full_coverage(self, rng):
        catalog, matrix = full_coverage_instance(rng, 4, 20, 2)
        slates = fairrec(ctx_for(catalog, matrix, 5), phi=1.0)
        guv = group_utility(slates, catalog)
        floor = math.floor(5 * 4 / 2)
        assert slates.meta["mms_floor"] == floor
        assert all(v >= floor for v in guv.values)

    def test_phi_to_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 8, 24, 4)
        base = ids(topk(ctx_for(catalog, matrix, 3)))
        assert ids(fairrec(ctx_for(catalog, matrix, 3), phi=1e-9)) == base

    def test_max_min_share_acceptance_shape(self):
        # 20 users x 50 items, 5 groups, K=5, phi=1 -> floor = 20.
        local = np.random.default_rng(7)
        catalog, matrix = full_coverage_instance(local, 20, 50, 5)
        slates = fairrec(ctx_for(catalog, matrix, 5), phi=1.0)
        guv = group_utility(slates, catalog)
        assert all(v >= 20 for v in guv.values)


def _dp_best_min_exposure(n_users: int, k: int, n_groups: int, cap: int) -> int:
    """Exhaustive optimum of min-group exposure when every composition is feasible.

    States are canonical (sorted) exposure vectors, coordinates capped.
    """
    comps = [c for c in itertools.product(range(k + 1), repeat=n_groups) if sum(c) == k]
    states = {(0,) * n_groups}
    for _ in range(n_users):
        nxt = set()
        for s in states:
            for c in comps:
                nxt.add(tuple(sorted(min(cap, a + b) for a, b in zip(s, c))))
        states = nxt
    return max(min(s) for s in states)


class TestPmmf:
    def test_lambda_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 10, 30, 3)
        assert ids(pmmf(ctx_for(catalog, matrix, 4), lam=0.0)) == ids(topk(ctx_for(catalog, matrix, 4)))

    def test_simplex_invariant_after_every_user(self, rng):
        catalog, matrix = random_instance(rng, 25, 40, 5)
        traces = []
        pmmf(ctx_for(catalog, matrix, 3), lam=4.0, eta=0.2, on_update=traces.append)
        assert len(traces) == 25
        for prices in traces:
            assert abs(sum(prices.tolist()) - 4.0) <= 1e-6
            assert (prices >= 0).all() and not prices.flags.writeable

    def test_fairness_budget_improves_min_exposure(self):
        local = np.random.default_rng(20240311)
        catalog, matrix = full_coverage_instance(local, 20, 30, 3)
        base = group_utility(pmmf(ctx_for(catalog, matrix, 3), lam=0.0), catalog)
        fair = group_utility(pmmf(ctx_for(catalog, matrix, 3), lam=10.0), catalog)
        optimum = _dp_best_min_exposure(20, 3, 3, cap=21)
        assert optimum == 20  # integer split of 60 slots over 3 groups
        assert min(fair.values) >= min(base.values)
        assert min(fair.values) <= optimum


    def test_overflowing_step_raises_instead_of_emptying_slates(self):
        # eta=1000 overflows np.exp and turns the prices NaN, which passed the
        # simplex check and left 18 of these 20 users with an empty slate.
        catalog, matrix = random_instance(np.random.default_rng(0), 20, 30, 3)
        matrix = ScoreMatrix(matrix.user_ids, matrix.item_ids, matrix.S, semantics="probability")
        message = r"^group prices \[.*nan.*\] left the simplex of budget 1\.0 at step size eta=1000\.0$"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvariantViolation, match=message):
            pmmf(ctx_for(catalog, matrix, 5), lam=1.0, eta=1000.0)


@pytest.mark.parametrize(
    "rerank, params, message",
    [
        (welf, {"lam": math.nan}, "lam must be non-negative"),
        (cpfair, {"lam": math.nan}, "lam must be non-negative"),
        (min_regularizer, {"lam": math.nan}, "lam must be non-negative"),
        (pmmf, {"lam": math.nan}, "lam must be non-negative"),
        (pmmf, {"eta": math.nan}, "eta must be positive"),
    ],
    ids=["welf-lam", "cpfair-lam", "min_regularizer-lam", "pmmf-lam", "pmmf-eta"],
)
def test_nan_param_fails_the_guard(tiny_catalog, rerank, params, message):
    matrix = score_matrix({"u1": {"i1": 1.0, "i2": 0.5}, "u2": {"i1": 0.5, "i3": 0.2}})
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        rerank(ctx_for(tiny_catalog, matrix, k=1), **params)


@pytest.mark.parametrize(
    "rerank, params, message",
    [
        (welf, {"lam": math.inf}, "lam must be finite"),
        (min_regularizer, {"lam": math.inf}, "lam must be finite"),
        (pmmf, {"lam": math.inf}, "lam must be finite"),
        (pmmf, {"eta": math.inf}, "eta must be finite"),
    ],
    ids=["welf-lam", "min_regularizer-lam", "pmmf-lam", "pmmf-eta"],
)
def test_infinite_param_fails_the_guard(tiny_catalog, rerank, params, message):
    # Each of these ranked on NaN scores (inf * 0.0), with a RuntimeWarning as the only sign.
    matrix = score_matrix({"u1": {"i1": 1.0, "i2": 0.5}, "u2": {"i1": 0.5, "i3": 0.2}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            rerank(ctx_for(tiny_catalog, matrix, k=1), **params)


class TestWelf:
    def test_lambda_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 10, 24, 3)
        assert ids(welf(ctx_for(catalog, matrix, 4), lam=0.0)) == ids(topk(ctx_for(catalog, matrix, 4)))

    def test_duality_gaps_nonnegative(self, rng):
        catalog, matrix = random_instance(rng, 15, 30, 4)
        slates = welf(ctx_for(catalog, matrix, 3), lam=2.0, alpha=0.5, iters=40)
        assert all(g >= -1e-9 for g in slates.meta["duality_gaps"])

    def test_iterate_stays_in_polytope(self, rng):
        catalog, matrix = random_instance(rng, 12, 30, 3)
        slates = welf(ctx_for(catalog, matrix, 5), lam=1.0, iters=30)
        assert slates.meta["polytope_max_row_dev"] <= 1e-9
        assert slates.meta["polytope_entry_min"] >= -1e-9
        assert slates.meta["polytope_entry_max"] <= 1.0 + 1e-9

    def test_near_optimal_on_enumerable_instance(self):
        catalog = make_catalog(
            {"i1": {"g1"}, "i2": {"g1"}, "i3": {"g2"}, "i4": {"g2"}},
            users=["u1", "u2"],
        )
        matrix = score_matrix(
            {
                "u1": {"i1": 0.9, "i2": 0.8, "i3": 0.2, "i4": 0.1},
                "u2": {"i1": 0.85, "i2": 0.75, "i3": 0.3, "i4": 0.05},
            }
        )
        lam, alpha = 1.0, 0.5
        ctx = ctx_for(catalog, matrix, 1)
        result = welf(ctx, lam=lam, alpha=alpha, iters=200)
        best = max(
            welf_objective(
                ctx,
                IdSlates(k=1, slates={"u1": [a], "u2": [b]}),
                lam=lam,
                alpha=alpha,
            )
            for a in catalog.items
            for b in catalog.items
        )
        assert result.meta["objective"] >= 0.95 * best

    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_working_set_is_three_users_by_items_buffers(self, lam):
        catalog, matrix = random_instance(np.random.default_rng(0), 300, 400, 6, tie_heavy=True)
        assert 0.4 < 1 - matrix.valid.mean() < 0.6
        ctx = ctx_for(catalog, matrix, 10)
        tracemalloc.start()
        try:
            welf(ctx, lam=lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # pi, the gradient and one scratch array of S's size, plus bool masks of an eighth of it.
        assert peak <= 4 * matrix.S.nbytes


class TestCrossCuttingInvariants:
    def test_lambda_zero_reductions_on_seeded_instances(self):
        for trial in range(10):
            local = np.random.default_rng(5000 + trial)
            catalog, matrix = random_instance(
                local, int(local.integers(3, 20)), int(local.integers(8, 40)), int(local.integers(2, 6))
            )
            k = int(local.integers(1, 6))
            base = ids(topk(ctx_for(catalog, matrix, k)))
            assert ids(min_regularizer(ctx_for(catalog, matrix, k), lam=0.0)) == base
            assert ids(pmmf(ctx_for(catalog, matrix, k), lam=0.0)) == base
            assert ids(welf(ctx_for(catalog, matrix, k), lam=0.0, iters=10)) == base
            assert ids(cpfair(ctx_for(catalog, matrix, k), lam=1.0, swap_budget=0)) == base
            assert ids(fairrec(ctx_for(catalog, matrix, k), phi=1e-12)) == base

    def test_slate_invariants_and_exposure_conservation(self, rng):
        catalog, matrix = full_coverage_instance(rng, 10, 40, 4)
        k = 5
        outputs = {
            "topk": topk(ctx_for(catalog, matrix, k)),
            "minreg": min_regularizer(ctx_for(catalog, matrix, k), lam=2.0),
            "cpfair": cpfair(ctx_for(catalog, matrix, k), lam=0.5, swap_budget=5),
            "fairrec": fairrec(ctx_for(catalog, matrix, k), phi=1.0),
            "pmmf": pmmf(ctx_for(catalog, matrix, k), lam=3.0),
            "welf": welf(ctx_for(catalog, matrix, k), lam=2.0, iters=25),
        }
        for name, slates in outputs.items():
            for user, items in ids(slates).items():
                assert len(items) == k, name
                assert len(set(items)) == k, name
            guv = group_utility(slates, catalog)
            # Single-membership items: total exposure is conserved at K * |U|.
            assert guv.values.sum() == pytest.approx(k * 10), name
