"""Fairness re-rankers: reductions, guarantees, and oracle equivalence."""

import itertools
import math

import numpy as np
import pytest

from fairrank.core import RankingSlate, ScoreMatrix, group_utility
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

from conftest import full_coverage_instance, make_catalog, random_instance
from reference_rerank import welf_objective

_TINY = 1e-12


def ctx_for(catalog, matrix, k, **kwargs):
    return RerankContext(scores=matrix, catalog=catalog, k=k, **kwargs)


class TestContext:
    def test_bad_target_shares(self, tiny_catalog):
        matrix = ScoreMatrix({"u1": {"i1": 1.0}, "u2": {"i1": 0.5}})
        with pytest.raises(InvariantViolation):
            RerankContext(matrix, tiny_catalog, k=1, target_shares={"g1": 0.9, "g2": 0.9})

    def test_proportional_shares(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g1"}, "i3": {"g1"}, "i4": {"g2"}}, users=["u"])
        shares = proportional_shares(catalog)
        assert shares == {"g1": 0.75, "g2": 0.25}
        matrix = ScoreMatrix({"u": {"i1": 0.4, "i2": 0.3, "i3": 0.2, "i4": 0.1}})
        # Accepted as a valid beta by the context.
        RerankContext(matrix, catalog, k=2, target_shares=shares)

    def test_bad_arrival_order(self, tiny_catalog):
        matrix = ScoreMatrix({"u1": {"i1": 1.0}, "u2": {"i1": 0.5}})
        with pytest.raises(InvariantViolation):
            RerankContext(matrix, tiny_catalog, k=1, arrival_order=["u1"])

    def test_empty_candidates(self, tiny_catalog):
        matrix = ScoreMatrix({"u1": {"i1": 1.0}, "u2": {}})
        with pytest.raises(EmptyCandidates):
            topk(ctx_for(tiny_catalog, matrix, k=1))


class TestTopk:
    def test_takes_best(self):
        catalog = make_catalog({"i1": {"g"}, "i2": {"g"}}, users=["u"])
        matrix = ScoreMatrix({"u": {"i1": 0.9, "i2": 0.1}})
        slates = topk(ctx_for(catalog, matrix, k=1))
        assert slates.slates == {"u": ["i1"]}

    def test_tie_broken_by_item_id(self):
        catalog = make_catalog({"ia": {"g"}, "ib": {"g"}, "ic": {"g"}}, users=["u"])
        matrix = ScoreMatrix({"u": {"ib": 0.5, "ia": 0.5, "ic": 0.5}})
        slates = topk(ctx_for(catalog, matrix, k=2))
        assert slates.slates == {"u": ["ia", "ib"]}

    def test_matches_full_sort_oracle(self, rng):
        items = {f"i{j:03d}": {"g"} for j in range(500)}
        catalog = make_catalog(items, users=["u"])
        row = {item: float(s) for item, s in zip(sorted(items), rng.uniform(0, 1, 500))}
        matrix = ScoreMatrix({"u": row})
        slates = topk(ctx_for(catalog, matrix, k=10))
        oracle = [it for it, _ in sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))][:10]
        assert slates.slates["u"] == oracle

    def test_short_row_keeps_all(self):
        catalog = make_catalog({"i1": {"g"}, "i2": {"g"}}, users=["u"])
        matrix = ScoreMatrix({"u": {"i1": 0.2, "i2": 0.4}})
        slates = topk(ctx_for(catalog, matrix, k=5))
        assert slates.slates == {"u": ["i2", "i1"]}


class TestMinRegularizer:
    def test_lambda_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 12, 30, 4)
        assert min_regularizer(ctx_for(catalog, matrix, 5), lam=0.0).slates == topk(ctx_for(catalog, matrix, 5)).slates

    def test_large_lambda_serves_starved_group(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g2"}}, users=["u1", "u2"])
        matrix = ScoreMatrix({u: {"i1": 0.9, "i2": 0.1} for u in ["u1", "u2"]})
        slates = min_regularizer(ctx_for(catalog, matrix, 1), lam=10.0)
        guv = group_utility(slates, matrix, catalog)
        # Exhaustive oracle: over all 4 slate pairs the best achievable
        # minimum group exposure is 1 (one user per group).
        best_min = max(
            min(
                sum(1 for pick in picks if pick == "i1"),
                sum(1 for pick in picks if pick == "i2"),
            )
            for picks in itertools.product(["i1", "i2"], repeat=2)
        )
        assert min(guv.values.values()) == best_min == 1.0

    def test_single_group_any_lambda_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 8, 20, 1)
        base = topk(ctx_for(catalog, matrix, 4)).slates
        for lam in (0.5, 3.0, 100.0):
            assert min_regularizer(ctx_for(catalog, matrix, 4), lam=lam).slates == base


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
        base = topk(ctx_for(catalog, matrix, 4)).slates
        assert cpfair(ctx_for(catalog, matrix, 4), lam=0.0, swap_budget=10).slates == base

    def test_budget_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 10, 25, 3)
        base = topk(ctx_for(catalog, matrix, 4)).slates
        assert cpfair(ctx_for(catalog, matrix, 4), lam=5.0, swap_budget=0).slates == base

    def test_single_swap_reduces_deviation(self):
        catalog = make_catalog({"i1": {"g1"}, "i2": {"g2"}}, users=["u1", "u2"])
        matrix = ScoreMatrix({u: {"i1": 0.9, "i2": 0.1} for u in ["u1", "u2"]})
        before = group_utility(topk(ctx_for(catalog, matrix, 1)), matrix, catalog)
        slates = cpfair(ctx_for(catalog, matrix, 1), lam=1e9, swap_budget=1)
        after = group_utility(slates, matrix, catalog)

        def deviation(guv):
            total = guv.total
            return sum(abs(v - total / 2) for v in guv.values.values())

        assert deviation(after) < deviation(before)
        oracle = enumerate_best_swap(catalog, matrix, 1, lam=1e9)
        assert oracle is not None
        user, out, in_, new_dev = oracle
        assert slates.meta["deviation"] == pytest.approx(new_dev)
        assert in_ in slates.slates[user]
        assert out not in slates.slates[user]

    def test_first_swap_matches_enumeration_oracle(self, rng):
        for trial in range(20):
            local = np.random.default_rng(1000 + trial)
            catalog, matrix = random_instance(local, int(local.integers(2, 8)), int(local.integers(6, 20)), int(local.integers(2, 5)))
            k = int(local.integers(1, 4))
            lam = float(local.uniform(0.05, 1.0))
            result = cpfair(ctx_for(catalog, matrix, k), lam=lam, swap_budget=1)
            oracle = enumerate_best_swap(catalog, matrix, k, lam=lam)
            base = topk(ctx_for(catalog, matrix, k)).slates
            if oracle is None:
                assert result.slates == base
                continue
            user, out, in_, new_dev = oracle
            assert result.meta["swaps"] == 1
            assert result.meta["deviation"] == pytest.approx(new_dev, abs=1e-9)
            assert set(result.slates[user]) == (set(base[user]) - {out}) | {in_}

    def test_swaps_bounded_by_budget(self, rng):
        catalog, matrix = random_instance(rng, 12, 30, 4)
        result = cpfair(ctx_for(catalog, matrix, 5), lam=1.0, swap_budget=3)
        assert result.meta["swaps"] <= 3


class TestFairrec:
    def test_single_group_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 6, 15, 1)
        base = topk(ctx_for(catalog, matrix, 3)).slates
        assert fairrec(ctx_for(catalog, matrix, 3), phi=1.0).slates == base

    def test_guarantee_met_with_full_coverage(self, rng):
        catalog, matrix = full_coverage_instance(rng, 4, 20, 2)
        slates = fairrec(ctx_for(catalog, matrix, 5), phi=1.0)
        guv = group_utility(slates, matrix, catalog)
        floor = math.floor(5 * 4 / 2)
        assert slates.meta["mms_floor"] == floor
        assert all(v >= floor for v in guv.values.values())

    def test_phi_to_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 8, 24, 4)
        base = topk(ctx_for(catalog, matrix, 3)).slates
        assert fairrec(ctx_for(catalog, matrix, 3), phi=1e-9).slates == base

    def test_max_min_share_acceptance_shape(self):
        # 20 users x 50 items, 5 groups, K=5, phi=1 -> floor = 20.
        local = np.random.default_rng(7)
        catalog, matrix = full_coverage_instance(local, 20, 50, 5)
        slates = fairrec(ctx_for(catalog, matrix, 5), phi=1.0)
        guv = group_utility(slates, matrix, catalog)
        assert all(v >= 20 for v in guv.values.values())


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
        assert pmmf(ctx_for(catalog, matrix, 4), lam=0.0).slates == topk(ctx_for(catalog, matrix, 4)).slates

    def test_simplex_invariant_after_every_user(self, rng):
        catalog, matrix = random_instance(rng, 25, 40, 5)
        traces = []
        pmmf(ctx_for(catalog, matrix, 3), lam=4.0, eta=0.2, on_update=traces.append)
        assert len(traces) == 25
        for state in traces:
            total = sum(state.prices.values())
            assert abs(total - 4.0) <= 1e-6
            assert all(p >= 0 for p in state.prices.values())

    def test_fairness_budget_improves_min_exposure(self):
        local = np.random.default_rng(20240311)
        catalog, matrix = full_coverage_instance(local, 20, 30, 3)
        base = group_utility(pmmf(ctx_for(catalog, matrix, 3), lam=0.0), matrix, catalog)
        fair = group_utility(pmmf(ctx_for(catalog, matrix, 3), lam=10.0), matrix, catalog)
        optimum = _dp_best_min_exposure(20, 3, 3, cap=21)
        assert optimum == 20  # integer split of 60 slots over 3 groups
        assert min(fair.values.values()) >= min(base.values.values())
        assert min(fair.values.values()) <= optimum


class TestWelf:
    def test_lambda_zero_is_topk(self, rng):
        catalog, matrix = random_instance(rng, 10, 24, 3)
        assert welf(ctx_for(catalog, matrix, 4), lam=0.0).slates == topk(ctx_for(catalog, matrix, 4)).slates

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
        matrix = ScoreMatrix(
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
                RankingSlate(k=1, slates={"u1": [a], "u2": [b]}),
                lam=lam,
                alpha=alpha,
            )
            for a in catalog.items
            for b in catalog.items
        )
        assert result.meta["objective"] >= 0.95 * best


class TestCrossCuttingInvariants:
    def test_lambda_zero_reductions_on_seeded_instances(self):
        for trial in range(10):
            local = np.random.default_rng(5000 + trial)
            catalog, matrix = random_instance(
                local, int(local.integers(3, 20)), int(local.integers(8, 40)), int(local.integers(2, 6))
            )
            k = int(local.integers(1, 6))
            base = topk(ctx_for(catalog, matrix, k)).slates
            assert min_regularizer(ctx_for(catalog, matrix, k), lam=0.0).slates == base
            assert pmmf(ctx_for(catalog, matrix, k), lam=0.0).slates == base
            assert welf(ctx_for(catalog, matrix, k), lam=0.0, iters=10).slates == base
            assert cpfair(ctx_for(catalog, matrix, k), lam=1.0, swap_budget=0).slates == base
            assert fairrec(ctx_for(catalog, matrix, k), phi=1e-12).slates == base

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
            for user, items in slates.slates.items():
                assert len(items) == k, name
                assert len(set(items)) == k, name
            guv = group_utility(slates, matrix, catalog)
            # Single-membership items: total exposure is conserved at K * |U|.
            assert guv.total == pytest.approx(k * 10), name
