"""The batched re-ranking kernels against their per-row references.

Every comparison is exact: the vectorised code keeps the references'
arithmetic, so slates, diagnostics and metric values must be bit-identical
on tie-heavy instances (rounded scores, multi-group items, short rows).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rerank as ref
from reference_metrics import id_slates
from conftest import random_instance, score_matrix
from fairrank import fair_rerank
from fairrank.core import ScoreMatrix
from fairrank.errors import FairrankError, UnknownEntity
from fairrank.fair_rerank import (
    RerankContext,
    _band_width,
    _ranked,
    _top_mask,
    _top_row,
    cpfair,
    fairrec,
    min_regularizer,
    pmmf,
    proportional_shares,
    topk,
    welf,
)
from fairrank.metrics import rerank_quality

seeds = st.integers(0, 2**32 - 1)


def _tie_heavy_rows(seed):
    """``(primary, tie, n_valid, k)``: a few rows, some with fewer valid entries than k (or none)."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = int(rng.integers(1, 8)), int(rng.integers(1, 30))
    k = int(rng.integers(1, n_cols + 3))
    valid = rng.random((n_rows, n_cols)) < rng.uniform(0.1, 1.0)
    # Few distinct values, both signs of zero, -inf exactly at invalid entries.
    primary = np.where(valid, rng.integers(-2, 3, (n_rows, n_cols)) / 2 * rng.choice([1.0, -1.0], (n_rows, n_cols)), -np.inf)
    tie = np.where(valid, rng.integers(0, 3, (n_rows, n_cols)) / 2, -np.inf)
    return primary, tie, valid.sum(axis=1), k


@settings(max_examples=200)
@given(seed=seeds)
def test_top_k_kernel_matches_per_row_lexsort(seed):
    primary, tie, n_valid, k = _tie_heavy_rows(seed)
    n_rows = len(primary)

    mask = _top_mask(primary, tie, k, n_valid, np.empty_like(primary))
    got = _ranked(mask, primary, tie)
    assert len(got) == n_rows
    for r in range(n_rows):
        expected = ref.top_slate(primary[r], tie[r], min(k, int(n_valid[r])))
        assert got[r].tolist() == expected.tolist()
        assert np.flatnonzero(mask[r]).tolist() == sorted(expected.tolist())


@settings(max_examples=200)
@given(seed=seeds)
def test_one_row_kernel_matches_per_row_lexsort(seed):
    primary, tie, n_valid, k = _tie_heavy_rows(seed)
    for r in np.flatnonzero(n_valid):  # a user without candidates never reaches the kernel
        depth = min(k, int(n_valid[r]))
        assert _top_row(primary[r], tie[r], depth).tolist() == ref.top_slate(primary[r], tie[r], depth).tolist()


def _instance(seed):
    rng = np.random.default_rng(seed)
    catalog, matrix = random_instance(
        rng, int(rng.integers(1, 10)), int(rng.integers(2, 25)), int(rng.integers(1, 5)), tie_heavy=True
    )
    k = int(rng.integers(1, 8))
    shares = proportional_shares(catalog) if rng.random() < 0.5 else None
    mode = "click" if rng.random() < 0.3 else "exposure"
    ctx = RerankContext(matrix, catalog, k, target_shares=shares, mode=mode)
    return rng, ctx


def _assert_same(got, expected):
    got = id_slates(got)
    assert got.slates == expected.slates
    assert list(got.slates) == list(expected.slates)
    assert got.meta == expected.meta


@settings(max_examples=60)
@given(seed=seeds)
def test_online_rerankers_match_references(seed):
    rng, ctx = _instance(seed)
    _assert_same(topk(ctx), ref.topk(ctx))
    lam = float(rng.choice([0.0, 0.2, 1.5]))
    _assert_same(min_regularizer(ctx, lam=lam), ref.min_regularizer(ctx, lam=lam))
    lam, eta = float(rng.choice([0.0, 1.0, 5.0])), float(rng.choice([0.1, 0.7]))
    got, expected = [], []
    fast = pmmf(ctx, lam=lam, eta=eta, on_update=got.append)
    _assert_same(fast, ref.pmmf(ctx, lam=lam, eta=eta, on_update=expected.append))
    assert [prices.tolist() for prices in got] == [[state.prices[g] for g in ctx.groups] for state in expected]


@settings(max_examples=100)
@given(seed=seeds)
def test_group_sets_are_numpy_unique_rows(seed):
    rng = np.random.default_rng(seed)
    catalog, matrix = random_instance(rng, 3, int(rng.integers(1, 60)), int(rng.integers(1, 70)), tie_heavy=True)
    ctx = RerankContext(matrix, catalog, 2)
    sets, set_of = np.unique(ctx.member, axis=0, return_inverse=True)
    assert np.array_equal(ctx.group_sets[0], sets)
    assert ctx.group_sets[1].tolist() == set_of.reshape(-1).tolist()


@settings(max_examples=100)
@given(seed=seeds)
def test_proportional_shares_match_dict_reference(seed):
    catalog = _instance(seed)[1].catalog
    assert dict(zip(catalog.group_ids, proportional_shares(catalog).tolist())) == ref.proportional_shares(catalog)


@settings(max_examples=60)
@given(seed=seeds)
def test_cpfair_matches_reference(seed):
    rng, ctx = _instance(seed)
    lam = float(rng.choice([0.0, 0.05, 0.3, 1e9]))
    budget = int(rng.integers(0, 12))
    got = cpfair(ctx, lam=lam, swap_budget=budget)
    _assert_same(got, ref.cpfair(ctx, lam=lam, swap_budget=budget))
    assert type(got.meta["deviation"]) is float


@settings(max_examples=60)
@given(seed=seeds)
def test_fairrec_matches_reference(seed):
    rng, ctx = _instance(seed)
    phi = float(rng.choice([1e-9, 0.3, 1.0]))
    _assert_same(fairrec(ctx, phi=phi), ref.fairrec(ctx, phi=phi))


@settings(max_examples=60)
@given(seed=seeds)
def test_welf_matches_reference(seed):
    rng, ctx = _instance(seed)
    lam, alpha = float(rng.choice([0.0, 0.5, 3.0])), float(rng.choice([0.2, 0.5, 0.9]))
    iters = int(rng.integers(1, 12))
    _assert_same(welf(ctx, lam=lam, alpha=alpha, iters=iters), ref.welf(ctx, lam=lam, alpha=alpha, iters=iters))


@pytest.mark.parametrize("k", [10, 20])
@pytest.mark.parametrize("tie_heavy", [False, True], ids=["distinct", "tie-heavy"])
def test_rerankers_match_references_on_rows_much_longer_than_k(k, tie_heavy):
    rng = np.random.default_rng(2024 + k)
    catalog, matrix = random_instance(rng, 60, 300, 8, tie_heavy=tie_heavy)
    ctx = RerankContext(matrix, catalog, k)
    if tie_heavy:  # rows whose ties overflow the slate at the k-th score, and rows shorter than k
        S, n_valid = ctx.scores.S, ctx.scores.n_valid
        kth = -np.sort(-S, axis=1)[:, k - 1 : k]
        assert ((S >= kth).sum(axis=1) > k)[n_valid >= k].any() and (n_valid < k).any() and (n_valid > 10 * k).any()
    _assert_same(welf(ctx), ref.welf(ctx, lam=1.0))
    _assert_same(fairrec(ctx), ref.fairrec(ctx, phi=0.5))
    _assert_same(min_regularizer(ctx), ref.min_regularizer(ctx, lam=1.0))
    _assert_same(pmmf(ctx, lam=5.0), ref.pmmf(ctx, lam=5.0))


def _quality(fn, *args):
    try:
        return fn(*args)
    except FairrankError as exc:
        return type(exc)


@settings(max_examples=60)
@given(seed=seeds)
def test_rerank_quality_matches_reference(seed):
    rng, ctx = _instance(seed)
    slates = cpfair(ctx, lam=float(rng.choice([0.05, 1.0])), swap_budget=int(rng.integers(0, 6)))
    for k in range(1, ctx.k + 1):
        assert _quality(rerank_quality, slates, k) == _quality(ref.rerank_quality, id_slates(slates), ctx.scores, k)


def test_dense_view_built_once_per_matrix_and_read_only(rng):
    catalog, matrix = random_instance(rng, 6, 15, 3)
    assert "order" not in vars(matrix)  # computed on first use
    orders = []
    for k in (2, 5):
        slates = welf(RerankContext(matrix, catalog, k), lam=1.0, iters=3)
        rerank_quality(slates, k)
        orders.append(vars(matrix)["order"])
    assert orders[0] is orders[1] is matrix.order
    for array in (matrix.S, matrix.valid, matrix.order):
        with pytest.raises(ValueError):
            array[0, 0] = array[0, 1]


def test_context_still_validates_scores_against_catalog(tiny_catalog):
    for rows in ({"u1": {"i1": 1.0}, "u9": {"i1": 0.5}}, {"u1": {"i1": 1.0}, "u2": {"i9": 0.5}}):
        with pytest.raises(UnknownEntity):
            RerankContext(score_matrix(rows), tiny_catalog, k=1)


# welf's band: each step works on a prefix order[:, :width] of every row's ranking, widened
# by _band_width whenever the bound admits a column past it.  These cases drive the band
# where it is easiest to get wrong and compare against the full-layout reference, repr and all.


@pytest.fixture
def band_widths(monkeypatch):
    """The (width in, width out) of every _band_width call, one per welf step with lam > 0."""
    calls = []

    def recorded(scores, k, width, bonus):
        calls.append((width, _band_width(scores, k, width, bonus)))
        return calls[-1][1]

    monkeypatch.setattr(fair_rerank, "_band_width", recorded)
    return calls


def _assert_band_same(ctx, **params):
    got, expected = welf(ctx, **params), ref.welf(ctx, **params)
    _assert_same(got, expected)
    assert repr(got.meta) == repr(expected.meta)


def _shifted(matrix, shift):
    """``matrix`` with every score moved by ``shift``."""
    return ScoreMatrix(matrix.user_ids, matrix.item_ids, np.where(matrix.valid, matrix.S + shift, 0.0), matrix.valid)


@pytest.mark.parametrize("shift", [-0.6, -2.0])
def test_welf_band_on_raw_scores_with_negatives(shift):
    catalog, matrix = random_instance(np.random.default_rng(31), 40, 80, 5, tie_heavy=True)
    matrix = _shifted(matrix, shift)
    assert (matrix.S[matrix.valid] < 0).mean() > 0.5
    ctx = RerankContext(matrix, catalog, 6)
    for lam in (0.0, 0.3, 2.0):
        _assert_band_same(ctx, lam=lam, iters=15)


def test_welf_band_spanning_whole_rows(band_widths):
    catalog, matrix = random_instance(np.random.default_rng(32), 25, 60, 4)
    ctx = RerankContext(matrix, catalog, 5)
    _assert_band_same(ctx, lam=1e3, iters=12)
    assert max(out for _, out in band_widths) == len(matrix.item_ids)


def test_welf_band_with_rows_shorter_than_k_next_to_long_rows(band_widths):
    catalog, matrix = random_instance(np.random.default_rng(33), 30, 90, 6)
    valid = np.ones(matrix.S.shape, dtype=bool)
    valid[::3, 4:] = False  # every third user scores 4 items, fewer than K
    matrix = ScoreMatrix(matrix.user_ids, matrix.item_ids, np.where(valid, matrix.S, 0.0), valid)
    ctx = RerankContext(matrix, catalog, 8)
    assert (matrix.n_valid < 8).any() and (matrix.n_valid > 10 * 8).any()
    _assert_band_same(ctx, lam=1.0, iters=20)
    assert band_widths and max(out for _, out in band_widths) < len(matrix.item_ids)


def test_welf_band_with_ties_at_the_kth_score_past_the_first_band(band_widths):
    catalog, matrix = random_instance(np.random.default_rng(34), 30, 120, 5, tie_heavy=True)
    k = 6
    S = matrix.S
    kth = -np.sort(-S, axis=1)[:, k - 1 : k]
    assert ((S >= kth).sum(axis=1) > k)[matrix.n_valid >= k].any()  # some row's ties overflow order[:, :k]
    ctx = RerankContext(matrix, catalog, k)
    _assert_band_same(ctx, lam=0.05, iters=10)
    assert band_widths[0][0] == k and band_widths[0][1] > k


def test_welf_band_widening_after_the_first_step(band_widths):
    catalog, matrix = random_instance(np.random.default_rng(35), 40, 150, 6)
    ctx = RerankContext(matrix, catalog, 10)
    _assert_band_same(ctx, lam=3.0, iters=30)
    assert any(out > width for width, out in band_widths[1:])
    assert band_widths[-1][1] < len(matrix.item_ids)


@settings(max_examples=150)
@given(seed=seeds)
def test_band_holds_every_entry_at_or_above_the_kth_value(seed):
    rng = np.random.default_rng(seed)
    catalog, matrix = random_instance(
        rng, int(rng.integers(1, 12)), int(rng.integers(1, 40)), int(rng.integers(1, 4)), tie_heavy=True
    )
    matrix = _shifted(matrix, float(rng.choice([0.0, -0.5, -1.0])))
    k = int(rng.integers(1, 10))
    offset = np.round(rng.uniform(0, float(rng.choice([0.05, 0.5, 5.0])), len(matrix.item_ids)), int(rng.integers(1, 4)))
    m = len(matrix.item_ids)
    width = _band_width(matrix, k, min(k, m), offset)
    assert min(k, m) <= width <= m
    for u, row in enumerate(matrix.S + offset):
        band = set(matrix.order[u, :width].tolist())
        n = int(matrix.n_valid[u])
        kth = np.sort(row)[m - min(k, n)]  # -inf invalid entries sort first
        assert set(np.flatnonzero((row >= kth) & matrix.valid[u]).tolist()) <= band


# cpfair works per group set: each user offers one out-item and one in-item per group set, and a
# sets x sets table keeps the best user of each (out set, in set) pair.  A swap recomputes the
# pairs its user was best in over all users.  These cases drive the table where it is easiest
# to get wrong and compare against the per-user reference, repr and all.


@pytest.fixture
def best_user_scans(monkeypatch):
    """The number of pairs of every _best_users call: the first table, one out set a call, then recomputations."""
    calls, best_users = [], fair_rerank._best_users

    def recorded(loss, cap):
        calls.append(loss.shape[1])
        return best_users(loss, cap)

    monkeypatch.setattr(fair_rerank, "_best_users", recorded)
    return calls


def _tied_reps(ctx):
    """Whether some (user, group set) has two lowest-scored items in the first slate, and some two
    highest-scored candidates past it."""
    _, set_of = ctx.group_sets
    ties = set()
    for u, n in enumerate(ctx.scores.n_valid):
        ranked, d = ctx.scores.order[u, :n], ctx.depth[u]
        for side, part, pick in (("out", ranked[:d], np.min), ("in", ranked[d:], np.max)):
            for g in np.unique(set_of[part]):
                s = ctx.scores.S[u, part[set_of[part] == g]]
                if np.count_nonzero(s == pick(s)) > 1:
                    ties.add(side)
    return ties == {"out", "in"}


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.4, math.inf])
@pytest.mark.parametrize("shift", [0.0, -0.6], ids=["non-negative", "negative"])
def test_cpfair_pair_table_on_shared_group_sets_and_ties(lam, shift, best_user_scans):
    catalog, matrix = random_instance(np.random.default_rng(44), 24, 36, 4, tie_heavy=True)
    matrix = _shifted(matrix, shift)
    ctx = RerankContext(matrix, catalog, 5)
    sets, _ = ctx.group_sets
    assert (sets.sum(axis=1) > 1).any() and (matrix.n_valid < 5).any() and _tied_reps(ctx)
    got, expected = cpfair(ctx, lam=lam, swap_budget=400), ref.cpfair(ctx, lam=lam, swap_budget=400)
    _assert_same(got, expected)
    assert repr(got.meta) == repr(expected.meta)
    if lam > 0:  # the swaps ran out before the budget, and some swap's user was the best of a pair
        assert 0 < got.meta["swaps"] < 400
        assert len(best_user_scans) > len(sets)


@pytest.mark.parametrize("lam", [0.2, 1.5])
def test_min_regularizer_click_mode_with_shuffled_arrival(lam):
    catalog, matrix = random_instance(np.random.default_rng(42), 30, 50, 4, tie_heavy=True)
    matrix = _shifted(matrix, -0.3)  # some clamped click weights are 0.0
    arrival = list(matrix.user_ids)
    np.random.default_rng(43).shuffle(arrival)
    ctx = RerankContext(matrix, catalog, 5, arrival_order=arrival, mode="click")
    _assert_same(min_regularizer(ctx, lam=lam), ref.min_regularizer(ctx, lam=lam))
