"""The batched re-ranking kernels against their per-row references.

Every comparison is exact: the vectorised code keeps the references'
arithmetic, so slates, diagnostics and metric values must be bit-identical
on tie-heavy instances (rounded scores, multi-group items, short rows).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rerank as ref
from reference_metrics import id_slates
from conftest import random_instance, score_matrix
from fairrank.errors import FairrankError, UnknownEntity
from fairrank.fair_rerank import (
    RerankContext,
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
