"""The batched trainer against its per-sample reference.

Every comparison is exact: ``train`` keeps the reference's float operands
and their order, and draws the same values from the same random stream, so
embeddings, item biases and loss curves must be bit-identical.  Instances
put items in several groups, leave some groups with a single positive or
none, and use batch sizes that do not divide the positive count.  The hook
primitives, which hold per-group values as arrays over ``group_ids``, are
compared one call at a time with the group-keyed dict forms in
``tests/reference_trainer.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog
from fairrank import trainer
from fairrank.config import MODELS
from fairrank.errors import FairrankError
from fairrank.ingest import SplitDataset
from fairrank.trainer import (
    TrainConfig,
    TrainHooks,
    _add_rows,
    fairdual_step,
    fairness_penalty,
    ips_weights,
    minmax_sampler_update,
    train,
)
from reference_ingest import log_of, records_of
from reference_trainer import (
    DualState,
    reference_fairdual_step,
    reference_fairness_penalty,
    reference_fairness_penalty_grad,
    reference_ips_weights,
    reference_minmax_sampler_update,
    reference_train,
)
from test_trainer import sparse_group_dataset

seeds = st.integers(0, 2**32 - 1)
INPROC = MODELS["recommendation", "in-processing"]


def random_dataset(rng: np.random.Generator) -> SplitDataset:
    """A few users with random positives; items in one to three of up to four groups."""
    n_users, n_items, n_groups = int(rng.integers(2, 9)), int(rng.integers(3, 16)), int(rng.integers(1, 5))
    groups = [f"g{g}" for g in range(n_groups)]
    item_groups = {}
    for j in range(n_items):
        picked = rng.choice(n_groups, size=int(rng.integers(1, min(3, n_groups) + 1)), replace=False)
        item_groups[f"i{j:02d}"] = {groups[int(g)] for g in picked}
    users = [f"u{u}" for u in range(n_users)]
    records, ts = [], 0
    for user in users:
        # Up to every item: a user who has them all admits no negative and is dropped.
        for j in rng.choice(n_items, size=int(rng.integers(1, n_items + 1)), replace=False):
            ts += 1
            records.append((user, f"i{int(j):02d}", 1.0, ts))
    empty = log_of([])
    return SplitDataset(log_of(records), empty, empty, make_catalog(item_groups, users), ((0.8, 0.1, 0.1), 1))


def run_both(dataset, config, hooks):
    """Both trainers' models, or the type and message of the error both raise."""
    outcomes = []
    for fit in (train, reference_train):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(fit(dataset, config, hooks))
        except Exception as exc:  # both must fail alike, e.g. a zero-popularity group without smoothing
            outcomes.append((type(exc), str(exc)))
    return outcomes


def assert_same_model(got, expected):
    assert not isinstance(expected, tuple) and not isinstance(got, tuple), (got, expected)
    assert np.array_equal(got.user_vecs, expected.user_vecs)
    assert np.array_equal(got.item_vecs, expected.item_vecs)
    if expected.item_bias is None:
        assert got.item_bias is None
    else:
        assert np.array_equal(got.item_bias, expected.item_bias)
    assert got.loss_curve == expected.loss_curve


@settings(max_examples=60)
@given(seed=seeds, model=st.sampled_from(sorted(INPROC)), use_bias=st.booleans())
def test_train_matches_per_sample_reference(seed, model, use_bias):
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng)
    config = TrainConfig(
        dim=int(rng.integers(1, 6)),
        epochs=int(rng.integers(1, 4)),
        lr=float(rng.choice([0.05, 0.3])),
        batch_size=int(rng.integers(1, 12)),
        seed=int(rng.integers(0, 1000)),
        use_item_bias=use_bias,
        ips_smooth=float(rng.choice([0.0, 1.0])),
    )
    hooks = TrainHooks(
        **INPROC[model].hooks,
        reg_weight=float(rng.choice([0.0, 0.5, 2.0])),
        dual_budget=float(rng.choice([0.0, 1.0, 3.0])),
        dual_step=float(rng.choice([0.1, 0.7])),
        sampler_step=float(rng.choice([1.0, 4.0])),
    )
    got, expected = run_both(dataset, config, hooks)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_model(got, expected)


def pool_of_one_dataset() -> SplitDataset:
    """Group gB owns one item, which one user has: its minmax pool is a single positive."""
    item_groups = {"i0": {"gA"}, "i1": {"gA"}, "i2": {"gA", "gC"}, "i3": {"gC"}, "i4": {"gB"}, "i5": {"gA"}}
    picks = {"u0": ["i0", "i1", "i4"], "u1": ["i0", "i2", "i3"], "u2": ["i1", "i2", "i3", "i5"], "u3": ["i3", "i5"]}
    records = [(u, it, 1.0, ts) for ts, (u, it) in enumerate((u, it) for u in picks for it in picks[u])]
    empty = log_of([])
    catalog = make_catalog(item_groups, list(picks))
    return SplitDataset(log_of(records), empty, empty, catalog, ((0.8, 0.1, 0.1), 1))


@pytest.mark.parametrize("model", sorted(INPROC))
@pytest.mark.parametrize("use_bias", [False, True])
def test_every_model_matches_reference_on_a_pool_of_one(model, use_bias):
    dataset = pool_of_one_dataset()
    # 12 positives in batches of 5: the last batch is short.
    config = TrainConfig(dim=3, epochs=4, lr=0.2, batch_size=5, seed=3, use_item_bias=use_bias, ips_smooth=1.0)
    for extra in ({"reg_weight": 1.0}, {"dual_budget": 0.0}):
        assert_same_model(*run_both(dataset, config, TrainHooks(**INPROC[model].hooks, **extra)))


def absent_group_dataset() -> SplitDataset:
    """The pool-of-one dataset plus group gD, whose only item no user has: gD is in no batch."""
    dataset = pool_of_one_dataset()
    item_groups = {**{item: set(gs) for item, gs in dataset.catalog.item_groups.items()}, "i6": {"gD"}}
    catalog = make_catalog(item_groups, dataset.catalog.users)
    return SplitDataset(dataset.train, dataset.valid, dataset.test, catalog, dataset.split_spec)


@pytest.mark.parametrize("model", sorted(INPROC))
def test_every_model_matches_reference_with_a_group_in_no_batch(model):
    config = TrainConfig(dim=3, epochs=3, lr=0.2, batch_size=4, seed=5, ips_smooth=1.0)
    assert_same_model(*run_both(absent_group_dataset(), config, TrainHooks(**INPROC[model].hooks, reg_weight=1.0)))


def test_minmax_matches_reference_when_a_group_misses_a_whole_epoch(monkeypatch):
    """Seed 42 draws no g2 positive in the first epoch, so the next draws give g2 the largest seen probability."""
    seen_after = []

    def spy(*args):
        out = minmax_sampler_update(*args)
        seen_after.append(out[2].tolist())
        return out

    monkeypatch.setattr(trainer, "minmax_sampler_update", spy)
    config = TrainConfig(dim=2, epochs=3, batch_size=2, seed=42)
    assert_same_model(*run_both(sparse_group_dataset(), config, TrainHooks(group_sampler="minmax", sampler_step=5.0)))
    assert seen_after[2] == [True, True, False, True]  # after the first epoch's 3 batches of 5 positives
    assert seen_after[-1] == [True] * 4


def random_sets(rng: np.random.Generator, n_groups: int) -> np.ndarray:
    """Up to five distinct non-empty group sets, as bool rows over ``n_groups`` groups."""
    rows = rng.random((int(rng.integers(1, 6)), n_groups)) < 0.5
    rows[np.arange(len(rows)), rng.integers(0, n_groups, len(rows))] = True
    return np.unique(rows, axis=0)


@settings(max_examples=100)
@given(seed=seeds)
def test_fairdual_step_matches_per_sample_reference(seed):
    rng = np.random.default_rng(seed)
    groups = [f"g{g}" for g in range(int(rng.integers(1, 6)))]
    sets = random_sets(rng, len(groups))
    budget, step = float(rng.choice([0.0, 1.0, 2.5])), float(rng.choice([0.1, 0.9, 3.0]))
    shares = rng.dirichlet(np.ones(len(groups))) if rng.random() < 0.3 else None
    state = DualState.uniform(budget, groups, step)
    prices = np.array([state.prices[g] for g in groups])
    for _ in range(int(rng.integers(1, 6))):  # a few steps, so the prices leave the uniform start
        batch = rng.integers(0, len(sets), size=int(rng.integers(1, 40)))
        named = [frozenset(g for g, m in zip(groups, sets[s]) if m) for s in batch]
        got_w, prices = fairdual_step(prices, budget, step, sets, batch, shares)
        ref_w, state = reference_fairdual_step(state, named, None if shares is None else dict(zip(groups, shares)))
        assert np.array_equal(got_w, ref_w)
        assert prices.tolist() == [state.prices[g] for g in groups]


@settings(max_examples=100)
@given(seed=seeds)
def test_minmax_sampler_update_matches_dict_reference(seed):
    rng = np.random.default_rng(seed)
    groups = [f"g{g:02d}" for g in range(int(rng.integers(1, 12)))]  # np.sum adds 8 or more pairwise
    sampler_step = float(rng.choice([0.5, 1.0, 4.0]))
    ema, seen, ref_ema = np.zeros(len(groups)), np.zeros(len(groups), dtype=bool), None
    for _ in range(int(rng.integers(1, 8))):
        present = rng.random(len(groups)) < 0.5
        present[rng.integers(len(groups))] = True
        losses = np.where(present, rng.exponential(size=len(groups)), 0.0)
        q, ema, seen = minmax_sampler_update(ema, seen, losses, present, sampler_step)
        batch_losses = {g: float(losses[j]) for j, g in enumerate(groups) if present[j]}
        ref_q, ref_ema = reference_minmax_sampler_update(ref_ema, batch_losses, sampler_step)
        assert [groups[j] for j in np.flatnonzero(seen)] == sorted(ref_ema)
        assert {g: float(ema[j]) for j, g in enumerate(groups) if seen[j]} == ref_ema
        assert q.tolist() == [ref_q.get(g, max(ref_q.values())) for g in groups]


@settings(max_examples=200)
@given(seed=seeds, kind=st.sampled_from(["reg", "focf"]))
def test_fairness_penalty_and_gradient_match_dict_reference(seed, kind):
    rng = np.random.default_rng(seed)
    n_groups, batch = int(rng.integers(1, 12)), int(rng.integers(1, 40))
    member = rng.random((batch, n_groups)) < rng.uniform(0.05, 0.6)
    member[np.arange(batch), rng.integers(0, n_groups, batch)] = True
    scores = rng.normal(size=batch) * 10.0 ** rng.integers(-3, 4)
    got_penalty, got_grad = fairness_penalty(scores, member, kind)
    by_group = {f"g{j:02d}": np.flatnonzero(member[:, j]) for j in np.flatnonzero(member.any(axis=0))}
    scores_by_group = {g: scores[idx] for g, idx in by_group.items()}
    grads = reference_fairness_penalty_grad(scores_by_group, kind)
    expected_grad = np.zeros(batch)
    for g, idx in by_group.items():
        expected_grad[idx] += grads[g]
    assert got_penalty == reference_fairness_penalty(scores_by_group, kind)
    assert np.array_equal(got_grad, expected_grad)


@settings(max_examples=100)
@given(seed=seeds, smooth=st.sampled_from([0.0, 0.1, 1 / 3, 1.0, 2.7]))
def test_ips_weights_match_per_record_reference(seed, smooth):
    # A fractional smooth makes the per-record adds round at every step, which the column form must repeat.
    dataset = random_dataset(np.random.default_rng(seed))
    outcomes = []
    for weights, log in ((ips_weights, dataset.train), (reference_ips_weights, records_of(dataset.train))):
        try:
            outcomes.append(weights(log, dataset.catalog, smooth=smooth))
        except FairrankError as exc:
            outcomes.append((type(exc), str(exc)))
    if not isinstance(outcomes[0], tuple):
        outcomes[0] = dict(zip(dataset.catalog.group_ids, outcomes[0].tolist()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=200)
@given(seed=seeds)
def test_add_rows_matches_2d_add_at(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    A = rng.normal(size=(n, d))
    rows = rng.integers(0, n, size=int(rng.integers(0, 30)))  # few rows: heavy duplication
    V = rng.normal(size=(rows.size, d)) * 10.0 ** rng.integers(-8, 8, size=(rows.size, 1))
    expected = A.copy()
    np.add.at(expected, rows, V)
    _add_rows(A, rows, V)
    assert np.array_equal(A, expected)


@settings(max_examples=200)
@given(seed=seeds, offset=st.integers(0, 3))
def test_array_bounded_draw_matches_scalar_draws(seed, offset):
    """``rng.integers(0, sizes)`` gives the scalar loop's values and leaves the stream where it would."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, int(rng.choice([2, 3, 50, 2**20])), size=int(rng.integers(1, 60)))
    batched, scalar = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for gen in (batched, scalar):
        gen.integers(0, 7, size=offset)  # leave a half-used 64-bit word behind, or not
    values = batched.integers(0, sizes)
    assert values.tolist() == [int(scalar.integers(0, int(s))) for s in sizes]
    assert batched.random() == scalar.random()
