"""The batched trainer against its per-sample reference.

Every comparison is exact: ``train`` keeps the reference's float operands
and their order, and draws the same values from the same random stream, so
embeddings, item biases and loss curves must be bit-identical.  Instances
put items in several groups, leave some groups with a single positive and
use batch sizes that do not divide the positive count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog
from fairrank.config import MODELS
from fairrank.core import DualState
from fairrank.errors import FairrankError, UnknownEntity
from fairrank.ingest import SplitDataset
from fairrank.trainer import TrainConfig, TrainHooks, _add_rows, fairdual_step, ips_weights, train
from reference_ingest import log_of, records_of
from reference_trainer import reference_fairdual_step, reference_ips_weights, reference_train

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


@settings(max_examples=100)
@given(seed=seeds)
def test_fairdual_step_matches_per_sample_reference(seed):
    rng = np.random.default_rng(seed)
    groups = [f"g{g}" for g in range(int(rng.integers(1, 5)))]
    sets = [frozenset(rng.choice(groups, size=int(rng.integers(1, len(groups) + 1)), replace=False).tolist())
            for _ in range(int(rng.integers(1, 6)))]
    batch = [sets[int(k)] for k in rng.integers(0, len(sets), size=int(rng.integers(1, 40)))]
    state = DualState.uniform(float(rng.choice([0.0, 1.0, 2.5])), groups, float(rng.choice([0.1, 0.9])))
    got_w, got_state = fairdual_step(state, batch)
    ref_w, ref_state = reference_fairdual_step(state, batch)
    assert np.array_equal(got_w, ref_w)
    assert got_state.prices == ref_state.prices


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
    assert outcomes[0] == outcomes[1]


def test_fairdual_step_names_the_first_unknown_group():
    state = DualState.uniform(1.0, ["gA", "gB"], 0.1)
    batch = [frozenset({"gA"}), frozenset({"gX"}), frozenset({"gA", "gY"}), frozenset({"gX"})]
    for step in (fairdual_step, reference_fairdual_step):
        with pytest.raises(UnknownEntity, match="'gX'"):
            step(state, batch)


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
