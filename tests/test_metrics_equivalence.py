"""The array metrics over index slates against their per-user references.

Every comparison is exact: NDCG, MRR, HR, ``rerank_quality`` and
``group_utility`` run rank by rank over users x K arrays with the operands
and summation order of the loops in ``tests/reference_metrics.py``, so they
must return the same values, or raise the same error type with the same
message.  Instances have rows shorter than K (and empty ones), score ties,
zero and negative scores (so some users have zero original top-K mass),
users without relevant items, relevant items outside the score matrix's item
table, catalogs that miss some scored items and user groups on only some
users.  The accuracy metrics read the relevance of a column test split, the
references the relevant-item dict built from the same records one by one
(``tests/reference_ingest.py``); the split repeats some (user, item) pairs,
which count once, and has rows of label 0, which are not relevant.  The
references add with builtin ``sum``, which is sequential on Python 3.11 but
compensated on 3.12+ (see ``tests/reference_metrics.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_metrics as ref
from reference_ingest import Interaction, log_of, relevant_items
from fairrank.core import AXES, MODES, Catalog, RankingSlate, ScoreMatrix, group_utility
from fairrank.errors import FairrankError
from fairrank.metrics import hit_at_k, mrr_at_k, ndcg_at_k, rerank_quality, slate_hits

seeds = st.integers(0, 2**32 - 1)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the fairrank error it raised."""
    try:
        return fn(*args)
    except FairrankError as exc:
        return type(exc), str(exc)


def _instance(seed: int):
    """A score matrix, a catalog, a slate on the matrix and the records of a test split."""
    rng = np.random.default_rng(seed)
    n_users, n_items, n_groups = int(rng.integers(1, 40)), int(rng.integers(1, 25)), int(rng.integers(1, 5))
    users = [f"u{i:02d}" for i in range(n_users)]
    items = [f"i{i:02d}" for i in range(n_items)]
    groups = [f"g{j}" for j in range(n_groups)]
    case = rng.random()
    if case < 0.3:
        scores = np.round(rng.uniform(0.0, 1.0, (n_users, n_items)), 1)  # ties and zeros
    elif case < 0.5:
        scores = rng.uniform(-1.0, 1.0, (n_users, n_items))
    else:
        scores = rng.uniform(0.0, 1.0, (n_users, n_items))
    if rng.random() < 0.3:
        scores[rng.random(n_users) < 0.1] = 0.0
    valid = rng.random((n_users, n_items)) < rng.uniform(0.2, 1.0)
    if rng.random() < 0.8:  # else some users may have no candidate
        valid[np.arange(n_users), rng.integers(0, n_items, n_users)] = True
    matrix = ScoreMatrix(users, items, scores, valid)

    item_groups = {item: frozenset(g for g in groups if rng.random() < 0.4) or frozenset({groups[0]}) for item in items}
    catalog_items = [item for item in items if rng.random() >= 0.05] if rng.random() < 0.2 else items
    user_groups = {user: groups[int(rng.integers(n_groups))] for user in users if rng.random() < 0.7}
    catalog = Catalog(
        users=users,
        items=catalog_items,
        groups=groups,
        item_groups={item: item_groups[item] for item in catalog_items},
        user_groups=user_groups if rng.random() < 0.8 else None,
    )

    k = int(rng.integers(1, 13))  # numpy sums rows of 8 or more pairwise
    cols = np.full((n_users, k), -1)
    for u in range(n_users):
        if rng.random() < 0.3:
            row = matrix.order[u, : min(k, int(matrix.n_valid[u]))]
        else:
            row = rng.permutation(np.flatnonzero(matrix.valid[u]))[: int(rng.integers(0, k + 1))]
        cols[u, : row.size] = row
    slate = RankingSlate(k, cols, matrix)

    records = []
    for user in users + ["u99"]:
        if rng.random() < 0.3:
            continue  # no test record
        tested = [item for item in matrix.item_ids if rng.random() < 0.3]
        tested += [f"x{j}" for j in range(int(rng.integers(0, 3)))]  # outside the item table
        for item in tested:
            for _ in range(int(rng.integers(1, 3))):  # a repeated (user, item) pair
                records.append(Interaction(user, item, float(rng.choice([0.0, 0.0, 1.0, 4.5])), int(rng.integers(9))))
    return slate, catalog, [records[r] for r in rng.permutation(len(records))]


def _accuracy(metric, slate, records, k):
    return metric(slate_hits(slate, log_of(records), k))


@settings(max_examples=300)
@given(seed=seeds)
def test_accuracy_metrics_match_per_user_loops(seed):
    slate, _, records = _instance(seed)
    ids, relevant = ref.id_slates(slate), relevant_items(records)
    for k in range(1, slate.k + 2):  # k = K + 1 is an error in both
        for metric, reference in ((ndcg_at_k, ref.ndcg_at_k), (mrr_at_k, ref.mrr_at_k), (hit_at_k, ref.hit_at_k)):
            assert _outcome(_accuracy, metric, slate, records, k) == _outcome(reference, ids, relevant, k)


@settings(max_examples=300)
@given(seed=seeds)
def test_rerank_quality_matches_per_user_loop(seed):
    slate, _, _ = _instance(seed)
    ids = ref.id_slates(slate)
    for k in range(1, slate.k + 2):
        assert _outcome(rerank_quality, slate, k) == _outcome(ref.rerank_quality, ids, slate.scores, k)


@settings(max_examples=300)
@given(seed=seeds)
def test_group_utility_matches_per_user_loop(seed):
    slate, catalog, _ = _instance(seed)
    ids = ref.id_slates(slate)
    for axis in AXES:
        for mode in MODES:
            got = _outcome(group_utility, slate, catalog, axis, mode)
            assert got == _outcome(ref.group_utility, ids, slate.scores, catalog, axis, mode)
            if not isinstance(got, tuple):
                assert list(got.values) == sorted(catalog.groups)


def test_deep_slates_match_per_user_loops():
    # The only hit and the only gain sit at rank 1620, where 1 / np.log2(rank + 1)
    # is one ulp off 1 / math.log2(rank + 1), so no other term can absorb the difference.
    n_items = 1700
    items = [f"i{i:04d}" for i in range(n_items)]
    scores = np.zeros((1, n_items))
    scores[0, 0] = 0.7
    matrix = ScoreMatrix(["u"], items, scores)
    slate = RankingSlate(n_items, np.roll(np.arange(n_items), 1619)[None], matrix)
    ids, records = ref.id_slates(slate), [Interaction("u", items[0], 1.0, 0)]
    assert ids.slates["u"][1619] == items[0]
    for depth in (1619, 1620, 1700):
        assert rerank_quality(slate, depth) == ref.rerank_quality(ids, matrix, depth)
        assert _accuracy(ndcg_at_k, slate, records, depth) == ref.ndcg_at_k(ids, relevant_items(records), depth)
