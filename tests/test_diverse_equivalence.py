"""The batched search kernels against their one-query references.

Every comparison is exact: ``xquad``/``pm2`` run all queries' greedy steps at
once and ``alpha_ndcg`` keeps a batched greedy ideal on the judgments, with
the reference loops' arithmetic, so selections and metric values must be
bit-identical.  Instances have several queries with different pool sizes
(``k`` may exceed a pool), up to 12 intents named ``i0``..``i11`` (so the
string order ``i10 < i2`` differs from the numeric one), rounded scores and
priors that produce ties, and fractional predicted relevance on only some
queries.  The references add with builtin ``sum``, which is sequential on
Python 3.11 but compensated on 3.12+ (see ``tests/reference_diverse.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_diverse as ref
from fairrank import metrics as M
from fairrank.diverse_rerank import DiversifyContext, pm2, xquad
from fairrank.ingest import IntentJudgments, QueryJudgments, RunList

seeds = st.integers(0, 2**32 - 1)


def _query(rng: np.random.Generator, qid: str):
    """One query's ranked entries, judgments and (maybe) predicted relevance."""
    n_docs = int(rng.integers(1, 13))
    n_intents = int(rng.choice([1, 2, 3, 6, 10, 12]))
    intents = sorted(f"i{j}" for j in range(n_intents))
    # Judged docs reach past the run, so the ideal pool differs from the run's pool.
    docs = [f"{qid}d{j}" for j in range(n_docs + int(rng.integers(0, 4)))]
    density = rng.uniform(0.0, 0.6)
    doc_intents = {}
    for doc in docs:
        member = frozenset(i for i in intents if rng.random() < density)
        if member:
            doc_intents[doc] = member
    if rng.random() < 0.5:
        priors = {i: 1.0 / n_intents for i in intents}
    else:
        weights = np.round(rng.uniform(0.0, 1.0, n_intents), 1) + 0.1
        priors = {i: float(w) for i, w in zip(intents, weights / weights.sum())}
    judg = QueryJudgments(intents=intents, priors=priors, doc_intents=doc_intents)
    scores = np.round(rng.uniform(0.0, 1.0, n_docs), 1)
    if rng.random() < 0.15:
        scores[:] = 0.3  # equal scores: every doc normalises to 0.5
    entries = [(doc, float(s)) for doc, s in zip(docs, sorted(scores.tolist(), reverse=True))]
    predicted = None
    if rng.random() < 0.4:
        predicted = {
            (doc, i): float(np.round(rng.uniform(0.0, 1.0), 1))
            for doc in docs
            for i in intents
            if rng.random() < 0.5
        }
    return entries, judg, predicted


def _instance(seed: int):
    rng = np.random.default_rng(seed)
    run, judgments, predicted = {}, {}, {}
    for q in range(int(rng.integers(1, 7))):
        qid = f"q{q}"
        run[qid], judgments[qid], table = _query(rng, qid)
        if table is not None:
            predicted[qid] = table
    return rng, RunList(queries=run), IntentJudgments(queries=judgments), predicted or None


@settings(max_examples=300)
@given(seed=seeds)
def test_xquad_and_pm2_match_per_query_loops(seed):
    rng, run, judgments, predicted = _instance(seed)
    longest = max(len(entries) for entries in run.queries.values())
    ctx = DiversifyContext(
        run,
        judgments,
        intent_relevance=predicted if rng.random() < 0.7 else None,
        lam=float(rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0.0, 1.0)])),
        k=int(rng.integers(1, longest + 4)),
        pool_size=int(rng.integers(1, longest + 3)),
    )
    assert xquad(ctx) == ref.xquad(ctx)
    assert pm2(ctx) == ref.pm2(ctx)


@pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
@settings(max_examples=100)
@given(seed=seeds)
def test_alpha_ndcg_cache_matches_fresh_ideal(order, seed):
    rng, run, judgments, _ = _instance(seed)
    most_judged = max(len(j.doc_intents) for j in judgments.queries.values())
    ks = sorted({int(k) for k in rng.integers(1, most_judged + 4, size=4)})
    if order == "descending":
        ks = ks[::-1]
    elif order == "repeated":
        ks = [int(k) for k in rng.choice(ks, size=8)]
    alphas = [0.5, float(np.round(rng.uniform(0.0, 0.95), 2))]
    # One judgments object throughout: later calls are served from its table.
    for k in ks:
        for alpha in alphas:
            assert M.alpha_ndcg(run, judgments, alpha=alpha, k=k) == ref.alpha_ndcg(run, judgments, alpha, k)
    for qid, judg in judgments.queries.items():
        docs = run.docs(qid)
        for k in ks:
            expected = ref.ideal_alpha_dcg(judg, alphas[1], k)
            assert M._ideal_alpha_dcg(judg, alphas[1], k, "greedy") == expected
            assert M.alpha_ndcg_query(docs, judg, alphas[1], k) == (
                0.0 if expected == 0.0 else M._alpha_dcg(docs, judg, alphas[1], k) / expected
            )
