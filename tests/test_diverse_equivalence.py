"""The batched search code against its one-query references.

Every comparison is exact: ``xquad``/``pm2`` run all queries' greedy steps at
once, ``alpha_ndcg``, ``err_ia`` and ``s_recall`` run their per-rank
recurrences for all queries at once, and ``alpha_ndcg`` keeps a batched
greedy ideal on the judgments, all with the reference loops' arithmetic, so
selections and metric values must be bit-identical.  The chunked qrels
parser must build the same tables as the per-line one, and fail with the
same error on the same line.  Instances have several queries with
different pool sizes (``k`` may exceed a pool), up to 12 intents named
``i0``..``i11`` (so the string order ``i10 < i2`` differs from the numeric
one), rounded scores and priors that produce ties, and fractional predicted
relevance on only some queries.  The references add with builtin ``sum``,
which is sequential on Python 3.11 but compensated on 3.12+ (see
``tests/reference_diverse.py``).
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_diverse as ref
from fairrank import ingest
from fairrank import metrics as M
from fairrank.diverse_rerank import DiversifyContext, pm2, xquad
from fairrank.errors import FairrankError
from fairrank.ingest import RunList

seeds = st.integers(0, 2**32 - 1)


def _alpha_ndcg(run: RunList, judgments, alpha: float, k: int) -> float:
    return M.alpha_ndcg(M.judged_top(run, judgments, k), judgments, alpha, k)


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
    judg = ref.Query(intents=intents, priors=priors, doc_intents=doc_intents)
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
    return rng, RunList(queries=run), ref.judgments_of(judgments), predicted or None


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
    most_judged = int(judgments.n_docs.max())
    ks = sorted({int(k) for k in rng.integers(1, most_judged + 4, size=4)})
    if order == "descending":
        ks = ks[::-1]
    elif order == "repeated":
        ks = [int(k) for k in rng.choice(ks, size=8)]
    alphas = [0.5, float(np.round(rng.uniform(0.0, 0.95), 2))]
    # One judgments object throughout: later calls are served from its table.
    for k in ks:
        for alpha in alphas:
            assert _alpha_ndcg(run, judgments, alpha, k) == ref.alpha_ndcg(run, judgments, alpha, k)
    for qid in judgments.query_ids:
        judg = ref.query_of(judgments, qid)
        docs = run.docs(qid)
        for k in ks:
            fresh = ref.judgments_of({qid: judg})  # no ideal kept yet
            expected = ref.ideal_alpha_dcg(judg, alphas[1], k)
            assert M._greedy_ideal(fresh, alphas[1], k)[0] == expected
            assert _alpha_ndcg(RunList({qid: run.queries[qid]}), fresh, alphas[1], k) == (
                0.0 if expected == 0.0 else ref.alpha_dcg(docs, judg, alphas[1], k) / expected
            )


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the fairrank error it raised."""
    try:
        return fn(*args)
    except FairrankError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(seed=seeds)
def test_search_metrics_match_per_query_loops(seed):
    rng, run, judgments, _ = _instance(seed)
    # Reorder each run, mix in docs no query judged, and cut some runs short.
    queries = {}
    for qid, entries in run.queries.items():
        docs = [doc for doc, _ in entries] + [f"{qid}x{j}" for j in range(int(rng.integers(0, 4)))]
        docs = [docs[i] for i in rng.permutation(len(docs))][: int(rng.integers(0, len(docs) + 1))]
        queries[qid] = [(doc, float(len(docs) - r)) for r, doc in enumerate(docs)]
    case = rng.random()
    if case < 0.1:
        queries["q" + "z" * int(rng.integers(1, 3))] = [("d", 1.0)]  # a query without judgments
    elif case < 0.15:
        queries = {}
    rerun = RunList(queries)
    k = int(rng.integers(1, 16))
    alpha = float(rng.choice([0.0, 0.5, np.round(rng.uniform(0.0, 0.95), 2), 1.0]))
    # One report row: the three metrics share its one gather of the run's top-k.
    row = M.Evaluation(k, run=rerun, judgments=judgments, alpha=alpha)
    assert _outcome(M.METRICS["alpha_ndcg"].value, row) == _outcome(ref.alpha_ndcg, rerun, judgments, alpha, k)
    assert _outcome(M.METRICS["err_ia"].value, row) == _outcome(ref.err_ia, rerun, judgments, k)
    assert _outcome(M.METRICS["s_rec"].value, row) == _outcome(ref.s_recall, rerun, judgments, k)


def _qrels_text(rng: np.random.Generator) -> str:
    """Random qrels lines with assorted whitespace, line ends and duplicates; maybe one or two bad lines."""
    n_queries = int(rng.integers(1, 6))
    silent = {q for q in range(n_queries) if rng.random() < 0.2}  # queries with no positive judgment
    lines = []
    for _ in range(int(rng.integers(1, 60))):
        q = int(rng.integers(0, n_queries))
        rel = "1" if q not in silent and rng.random() < 0.4 else "0"
        # Small id spaces repeat (qid, intent, doc), so duplicates flip 1 -> 0 and 0 -> 1.
        lines.append([f"q{q}", f"i{rng.integers(0, 12)}", f"d{rng.integers(0, 8)}", rel])
    for _ in range(int(rng.choice([0, 0, 0, 1, 2]))):  # two bad lines: the earlier one must be reported
        bad = lines[int(rng.integers(0, len(lines)))]
        if rng.random() < 0.5:
            bad[-1] = str(rng.choice(["2", "-1", "01", "1.0", "x"]))
        elif rng.random() < 0.5:
            bad.pop()
        else:
            bad.append("extra")
    text = []
    for fields in lines:
        while rng.random() < 0.15:
            text.append(str(rng.choice(["", " ", "\t", " \t "])) + str(rng.choice(["\n", "\r\n"])))
        seps = rng.choice([" ", "\t", "   ", " \t"], size=len(fields))
        line = "".join(sep + field for sep, field in zip(seps[1:], fields[1:]))
        pad = str(rng.choice(["", " ", "\t"]))
        text.append(pad + fields[0] + line + pad + str(rng.choice(["\n", "\r\n"])))
    out = "".join(text)
    return out.rstrip("\r\n") if rng.random() < 0.3 else out


def _parse(parsers, text: str, chunk_chars: int):
    """Each parser's outcome on one file holding ``text``: error messages name the same path."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "QRELS_CHUNK_CHARS", chunk_chars)
        path = Path(tmp) / "qrels"
        path.write_bytes(text.encode("utf-8"))
        return [_outcome(parser, path) for parser in parsers]


@pytest.mark.parametrize("chunk_chars", [1, 64, ingest.QRELS_CHUNK_CHARS])
@settings(max_examples=200)
@given(seed=seeds)
def test_qrels_parser_matches_per_line_parser(chunk_chars, seed):
    text = _qrels_text(np.random.default_rng(seed))
    got, want = _parse((ingest.parse_diversity_qrels, ref.parse_diversity_qrels), text, chunk_chars)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.query_ids, got.intents, got.docs) == (want.query_ids, want.intents, want.docs)
    assert got.rel.shape == want.rel.shape and np.array_equal(got.rel, want.rel)
    assert got.prior.tolist() == want.prior.tolist()
    assert got.duplicate_count == want.duplicate_count
