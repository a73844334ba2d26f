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

import re
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
from fairrank.errors import FairrankError, FormatError
from reference_diverse import RunList

seeds = st.integers(0, 2**32 - 1)


def _alpha_ndcg(run: RunList, judgments, alpha: float, k: int) -> float:
    return M.alpha_ndcg(M.judged_top(ref.run_of(run), judgments, k), judgments, alpha, k)


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
        ref.run_of(run),
        judgments,
        intent_relevance=predicted if rng.random() < 0.7 else None,
        lam=float(rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0.0, 1.0)])),
        k=int(rng.integers(1, longest + 4)),
        pool_size=int(rng.integers(1, longest + 3)),
    )
    assert ref.picked(ctx.run, xquad(ctx)) == ref.xquad(ctx)
    assert ref.picked(ctx.run, pm2(ctx)) == ref.pm2(ctx)


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
    row = M.Evaluation(k, run=ref.run_of(rerun), judgments=judgments, alpha=alpha)
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
        doc = "\0" if rng.random() < 0.02 else f"d{rng.integers(0, 8)}"  # a field equal to the chunks' line-end mark
        lines.append([f"q{q}", f"i{rng.integers(0, 12)}", doc, rel])
    for _ in range(int(rng.choice([0, 0, 0, 1, 2]))):  # two bad lines: the earlier one must be reported
        bad = lines[int(rng.integers(0, len(lines)))]
        if rng.random() < 0.5:
            bad[-1] = str(rng.choice(["2", "-1", "01", "1.0", "x"]))
        elif rng.random() < 0.5:
            bad.pop()
        else:
            bad.append("extra")
    return _text(rng, lines)


def _text(rng: np.random.Generator, lines: list[list[str]]) -> str:
    """``lines`` joined with assorted separators, padding, blank lines and line ends."""
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
        patch.setattr(ingest, "CHUNK_CHARS", chunk_chars)
        path = Path(tmp) / "qrels"
        path.write_bytes(text.encode("utf-8"))
        return [_outcome(parser, path) for parser in parsers]


@pytest.mark.parametrize("chunk_chars", [1, 64, ingest.CHUNK_CHARS])
@settings(max_examples=200)
@given(seed=seeds)
def test_qrels_parser_matches_per_line_parser(chunk_chars, seed):
    text = _qrels_text(np.random.default_rng(seed))
    got, want = _parse((ingest.parse_diversity_qrels, ref.parse_diversity_qrels), text, chunk_chars)
    if isinstance(want, tuple):
        assert got == want
        return
    docs = lambda judg: [ref.docs_of(judg, q) for q in range(len(judg.query_ids))]
    assert (got.query_ids, got.intents, docs(got)) == (want.query_ids, want.intents, docs(want))
    assert got.rel.shape == want.rel.shape and np.array_equal(got.rel, want.rel)
    assert got.prior.tolist() == want.prior.tolist()
    assert got.duplicate_count == want.duplicate_count


def test_qrels_keys_past_int32_match_per_line_parser(tmp_path):
    """2,000 queries x 10 intents x 110,000 docs, one line a doc, then every 1,000th line again with the other
    relevance: the parser's line keys ``(q * n_i + i) * n_d + d`` pass 2**31, where int32 arithmetic would wrap."""
    n_q, n_i, n_d = 2000, 10, 110_000
    assert n_q * n_i * n_d > 2**31
    line = lambda j, rel: f"q{j % n_q:04d} i{j // n_q % n_i} d{j:06d} {rel}\n"
    lines = [line(j, int(j % 3 > 0)) for j in range(n_d)] + [line(j, int(j % 3 == 0)) for j in range(0, n_d, 1000)]
    path = tmp_path / "qrels"
    path.write_text("".join(lines), encoding="utf-8")
    got, want = ingest.parse_diversity_qrels(path), ref.parse_diversity_qrels(path)
    assert (len(got.query_ids), len(got.doc_ids), max(map(len, got.intents))) == (n_q, n_d, n_i)
    docs = lambda judg: [ref.docs_of(judg, q) for q in range(len(judg.query_ids))]
    assert (got.query_ids, got.intents, docs(got)) == (want.query_ids, want.intents, docs(want))
    assert got.rel.shape == want.rel.shape and np.array_equal(got.rel, want.rel)
    assert got.prior.tolist() == want.prior.tolist()
    assert got.duplicate_count == want.duplicate_count == n_d // 1000


def _run_lines(rng: np.random.Generator) -> list[list[str]]:
    """Valid TREC run lines of up to five queries, interleaved, with ranks that rise by assorted steps and spellings."""
    n_queries = int(rng.integers(1, 6))
    last = [0] * n_queries
    seen: list[set] = [set() for _ in range(n_queries)]
    lines = []
    for _ in range(int(rng.integers(1, 40))):
        q = int(rng.integers(0, n_queries))
        doc = "\0" if rng.random() < 0.02 else f"d{rng.integers(0, 30)}"  # a field equal to the chunks' line-end mark
        if doc in seen[q]:
            continue
        seen[q].add(doc)
        last[q] += int(rng.choice([1, 1, 2, 7])) * (10**20 if rng.random() < 0.05 else 1)  # past int64 too
        rank = str(rng.choice([str(last[q]), f"+{last[q]}", f"00{last[q]}"]))
        score = str(rng.choice([repr(float(np.round(rng.normal(), 3))), "1e3", "-0", "7"]))
        lines.append([f"q{q}", "Q0", doc, rank, score, "tag"])
    return lines


BAD_RUN_LINES = {
    "rank-repeated": lambda fields, previous: fields[:3] + [previous[3]] + fields[4:],
    "rank-not-int": lambda fields, previous: fields[:3] + ["1.5"] + fields[4:],
    "doc-repeated": lambda fields, previous: fields[:2] + [previous[2]] + fields[3:],
    "short": lambda fields, previous: fields[:5],
    "long": lambda fields, previous: fields + ["extra"],
    "score-nan": lambda fields, previous: fields[:4] + ["nan"] + fields[5:],
    "score-inf": lambda fields, previous: fields[:4] + ["-inf"] + fields[5:],
    "score-not-number": lambda fields, previous: fields[:4] + ["x"] + fields[5:],
}


def _bad_run_lines(rng: np.random.Generator, lines: list[list[str]], kinds: list[str]) -> list[list[str]]:
    """``lines`` with each of ``kinds`` made of a line at or after the middle, against its query's previous line."""
    lines = [list(fields) for fields in lines]
    for kind in kinds:
        at = int(rng.integers(len(lines) // 2, len(lines)))
        previous = next((f for f in lines[:at][::-1] if f[0] == lines[at][0]), lines[at])
        lines[at] = BAD_RUN_LINES[kind](lines[at], previous)
    return lines


def _same_run(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
    else:
        assert ref.lists_of(got).queries == want.queries


@pytest.mark.parametrize("chunk_chars", [1, 64, ingest.CHUNK_CHARS])
@settings(max_examples=200)
@given(seed=seeds)
def test_run_parser_matches_per_line_parser(chunk_chars, seed):
    rng = np.random.default_rng(seed)
    lines = _run_lines(rng)
    kinds = [str(kind) for kind in rng.choice(sorted(BAD_RUN_LINES), size=int(rng.choice([0, 0, 0, 1, 2])))]
    text = _text(rng, _bad_run_lines(rng, lines, kinds))
    truncate = rng.choice([None, 0, 1, 2, len(lines) + 1, -1])
    parsers = (lambda path: ingest.parse_run_file(path, truncate), lambda path: ref.parse_run_file(path, truncate))
    _same_run(*_parse(parsers, text, chunk_chars))


@pytest.mark.parametrize("kind", sorted(BAD_RUN_LINES))
@pytest.mark.parametrize("truncate", [None, 1, 100])
def test_run_parser_reports_errors_past_the_first_chunk(kind, truncate):
    """One 60-line file, read 128 characters at a time: the bad line lies chunks past the first."""
    rng = np.random.default_rng(5)
    lines = [[f"q{j % 3}", "Q0", f"d{j}", str(j + 1), f"{1 - j / 100}", "t"] for j in range(60)]
    text = "".join(" ".join(fields) + "\n" for fields in _bad_run_lines(rng, lines, [kind]))
    parsers = (lambda path: ingest.parse_run_file(path, truncate), lambda path: ref.parse_run_file(path, truncate))
    got, want = _parse(parsers, text, 128)
    _same_run(got, want)
    assert isinstance(want, tuple) and want[0] is FormatError
    assert int(re.search(r": line (\d+): ", want[1]).group(1)) > len(text[:128].splitlines())
    # Clean, the same file parses alike at each chunk size.
    clean = "".join(" ".join(fields) + "\n" for fields in lines)
    _same_run(*_parse(parsers, clean, 128))
