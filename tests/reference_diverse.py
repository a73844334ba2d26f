"""One-query-at-a-time reference loops for the batched search code.

``fairrank.ingest.parse_diversity_qrels`` parses qrels in chunks into one
query x doc x intent table (``IntentJudgments``), ``parse_run_file`` parses
a TREC run in chunks into one queries x depth array (``SearchRun``),
``fairrank.diverse_rerank`` runs the xQuAD and PM2 greedy steps for all
queries at once and returns pool positions, and ``fairrank.metrics``
computes alpha-nDCG (with a greedy ideal kept on the judgments), ERR-IA and
S-recall for all queries at once.  These loops are the slow,
obviously-correct versions, over the per-query forms ``Query`` (declared
intents, priors and per-doc intent sets) and ``RunList`` (per-query
``(doc, score)`` lists); the tests require the batched code to reproduce
them exactly.

They add with builtin ``sum`` (PM2's coverage, the ideal's per-doc gain),
which adds left to right on Python 3.11.  Python 3.12 made ``sum`` of floats
compensated, so on 3.12+ these loops can differ from the batched code in the
last bit when relevance is fractional.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from fairrank.diverse_rerank import DiversifyContext
from fairrank.errors import EmptyCandidates, FormatError, InvariantViolation, IoError, ParseError, UndefinedMetric
from fairrank.ingest import IntentJudgments, SearchRun


@dataclass
class RunList:
    """Per-query ranked (doc, score) candidate lists in rank order."""

    queries: dict[str, list[tuple[str, float]]]

    def docs(self, qid: str) -> list[str]:
        return [doc for doc, _ in self.queries.get(qid, [])]


def run_of(queries: Mapping[str, Sequence[tuple[str, float]]] | RunList) -> SearchRun:
    """The ``SearchRun`` holding per-query ``(doc, score)`` lists, built through its constructor."""
    if isinstance(queries, RunList):
        queries = queries.queries
    qids = sorted(queries)
    doc_ids = sorted({doc for entries in queries.values() for doc, _ in entries})
    pos = {doc: c for c, doc in enumerate(doc_ids)}
    docs = np.full((len(qids), max(map(len, queries.values()), default=0)), -1)
    scores = np.zeros(docs.shape)
    for q, qid in enumerate(qids):
        entries = queries[qid]
        docs[q, : len(entries)] = [pos[doc] for doc, _ in entries]
        scores[q, : len(entries)] = [score for _, score in entries]
    return SearchRun(qids, doc_ids, docs, scores)


def lists_of(run: SearchRun) -> RunList:
    """The per-query ``(doc, score)`` lists of a ``SearchRun``."""
    return RunList({
        qid: [(run.doc_ids[c], s) for c, s in zip(docs[:n], scores[:n])]
        for qid, docs, scores, n in zip(run.query_ids, run.docs.tolist(), run.scores.tolist(), run.lengths.tolist())
    })


def picked(run: SearchRun, picks: np.ndarray) -> dict[str, list[str]]:
    """Each query's docs at the pool positions ``picks`` (a diversifier's result), in order."""
    return {qid: [doc for doc, _ in entries] for qid, entries in lists_of(run.rerank(picks)).queries.items()}


def parse_run_file(path: str | Path, truncate: int | None = 50) -> RunList:
    """Per-line version of ``fairrank.ingest.parse_run_file``."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"run file not found: {path}")
    queries: dict[str, list[tuple[str, float]]] = {}
    last_rank: dict[str, int] = {}
    seen_docs: dict[str, set[str]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 6:
                raise FormatError(f"{path}: line {lineno}: expected 6 TREC columns, got {len(fields)}")
            qid, _q0, doc, rank_raw, score_raw, _tag = fields
            try:
                rank = int(rank_raw)
                score = float(score_raw)
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            if not math.isfinite(score):
                raise FormatError(f"{path}: line {lineno}: non-finite score")
            if qid in last_rank and rank <= last_rank[qid]:
                raise FormatError(f"{path}: line {lineno}: rank {rank} not strictly increasing for query {qid!r}")
            docs = seen_docs.setdefault(qid, set())
            if doc in docs:
                raise FormatError(f"{path}: line {lineno}: duplicate doc {doc!r} for query {qid!r}")
            docs.add(doc)
            last_rank[qid] = rank
            queries.setdefault(qid, []).append((doc, score))
    if truncate is not None:
        queries = {qid: docs[:truncate] for qid, docs in queries.items()}
    return RunList(queries=queries)


@dataclass
class Query:
    """Intent-level binary judgments of one query.

    Attributes:
        intents: declared intents in ascending id order.
        priors: intent -> prior.
        doc_intents: doc -> set of intents the doc is relevant to (docs with
            no positive judgment are absent).
    """

    intents: list[str]
    priors: dict[str, float]
    doc_intents: dict[str, frozenset[str]]

    @classmethod
    def uniform(cls, doc_intents: Mapping[str, set[str]], intents: Sequence[str]) -> Query:
        """Uniform priors; docs with an empty intent set are dropped."""
        intents = sorted(intents)
        priors = {i: 1.0 / len(intents) for i in intents}
        return cls(intents, priors, {d: frozenset(s) for d, s in doc_intents.items() if s})

    def relevance(self, doc: str, intent: str) -> float:
        return 1.0 if intent in self.doc_intents.get(doc, frozenset()) else 0.0

    def judged_docs(self) -> list[str]:
        """Docs with at least one positive judgment, in ascending id order."""
        return sorted(self.doc_intents)


def listed_of(docs: Sequence[Sequence[str]]) -> tuple[list[str], list[int]]:
    """The doc table and the ``q * len(table) + d`` keys of each query's listed ``docs``, in the order given."""
    table = sorted({doc for query_docs in docs for doc in query_docs})
    pos = {doc: d for d, doc in enumerate(table)}
    return table, [q * len(table) + pos[doc] for q, query_docs in enumerate(docs) for doc in query_docs]


def judgments_of(queries: Mapping[str, Query], duplicate_count: int = 0) -> IntentJudgments:
    """The ``IntentJudgments`` table holding ``queries``, built through its constructor."""
    qids = sorted(queries)
    intents = [queries[qid].intents for qid in qids]
    docs = [queries[qid].judged_docs() for qid in qids]
    rel = np.zeros((len(qids), max(map(len, docs), default=0), max(map(len, intents), default=0)), dtype=bool)
    prior = np.zeros((len(qids), rel.shape[2]))
    for q, qid in enumerate(qids):
        query = queries[qid]
        prior[q, : len(query.intents)] = [query.priors[intent] for intent in query.intents]
        for d, doc in enumerate(docs[q]):
            rel[q, d, : len(query.intents)] = [intent in query.doc_intents[doc] for intent in query.intents]
    return IntentJudgments(qids, intents, *listed_of(docs), rel, prior, duplicate_count)


def docs_of(judgments: IntentJudgments, q: int) -> list[str]:
    """The ids of the docs row ``q`` of the judgments lists, ascending."""
    keys = judgments.listed[judgments.first_doc[q] : judgments.first_doc[q] + judgments.n_docs[q]]
    return [judgments.doc_ids[key % len(judgments.doc_ids)] for key in keys.tolist()]


def query_of(judgments: IntentJudgments | Query, qid: str | None = None) -> Query:
    """Query ``qid`` of the table (by default its only query) in per-query form; a ``Query`` is returned as is."""
    if isinstance(judgments, Query):
        return judgments
    if qid is None:
        (qid,) = judgments.query_ids
    q = judgments.row(qid)
    intents = judgments.intents[q]
    doc_intents = {
        doc: frozenset(intent for intent, rel in zip(intents, judgments.rel[q, d]) if rel)
        for d, doc in enumerate(docs_of(judgments, q))
    }
    return Query(list(intents), dict(zip(intents, judgments.prior[q].tolist())), doc_intents)


def parse_diversity_qrels(path: str | Path) -> IntentJudgments:
    """Per-line version of ``fairrank.ingest.parse_diversity_qrels``."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"qrels file not found: {path}")
    raw: dict[str, dict[tuple[str, str], int]] = {}
    duplicates = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 'qid intent doc rel', got {len(fields)} fields")
            qid, intent, doc, rel_raw = fields
            if rel_raw not in ("0", "1"):
                raise ParseError(f"{path}: line {lineno}: relevance {rel_raw!r} not in {{0, 1}}")
            per_query = raw.setdefault(qid, {})
            key = (intent, doc)
            if key in per_query:
                duplicates += 1
            per_query[key] = int(rel_raw)

    queries: dict[str, Query] = {}
    for qid, judgments in raw.items():
        intents = sorted({intent for intent, _ in judgments})
        prior = 1.0 / len(intents)
        doc_pos: dict[str, set[str]] = {}
        for (intent, doc), rel in judgments.items():
            if rel == 1:
                doc_pos.setdefault(doc, set()).add(intent)
        queries[qid] = Query(intents, {i: prior for i in intents}, {d: frozenset(s) for d, s in doc_pos.items()})
    return judgments_of(queries, duplicates)


def normalized_pool(entries: list[tuple[str, float]]) -> tuple[list[str], dict[str, float]]:
    """Min-max normalised run scores; 0.5 everywhere when all scores are equal."""
    if not entries:
        raise EmptyCandidates("query has no candidates")
    raw = [s for _, s in entries]
    lo, hi = min(raw), max(raw)
    if hi > lo:
        return [d for d, _ in entries], {d: (s - lo) / (hi - lo) for d, s in entries}
    return [d for d, _ in entries], {d: 0.5 for d, _ in entries}


def relevance_fn(ctx: DiversifyContext, qid: str, judg: Query):
    """Predicted relevance for a query that has a table, binary judgments otherwise."""
    if ctx.intent_relevance is not None and qid in ctx.intent_relevance:
        table = ctx.intent_relevance[qid]
        return lambda doc, intent: table.get((doc, intent), 0.0)
    return judg.relevance


def xquad_query(
    docs: list[str],
    norm_scores: Mapping[str, float],
    judg: Query,
    rel,
    lam: float,
    k: int,
) -> list[str]:
    """Greedy explicit-intent diversification of one query's pool."""
    intents = judg.intents
    priors = judg.priors
    not_covered = {i: 1.0 for i in intents}
    selected: list[str] = []
    remaining = list(docs)
    for _ in range(min(k, len(docs))):
        best_doc = None
        best_score = -float("inf")
        for doc in remaining:  # original rank order; strict > keeps the earlier doc on ties
            div = 0.0
            for intent in intents:
                div += priors[intent] * rel(doc, intent) * not_covered[intent]
            score = (1.0 - lam) * norm_scores[doc] + lam * div
            if score > best_score:
                best_score = score
                best_doc = doc
        selected.append(best_doc)
        remaining.remove(best_doc)
        for intent in intents:
            not_covered[intent] *= 1.0 - rel(best_doc, intent)
    return selected


def pm2_query(
    docs: list[str],
    judg: Query,
    rel,
    lam: float,
    k: int,
) -> list[str]:
    """Proportional (Sainte-Lague) seat allocation over intents for one query."""
    intents = judg.intents
    votes = dict(judg.priors)
    seats = {i: 0.0 for i in intents}
    selected: list[str] = []
    remaining = list(docs)
    for _ in range(min(k, len(docs))):
        target = None
        best_qt = -float("inf")
        for intent in intents:  # ascending id; strict > keeps the smaller id on ties
            qt = votes[intent] / (2.0 * seats[intent] + 1.0)
            if qt > best_qt:
                best_qt = qt
                target = intent
        best_doc = None
        best_score = -float("inf")
        for doc in remaining:
            score = lam * best_qt * rel(doc, target)
            for intent in intents:
                if intent != target:
                    score += (1.0 - lam) * (votes[intent] / (2.0 * seats[intent] + 1.0)) * rel(doc, intent)
            if score > best_score:
                best_score = score
                best_doc = doc
        selected.append(best_doc)
        remaining.remove(best_doc)
        coverage = sum(rel(best_doc, intent) for intent in intents)
        if coverage > 0.0:
            for intent in intents:
                seats[intent] += rel(best_doc, intent) / coverage
    return selected


def xquad(ctx: DiversifyContext) -> dict[str, list[str]]:
    """Per-query loop version of ``fairrank.diverse_rerank.xquad``, returning each query's docs."""
    out: dict[str, list[str]] = {}
    for qid, entries in lists_of(ctx.run).queries.items():
        judg = query_of(ctx.judgments, qid)
        docs, norm = normalized_pool(entries[: ctx.pool_size])
        out[qid] = xquad_query(docs, norm, judg, relevance_fn(ctx, qid, judg), ctx.lam, ctx.k)
    return out


def pm2(ctx: DiversifyContext) -> dict[str, list[str]]:
    """Per-query loop version of ``fairrank.diverse_rerank.pm2``, returning each query's docs."""
    out: dict[str, list[str]] = {}
    for qid, entries in lists_of(ctx.run).queries.items():
        judg = query_of(ctx.judgments, qid)
        docs, _ = normalized_pool(entries[: ctx.pool_size])
        out[qid] = pm2_query(docs, judg, relevance_fn(ctx, qid, judg), ctx.lam, ctx.k)
    return out


def xquad_oracle(entries: list[tuple[str, float]], judg: Query | IntentJudgments, lam: float, k: int) -> list[str]:
    """xQuAD over one query's ranked (doc, score) entries with binary relevance."""
    judg = query_of(judg)
    docs, norm = normalized_pool(entries)
    return xquad_query(docs, norm, judg, judg.relevance, lam, k)


def pm2_oracle(entries: list[tuple[str, float]], judg: Query | IntentJudgments, lam: float, k: int) -> list[str]:
    """PM2 over one query's ranked (doc, score) entries with binary relevance."""
    judg = query_of(judg)
    docs, _ = normalized_pool(entries)
    return pm2_query(docs, judg, judg.relevance, lam, k)


def alpha_dcg(docs: Sequence[str], judg: Query | IntentJudgments, alpha: float, k: int) -> float:
    """alpha-DCG@k of one ranking: each doc's intents add ``(1 - alpha) ** covered`` in ascending id order."""
    judg = query_of(judg)
    covered: dict[str, int] = {}
    dcg = 0.0
    for rank, doc in enumerate(docs[:k], start=1):
        intents = judg.doc_intents.get(doc, frozenset())
        gain = 0.0
        for intent in sorted(intents):
            gain += (1.0 - alpha) ** covered.get(intent, 0)
        dcg += gain * (1.0 / math.log2(rank + 1))
        for intent in intents:
            covered[intent] = covered.get(intent, 0) + 1
    return dcg


def ideal_alpha_dcg(judg: Query | IntentJudgments, alpha: float, k: int) -> float:
    """Greedy ideal alpha-DCG@k: repeatedly take the judged doc of largest marginal gain."""
    judg = query_of(judg)
    pool = judg.judged_docs()
    depth = min(k, len(pool))
    if depth == 0:
        return 0.0
    chosen: list[str] = []
    covered: dict[str, int] = {}
    remaining = list(pool)
    for _ in range(depth):
        best_doc = None
        best_gain = -1.0
        for doc in remaining:
            gain = sum((1.0 - alpha) ** covered.get(i, 0) for i in sorted(judg.doc_intents[doc]))
            if gain > best_gain:
                best_gain = gain
                best_doc = doc
        chosen.append(best_doc)
        remaining.remove(best_doc)
        for intent in judg.doc_intents[best_doc]:
            covered[intent] = covered.get(intent, 0) + 1
    return alpha_dcg(chosen, judg, alpha, k)


def exhaustive_ideal_alpha_dcg(judg: Query | IntentJudgments, alpha: float, k: int) -> float:
    """Ideal alpha-DCG@k over every ordering of the judged docs (at most 8 of them)."""
    judg = query_of(judg)
    pool = judg.judged_docs()
    if len(pool) > 8:
        raise InvariantViolation("exhaustive ideal limited to <= 8 judged docs")
    best = 0.0
    for perm in itertools.permutations(pool, min(k, len(pool))):
        best = max(best, alpha_dcg(perm, judg, alpha, k))
    return best


def alpha_ndcg_query(
    docs: Sequence[str], judg: Query | IntentJudgments, alpha: float = 0.5, k: int = 10, ideal: str = "greedy"
) -> float:
    """alpha-nDCG@k for one query against the greedy or the exhaustive ideal; 0 when the ideal is 0."""
    if not (0.0 <= alpha < 1.0):
        raise InvariantViolation("alpha must lie in [0, 1)")
    ideals = {"greedy": ideal_alpha_dcg, "exhaustive": exhaustive_ideal_alpha_dcg}
    ideal_dcg = ideals[ideal](judg, alpha, k)
    return 0.0 if ideal_dcg == 0.0 else alpha_dcg(docs, judg, alpha, k) / ideal_dcg


def err_ia_query(docs: Sequence[str], judg: Query | IntentJudgments, k: int = 10) -> float:
    """Intent-prior-weighted expected reciprocal rank under the cascade model."""
    judg = query_of(judg)
    total = 0.0
    for intent in judg.intents:
        p_stop = 1.0
        contrib = 0.0
        for rank, doc in enumerate(docs[:k], start=1):
            r = 0.5 * judg.relevance(doc, intent)  # (2^g - 1) / 2^g_max with binary g
            contrib += p_stop * r / rank
            p_stop *= 1.0 - r
        total += judg.priors[intent] * contrib
    return total


def s_recall_query(docs: Sequence[str], judg: Query | IntentJudgments, k: int = 10) -> float:
    """Fraction of the query's intents covered within the top k."""
    judg = query_of(judg)
    covered: set[str] = set()
    for doc in docs[:k]:
        covered |= judg.doc_intents.get(doc, frozenset())
    return len(covered) / len(judg.intents)


def _mean_over_queries(run: RunList, judgments: IntentJudgments, value) -> float:
    vals = [value(run.docs(qid), query_of(judgments, qid)) for qid in sorted(run.queries)]
    if not vals:
        raise UndefinedMetric("run contains no queries")
    return float(np.mean(vals))


def alpha_ndcg(run: RunList, judgments: IntentJudgments, alpha: float = 0.5, k: int = 10) -> float:
    """Mean alpha-nDCG@k with the ideal recomputed per query and call."""
    queries = [query_of(judgments, qid) for qid in sorted(run.queries)]  # UnknownQuery before the other errors
    if not queries:
        raise UndefinedMetric("run contains no queries")
    if not (0.0 <= alpha < 1.0):
        raise InvariantViolation("alpha must lie in [0, 1)")
    return _mean_over_queries(run, judgments, lambda docs, judg: alpha_ndcg_query(docs, judg, alpha, k))


def err_ia(run: RunList, judgments: IntentJudgments, k: int = 10) -> float:
    """Mean ERR-IA@k, one query at a time."""
    return _mean_over_queries(run, judgments, lambda docs, judg: err_ia_query(docs, judg, k))


def s_recall(run: RunList, judgments: IntentJudgments, k: int = 10) -> float:
    """Mean S-recall@k, one query at a time."""
    return _mean_over_queries(run, judgments, lambda docs, judg: s_recall_query(docs, judg, k))
