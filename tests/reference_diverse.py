"""One-query-at-a-time reference loops for the batched search kernels.

``fairrank.diverse_rerank`` runs the xQuAD and PM2 greedy steps for all
queries at once, and ``fairrank.metrics.alpha_ndcg`` computes the greedy
ideal alpha-DCG for all queries at once and keeps it on the judgments.
These loops are the slow, obviously-correct versions; the tests require the
batched code to reproduce them exactly.

They add with builtin ``sum`` (PM2's coverage, the ideal's per-doc gain),
which adds left to right on Python 3.11.  Python 3.12 made ``sum`` of floats
compensated, so on 3.12+ these loops can differ from the batched code in the
last bit when relevance is fractional.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from fairrank.diverse_rerank import DiversifyContext
from fairrank.errors import EmptyCandidates, InvariantViolation, UndefinedMetric
from fairrank.ingest import IntentJudgments, QueryJudgments, RunList
from fairrank.metrics import _alpha_dcg


def normalized_pool(entries: list[tuple[str, float]]) -> tuple[list[str], dict[str, float]]:
    """Min-max normalised run scores; 0.5 everywhere when all scores are equal."""
    if not entries:
        raise EmptyCandidates("query has no candidates")
    raw = [s for _, s in entries]
    lo, hi = min(raw), max(raw)
    if hi > lo:
        return [d for d, _ in entries], {d: (s - lo) / (hi - lo) for d, s in entries}
    return [d for d, _ in entries], {d: 0.5 for d, _ in entries}


def relevance_fn(ctx: DiversifyContext, qid: str, judg: QueryJudgments):
    """Predicted relevance for a query that has a table, binary judgments otherwise."""
    if ctx.intent_relevance is not None and qid in ctx.intent_relevance:
        table = ctx.intent_relevance[qid]
        return lambda doc, intent: table.get((doc, intent), 0.0)
    return judg.relevance


def xquad_query(
    docs: list[str],
    norm_scores: Mapping[str, float],
    judg: QueryJudgments,
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
    judg: QueryJudgments,
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
    """Per-query loop version of ``fairrank.diverse_rerank.xquad``."""
    out: dict[str, list[str]] = {}
    for qid in sorted(ctx.run.queries):
        judg = ctx.judgments.query(qid)
        docs, norm = normalized_pool(ctx.run.queries[qid][: ctx.pool_size])
        out[qid] = xquad_query(docs, norm, judg, relevance_fn(ctx, qid, judg), ctx.lam, ctx.k)
    return out


def pm2(ctx: DiversifyContext) -> dict[str, list[str]]:
    """Per-query loop version of ``fairrank.diverse_rerank.pm2``."""
    out: dict[str, list[str]] = {}
    for qid in sorted(ctx.run.queries):
        judg = ctx.judgments.query(qid)
        docs, _ = normalized_pool(ctx.run.queries[qid][: ctx.pool_size])
        out[qid] = pm2_query(docs, judg, relevance_fn(ctx, qid, judg), ctx.lam, ctx.k)
    return out


def xquad_oracle(entries: list[tuple[str, float]], judg: QueryJudgments, lam: float, k: int) -> list[str]:
    """xQuAD over one query's ranked (doc, score) entries with binary relevance."""
    docs, norm = normalized_pool(entries)
    return xquad_query(docs, norm, judg, judg.relevance, lam, k)


def pm2_oracle(entries: list[tuple[str, float]], judg: QueryJudgments, lam: float, k: int) -> list[str]:
    """PM2 over one query's ranked (doc, score) entries with binary relevance."""
    docs, _ = normalized_pool(entries)
    return pm2_query(docs, judg, judg.relevance, lam, k)


def ideal_alpha_dcg(judg: QueryJudgments, alpha: float, k: int) -> float:
    """Greedy ideal alpha-DCG@k: repeatedly take the judged doc of largest marginal gain."""
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
    return _alpha_dcg(chosen, judg, alpha, k)


def alpha_ndcg(run: RunList, judgments: IntentJudgments, alpha: float = 0.5, k: int = 10) -> float:
    """Mean alpha-nDCG@k with the ideal recomputed per query and call."""
    if not (0.0 <= alpha < 1.0):
        raise InvariantViolation("alpha must lie in [0, 1)")
    vals = []
    for qid in sorted(run.queries):
        judg = judgments.query(qid)
        ideal = ideal_alpha_dcg(judg, alpha, k)
        vals.append(0.0 if ideal == 0.0 else _alpha_dcg(run.docs(qid), judg, alpha, k) / ideal)
    if not vals:
        raise UndefinedMetric("run contains no queries")
    return float(np.mean(vals))
