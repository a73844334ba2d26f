"""Intent-aware search-result diversification over run lists.

Both algorithms greedily rebuild the top of a ranked list from a candidate
pool (default: top 50 of the original run).  Queries are independent, so
each greedy step runs for all queries at once over one padded
queries x pool array per intent; the steps within a query stay sequential.
Every per-doc score adds its per-intent terms in the query's declared intent
order with the same operands as the one-query loop in
``tests/reference_diverse.py``, and padded intents add an exact ``+0.0``, so
the selections are bit-identical to that loop.  Ties fall back to the
original rank order: ``np.argmax`` over the pool with taken docs masked to
``-inf`` returns the first maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCandidates, InvariantViolation
from .ingest import IntentJudgments, RunList


@dataclass
class DiversifyContext:
    """Inputs for result diversification.

    Attributes:
        run: initial ranked candidate lists.
        judgments: per-query intents, priors, and binary relevance (the
            oracle diversification signal).
        intent_relevance: optional predicted relevance overriding the binary
            judgments, as ``qid -> (doc, intent) -> [0, 1]``; a query absent
            from it keeps its binary judgments, a pair absent from its table
            counts as 0.
        lam: mixing weight between relevance and diversification.
        k: output depth.
        pool_size: candidate pool truncation depth.
    """

    run: RunList
    judgments: IntentJudgments
    intent_relevance: dict[str, dict[tuple[str, str], float]] | None = None
    lam: float = 0.5
    k: int = 20
    pool_size: int = 50

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam <= 1.0):
            raise InvariantViolation("lam must lie in [0, 1]")
        if self.k < 1 or self.pool_size < 1:
            raise InvariantViolation("k and pool_size must be positive")
        if self.intent_relevance is not None:
            for qid, table in self.intent_relevance.items():
                for key, value in table.items():
                    if not (0.0 <= value <= 1.0):
                        raise InvariantViolation(f"intent relevance {value} outside [0, 1] for {key}")


def _normalized_pool(run: RunList, qid: str, pool_size: int) -> tuple[list[str], dict[str, float]]:
    entries = run.queries.get(qid, [])[:pool_size]
    if not entries:
        raise EmptyCandidates(f"query {qid!r} has no candidates")
    docs = [doc for doc, _ in entries]
    raw = [score for _, score in entries]
    lo, hi = min(raw), max(raw)
    if hi > lo:
        norm = {doc: (score - lo) / (hi - lo) for (doc, _), score in zip(entries, raw)}
    else:
        norm = {doc: 0.5 for doc in docs}
    return docs, norm


class _Batch:
    """Every query's pool as padded arrays, queries in ascending id order.

    ``rel[j, q, d]`` is the relevance of pool position ``d`` of query ``q``
    to its ``j``-th declared intent, gathered from the judgments' table
    unless ``intent_relevance`` overrides the query, and ``prior[q, j]`` is
    that intent's prior.  ``norm`` holds the normalised run scores and
    ``taken`` starts True on padded positions.  Padding is 0 everywhere
    else.
    """

    def __init__(self, ctx: DiversifyContext) -> None:
        self.qids = sorted(ctx.run.queries)
        rows = []
        self.docs: list[list[str]] = []
        norms = []
        for qid in self.qids:  # same error order as one query at a time
            rows.append(ctx.judgments.row(qid))
            docs, norm = _normalized_pool(ctx.run, qid, ctx.pool_size)
            self.docs.append(docs)
            norms.append(norm)
        judg, rows = ctx.judgments, np.array(rows, dtype=np.intp)
        n_q = len(self.qids)
        n_pool = max((len(docs) for docs in self.docs), default=0)
        n_int = int(judg.n_intents[rows].max(initial=0))
        self.norm = np.zeros((n_q, n_pool))
        self.taken = np.ones((n_q, n_pool), dtype=bool)
        self.prior = judg.prior[rows, :n_int]
        rel = judg.gather(rows, self.docs, n_pool)[:, :, :n_int]
        self.rel = np.ascontiguousarray(rel.transpose(2, 0, 1), dtype=float)
        tables = ctx.intent_relevance or {}
        for q, (qid, row, docs, norm) in enumerate(zip(self.qids, rows.tolist(), self.docs, norms)):
            n = len(docs)
            self.norm[q, :n] = [norm[doc] for doc in docs]
            self.taken[q, :n] = False
            if qid in tables:
                table = tables[qid]
                for j, intent in enumerate(judg.intents[row]):
                    self.rel[j, q, :n] = [table.get((doc, intent), 0.0) for doc in docs]
        self.steps = np.minimum(ctx.k, [len(docs) for docs in self.docs])
        self.rows = np.arange(n_q)

    def take_best(self, score: np.ndarray) -> np.ndarray:
        """Each query's first untaken position of maximal score; mark it taken."""
        best = np.argmax(np.where(self.taken, -np.inf, score), axis=1)
        self.taken[self.rows, best] = True
        return best

    def slates(self, picks: list[np.ndarray]) -> dict[str, list[str]]:
        order = np.array(picks, dtype=np.intp).T.tolist()
        return {
            qid: [docs[d] for d in order[q][:n]]
            for q, (qid, docs, n) in enumerate(zip(self.qids, self.docs, self.steps.tolist()))
        }


def xquad(ctx: DiversifyContext) -> dict[str, list[str]]:
    """Diversify every query of the run with the explicit-intent greedy.

    A doc scores ``(1 - lam) * norm + lam * sum_i (prior_i * rel_i) * not_covered_i``;
    picking it multiplies each intent's ``not_covered`` by ``1 - rel_i``.
    """
    b = _Batch(ctx)
    not_covered = np.ones_like(b.prior)
    base = (1.0 - ctx.lam) * b.norm
    picks = []
    for _ in range(int(b.steps.max(initial=0))):
        div = np.zeros_like(b.norm)
        for j in range(len(b.rel)):  # declared intent order
            div += (b.prior[:, j, None] * b.rel[j]) * not_covered[:, j, None]
        best = b.take_best(base + ctx.lam * div)
        picks.append(best)
        not_covered *= 1.0 - b.rel[:, b.rows, best].T
    return b.slates(picks)


def pm2(ctx: DiversifyContext) -> dict[str, list[str]]:
    """Diversify every query of the run with proportional (Sainte-Lague) seat allocation.

    Each step gives the seat to the intent with the largest quotient
    ``prior / (2 * seats + 1)`` (first in declared order on ties), scores a
    doc ``(lam * qt_target) * rel_target + sum_{i != target} ((1 - lam) * qt_i) * rel_i``
    and splits one seat over the picked doc's intents in proportion to its
    relevance.
    """
    b = _Batch(ctx)
    seats = np.zeros_like(b.prior)
    picks = []
    for _ in range(int(b.steps.max(initial=0))):
        qt = b.prior / (2.0 * seats + 1.0)
        # Priors sum to 1, so a padded intent's quotient 0 is below the largest.
        target = np.argmax(qt, axis=1)
        score = (ctx.lam * qt[b.rows, target])[:, None] * b.rel[target, b.rows]
        others = (1.0 - ctx.lam) * qt
        others[b.rows, target] = 0.0  # the target's term was added first
        for j in range(len(b.rel)):  # declared intent order
            score += others[:, j, None] * b.rel[j]
        best = b.take_best(score)
        picks.append(best)
        chosen = b.rel[:, b.rows, best]
        coverage = np.zeros(len(b.qids))
        for j in range(len(chosen)):
            coverage += chosen[j]
        covered = coverage > 0.0
        seats[covered] += chosen.T[covered] / coverage[covered, None]
    return b.slates(picks)
