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
from .ingest import IntentJudgments, SearchRun


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

    run: SearchRun
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


class _Batch:
    """Every query's pool as padded arrays, queries in the run's (ascending id) order.

    ``norm`` holds the run scores normalised per row as ``(s - lo) / (hi - lo)`` (0.5 where all are equal).
    ``rel[j, q, d]`` is the relevance of pool position ``d`` of query ``q`` to its ``j``-th intent (from the
    judgments unless ``intent_relevance`` overrides the query), of prior ``prior[q, j]``.  ``taken`` starts True on
    padding, and ``picks`` collects each step's position, -1 past a query's ``steps``; other padding is 0.
    """

    def __init__(self, ctx: DiversifyContext) -> None:
        run, judg = ctx.run, ctx.judgments
        sizes = np.minimum(run.lengths, ctx.pool_size)
        rows = []
        for qid, size in zip(run.query_ids, sizes.tolist()):  # same error order as one query at a time
            rows.append(judg.row(qid))
            if not size:
                raise EmptyCandidates(f"query {qid!r} has no candidates")
        rows = np.array(rows, dtype=np.intp)
        n_pool = int(sizes.max(initial=0))
        docs, scores = run.docs[:, :n_pool], run.scores[:, :n_pool]
        self.taken = np.arange(n_pool) >= sizes[:, None]
        lo = np.where(self.taken, np.inf, scores).min(axis=1, initial=np.inf, keepdims=True)
        hi = np.where(self.taken, -np.inf, scores).max(axis=1, initial=-np.inf, keepdims=True)
        spread = hi > lo
        self.norm = np.where(self.taken, 0.0, np.where(spread, (scores - lo) / np.where(spread, hi - lo, 1.0), 0.5))
        n_int = int(judg.n_intents[rows].max(initial=0))
        self.prior = judg.prior[rows, :n_int]
        rel = judg.gather(rows, docs, run.codes_in(judg))[:, :, :n_int]
        self.rel = np.ascontiguousarray(rel.transpose(2, 0, 1), dtype=float)
        tables = ctx.intent_relevance or {}
        for q, (qid, row, size) in enumerate(zip(run.query_ids, rows.tolist(), sizes.tolist())):
            if qid in tables:
                table, pool = tables[qid], [run.doc_ids[c] for c in docs[q, :size].tolist()]
                for j, intent in enumerate(judg.intents[row]):
                    self.rel[j, q, :size] = [table.get((doc, intent), 0.0) for doc in pool]
        self.steps = np.minimum(ctx.k, sizes)
        self.rows = np.arange(len(rows))
        self.picks = np.full((len(rows), int(self.steps.max(initial=0))), -1, dtype=np.intp)

    def take_best(self, step: int, score: np.ndarray) -> np.ndarray:
        """Each query's first untaken position of maximal score: mark it taken, and its pick if ``step < steps``."""
        best = np.argmax(np.where(self.taken, -np.inf, score), axis=1)
        self.taken[self.rows, best] = True
        self.picks[:, step] = np.where(step < self.steps, best, -1)
        return best


def xquad(ctx: DiversifyContext) -> np.ndarray:
    """Diversify every query of the run with the explicit-intent greedy: row ``q`` of the result lists the
    ``min(k, pool)`` pool positions query ``q`` picks, in order, padded with -1.

    A doc scores ``(1 - lam) * norm + lam * sum_i (prior_i * rel_i) * not_covered_i``;
    picking it multiplies each intent's ``not_covered`` by ``1 - rel_i``.
    """
    b = _Batch(ctx)
    not_covered = np.ones_like(b.prior)
    base = (1.0 - ctx.lam) * b.norm
    for step in range(b.picks.shape[1]):
        div = np.zeros_like(b.norm)
        for j in range(len(b.rel)):  # declared intent order
            div += (b.prior[:, j, None] * b.rel[j]) * not_covered[:, j, None]
        best = b.take_best(step, base + ctx.lam * div)
        not_covered *= 1.0 - b.rel[:, b.rows, best].T
    return b.picks


def pm2(ctx: DiversifyContext) -> np.ndarray:
    """Diversify every query of the run with proportional (Sainte-Lague) seat allocation; return picks as :func:`xquad`.

    Each step gives the seat to the intent with the largest quotient
    ``prior / (2 * seats + 1)`` (first in declared order on ties), scores a
    doc ``(lam * qt_target) * rel_target + sum_{i != target} ((1 - lam) * qt_i) * rel_i``
    and splits one seat over the picked doc's intents in proportion to its
    relevance.
    """
    b = _Batch(ctx)
    seats = np.zeros_like(b.prior)
    for step in range(b.picks.shape[1]):
        qt = b.prior / (2.0 * seats + 1.0)
        # Priors sum to 1, so a padded intent's quotient 0 is below the largest.
        target = np.argmax(qt, axis=1)
        score = (ctx.lam * qt[b.rows, target])[:, None] * b.rel[target, b.rows]
        others = (1.0 - ctx.lam) * qt
        others[b.rows, target] = 0.0  # the target's term was added first
        for j in range(len(b.rel)):  # declared intent order
            score += others[:, j, None] * b.rel[j]
        best = b.take_best(step, score)
        chosen = b.rel[:, b.rows, best]
        coverage = np.zeros(len(b.rows))
        for j in range(len(chosen)):
            coverage += chosen[j]
        covered = coverage > 0.0
        seats[covered] += chosen.T[covered] / coverage[covered, None]
    return b.picks
