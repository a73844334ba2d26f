"""Accuracy, fairness, and diversity metrics over slates, utilities, and runs.

All functions are pure; averages reduce in a fixed (sorted) order so results
are reproducible bit-for-bit.  :data:`METRICS` declares each reportable
metric once (label, direction, report sections, value function over one
(model, K) :class:`Evaluation`); its order is every section's column order.
:data:`SECTIONS` gives each (task, stage)'s report sections, and so the
metrics it may request.

The recommendation metrics read a :class:`~fairrank.core.RankingSlate`'s
users x K array of score-matrix columns, the search metrics (alpha-nDCG,
ERR-IA, S-recall) the run's top-k docs gathered into one queries x ranks x
intents array from the :class:`~fairrank.ingest.IntentJudgments` table.
Both run rank by rank for all users or queries at once with the operands of
the loops in ``tests/reference_metrics.py`` and ``tests/reference_diverse.py``
(an exact ``+0.0`` past a row's end, per-intent terms in ascending intent id
order), so every value is bit-identical to theirs.  An :class:`Evaluation`
builds each input that several metrics share once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Callable, Sequence

import numpy as np

from .core import GroupUtilityVector, InteractionLog, RankingSlate, positions
from .errors import InvariantViolation, UndefinedMetric
from .ingest import IntentJudgments, SearchRun


@dataclass
class Evaluation:
    """One (model, K) result, as the metric value functions read it.

    Recommendation rows set ``slates``, ``relevant`` (the test split) and
    ``utility``; search rows set ``run``, ``judgments`` and ``alpha``.
    """

    k: int
    slates: RankingSlate | None = None
    relevant: InteractionLog | None = None
    utility: GroupUtilityVector | None = None
    run: SearchRun | None = None
    judgments: IntentJudgments | None = None
    alpha: float | None = None

    @cached_property
    def hits(self) -> tuple[np.ndarray, np.ndarray]:
        """One :func:`slate_hits` array serves NDCG, MRR and HR."""
        return slate_hits(self.slates, self.relevant, self.k)

    @cached_property
    def quality(self) -> tuple[float, float]:
        """``(r_ndcg, u_loss)``: one :func:`rerank_quality` call serves both metrics."""
        return rerank_quality(self.slates, self.k)

    @cached_property
    def judged(self) -> tuple[np.ndarray, np.ndarray]:
        """One :func:`judged_top` gather serves alpha-nDCG, ERR-IA and S-recall."""
        return judged_top(self.run, self.judgments, self.k)

    def report(self, names: Sequence[str], provenance: dict[str, object]) -> MetricReport:
        return MetricReport({f"{name}@{self.k}": METRICS[name].value(self) for name in names}, provenance)


@dataclass(frozen=True)
class Metric:
    """A reportable metric: table label, ``"up"`` if larger is better else ``"down"``, sections, value."""

    label: str
    direction: str
    sections: tuple[str, ...]
    value: Callable[[Evaluation], float]


METRICS: dict[str, Metric] = {
    "ndcg": Metric("NDCG", "up", ("ranking",), lambda e: ndcg_at_k(e.hits)),
    "mrr": Metric("MRR", "up", ("ranking",), lambda e: mrr_at_k(e.hits)),
    "hr": Metric("HR", "up", ("ranking",), lambda e: hit_at_k(e.hits)),
    "r_ndcg": Metric("R-NDCG", "up", ("rerank",), lambda e: e.quality[0]),
    "u_loss": Metric("u-loss", "down", ("rerank",), lambda e: e.quality[1]),
    "mmf": Metric("MMF", "up", ("ranking", "rerank"), lambda e: mmf(e.utility)),
    "gini": Metric("GINI", "down", ("ranking", "rerank"), lambda e: gini(e.utility)),
    "entropy": Metric("Entropy", "up", ("ranking", "rerank"), lambda e: entropy(e.utility)),
    "min_max_ratio": Metric("MinMaxRatio", "up", ("rerank",), lambda e: min_max_ratio(e.utility)),
    "err_ia": Metric("ERR-IA", "up", ("diversity",), lambda e: err_ia(e.judged, e.judgments)),
    "alpha_ndcg": Metric("alpha-nDCG", "up", ("diversity",), lambda e: alpha_ndcg(e.judged, e.judgments, e.alpha, e.k)),
    "s_rec": Metric("S-rec", "up", ("diversity",), lambda e: s_recall(e.judged, e.judgments)),
}

SECTIONS: dict[tuple[str, str], tuple[str, ...]] = {
    ("recommendation", "in-processing"): ("ranking",),
    ("recommendation", "post-processing"): ("ranking", "rerank"),
    ("recommendation", "evaluate"): ("ranking",),
    ("search", "post-processing"): ("diversity",),
    ("search", "evaluate"): ("diversity",),
}


@dataclass
class MetricReport:
    """Named metric values (``name@K``) plus run provenance."""

    values: dict[str, float]
    provenance: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.values.items():
            base = name.split("@", 1)[0]
            if base not in METRICS:
                raise InvariantViolation(f"unregistered metric {name!r}")
            if not math.isfinite(value):
                raise InvariantViolation(f"non-finite value for metric {name!r}")


def _log2_discount(rank: int) -> float:
    """``1 / log2(rank + 1)`` from :func:`math.log2`; ``np.log2`` differs from it in the last bit at rank 1620."""
    return 1.0 / math.log2(rank + 1)


def _gains(gain: np.ndarray, taken: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's discounted and plain sums of ``gain``, rank by rank; slots not taken add an exact +0.0."""
    dcg, total = np.zeros(len(gain)), np.zeros(len(gain))
    for rank in range(gain.shape[1]):
        dcg += np.where(taken[:, rank], gain[:, rank] * _log2_discount(rank + 1), 0.0)
        total += np.where(taken[:, rank], gain[:, rank], 0.0)
    return dcg, total


# ---------------------------------------------------------------------------
# Ranking accuracy
# ---------------------------------------------------------------------------


def slate_hits(slates: RankingSlate, relevant: InteractionLog, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Which top-k slots hold a relevant item, for the users with one (ascending id), and their relevant counts.

    An item is relevant to a user with a row of label above 0 on it in the log ``relevant`` (its ``relevant``
    table).  Relevant items outside the score matrix's item table fill no slot but count.
    """
    if k > slates.k:
        raise InvariantViolation(f"k={k} exceeds slate size {slates.k}")
    scores, table = slates.scores, relevant.relevant
    rows = positions(scores.user_ids, dict(zip(relevant.user_ids, count())))  # -1: the table's empty last row
    n_relevant = np.count_nonzero(table, axis=1)[rows]
    users = np.flatnonzero(n_relevant)
    if not users.size:
        raise UndefinedMetric("no user has relevant items")
    cols = np.append(positions(scores.item_ids, dict(zip(relevant.item_ids, count()))), -1)  # slates' -1 picks -1
    return table[rows[users, None], cols[slates.slates[users, :k]]], n_relevant[users]


def ndcg_at_k(hits: tuple[np.ndarray, np.ndarray]) -> float:
    """Binary NDCG@k averaged over users that have at least one relevant item."""
    hit, n_relevant = hits
    dcg, _ = _gains(np.ones(hit.shape), hit)
    # np.cumsum adds in order: entry m - 1 is the ideal DCG of m relevant items, ranks 1..m added one by one.
    ideal = np.cumsum([_log2_discount(rank) for rank in range(1, hit.shape[1] + 1)])
    return float(np.mean(dcg / ideal[np.minimum(hit.shape[1], n_relevant) - 1]))


def mrr_at_k(hits: tuple[np.ndarray, np.ndarray]) -> float:
    """Reciprocal rank of the first relevant item within the top k, averaged."""
    hit = hits[0]
    return float(np.mean(np.where(hit.any(axis=1), 1.0 / (hit.argmax(axis=1) + 1), 0.0)))


def hit_at_k(hits: tuple[np.ndarray, np.ndarray]) -> float:
    """Fraction of evaluated users with at least one relevant item in the top k."""
    return float(np.mean(np.where(hits[0].any(axis=1), 1.0, 0.0)))


def rerank_quality(slates: RankingSlate, k: int) -> tuple[float, float]:
    """Re-ranking quality vs. the score-ordered original top-k.

    Returns ``(r_ndcg, u_loss)`` averaged over users: the DCG ratio with
    original scores as gains, and the relative drop in retained score mass.
    The original top-k is the slate's score matrix's shared ranking (score
    desc, item id asc) cut to depth.
    """
    if k > slates.k:
        raise InvariantViolation(f"k={k} exceeds slate size {slates.k}")
    scores = slates.scores
    S, rows, orig, new = scores.S, np.arange(len(scores.S))[:, None], scores.order[:, :k], slates.slates[:, :k]
    denom_dcg, denom_sum = _gains(S[rows, orig], np.arange(orig.shape[1]) < np.minimum(k, scores.n_valid)[:, None])
    zero = (denom_dcg == 0.0) | (denom_sum == 0.0)
    if zero.any():
        raise UndefinedMetric(f"zero original top-{k} mass for user {scores.user_ids[np.argmax(zero)]!r}")
    num_dcg, num_sum = _gains(S[rows, new], new >= 0)
    if not len(S):
        raise UndefinedMetric("no users to evaluate")
    return float(np.mean(num_dcg / denom_dcg)), float(np.mean(1.0 - num_sum / denom_sum))


# ---------------------------------------------------------------------------
# Fairness on group-utility vectors
# ---------------------------------------------------------------------------


def gini(v: GroupUtilityVector) -> float:
    """Gini index of the group-utility distribution; 0 on uniform or all-zero input."""
    x = np.sort(v.as_array())
    n = x.size
    total = float(x.sum())
    if total == 0.0 or x[0] == x[-1]:
        return 0.0
    idx = np.arange(1, n + 1)
    # Sorted-form identity for sum_{g,g'} |v_g - v_g'| / (2 n total); clamp
    # float dust since the index is non-negative by construction.
    return max(0.0, float(np.sum((2 * idx - n - 1) * x) / (n * total)))


def entropy(v: GroupUtilityVector, base: float | None = None) -> float:
    """Shannon entropy of utility shares (natural log by default); 0 if total is 0."""
    x = v.as_array()
    total = float(x.sum())
    if total == 0.0:
        return 0.0
    p = x / total
    p = p[p > 0]
    h = float(-np.sum(p * np.log(p)))
    if base is not None:
        h /= math.log(base)
    return h


def mmf(v: GroupUtilityVector, normalized: bool = True) -> float:
    """Max-min fairness: worst group share, scaled so uniform = 1 when normalized."""
    x = v.as_array()
    total = float(x.sum())
    if total == 0.0:
        return 0.0
    share = float(x.min()) / total
    return share * x.size if normalized else share


def min_max_ratio(v: GroupUtilityVector) -> float:
    """Ratio of the worst-off to the best-off group; 1 when the max is 0."""
    x = v.as_array()
    mx = float(x.max())
    if mx == 0.0:
        return 1.0
    return float(x.min()) / mx


# ---------------------------------------------------------------------------
# Intent-aware diversity
# ---------------------------------------------------------------------------


def judged_top(run: SearchRun, judg: IntentJudgments, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The judgment rows of the run's queries (ascending id) and the relevance of their top-k docs.

    The relevance array is queries x ranks x intents, ranks cut to the
    longest of the run's top-k lists; unjudged docs and ranks past a short
    run are False.
    """
    rows = np.array([judg.row(qid) for qid in run.query_ids], dtype=np.intp)
    if not run.query_ids:
        raise UndefinedMetric("run contains no queries")
    depth = int(np.minimum(run.lengths, k).max())
    return rows, judg.gather(rows, run.docs[:, :depth], run.codes_in(judg))


class _GreedyIdeal:
    """Running greedy ideal alpha-DCG of every query of the judgments, all queries at once.

    ``table[q, r]`` is the DCG of the first ``r`` docs of query ``q``'s
    greedy ideal ordering, for ``r <= depth``; past the query's judged docs
    the entry stays at the full pool's DCG.  Each step picks, per query,
    the first judged doc (ascending id) of maximal gain, where a doc's gain
    adds ``(1 - alpha) ** covered`` over its intents in ascending id order
    (other intents add an exact ``+0.0``).  The DCG adds
    ``gain * 1 / log2(rank + 1)`` rank by rank.  The greedy's ``covered``
    counts and ``available`` mask are kept, so :meth:`extend` continues a
    deeper K from ``depth`` instead of from rank 0.
    """

    def __init__(self, judg: IntentJudgments, alpha: float) -> None:
        n_q, width, n_int = judg.rel.shape
        self.alpha = alpha
        self.member = np.ascontiguousarray(judg.rel.transpose(2, 0, 1))  # intents x queries x docs
        self.n_pool = judg.n_docs
        self.available = np.arange(width) < self.n_pool[:, None]
        self.covered = np.zeros((n_q, n_int), dtype=np.intp)
        self.table = np.zeros((n_q, width + 1))
        self.depth = 0

    def extend(self, depth: int) -> None:
        """Run the greedy steps ``self.depth .. depth - 1``."""
        decay = np.array([(1.0 - self.alpha) ** c for c in range(depth + 1)])
        rows = np.arange(len(self.table))
        for step in range(self.depth, depth):
            weight = decay[self.covered]
            gain = np.zeros(self.available.shape)
            for j in range(len(self.member)):
                gain += self.member[j] * weight[:, j, None]
            best = np.argmax(np.where(self.available, gain, -np.inf), axis=1)
            gained = self.table[:, step] + gain[rows, best] * _log2_discount(step + 1)
            self.table[:, step + 1] = np.where(step < self.n_pool, gained, self.table[:, step])
            self.available[rows, best] = False
            self.covered += self.member[:, rows, best].T
        self.depth = depth


def _greedy_ideal(judg: IntentJudgments, alpha: float, k: int) -> np.ndarray:
    """Greedy ideal alpha-DCG@k of every query (in judgment row order), from the state kept on the judgments.

    The state for ``alpha`` is created once per judgments and extended only
    when a deeper ``k`` needs more ranks.
    """
    ideal = judg.ideal_dcg.get(alpha)
    if ideal is None:
        ideal = judg.ideal_dcg[alpha] = _GreedyIdeal(judg, alpha)
    depth = min(k, ideal.table.shape[1] - 1)
    if ideal.depth < depth:
        ideal.extend(depth)
    return ideal.table[:, depth]


def alpha_ndcg(judged: tuple[np.ndarray, np.ndarray], judg: IntentJudgments, alpha: float = 0.5, k: int = 10) -> float:
    """Mean alpha-nDCG@k over the queries of the run; gains decay by (1-alpha) per redundant intent.

    ``judged`` is the run's :func:`judged_top` at depth ``k``.  Each rank's
    gain adds ``(1 - alpha) ** covered`` over the doc's intents in ascending
    id order, for all queries at once.  The greedy ideal comes
    from the state kept on ``judg`` (see :func:`_greedy_ideal`); a query
    whose ideal is 0 scores 0.
    """
    rows, top = judged
    if not (0.0 <= alpha < 1.0):
        raise InvariantViolation("alpha must lie in [0, 1)")
    decay = np.array([(1.0 - alpha) ** c for c in range(top.shape[1] + 1)])
    covered = np.zeros((len(rows), top.shape[2]), dtype=np.intp)
    dcg = np.zeros(len(rows))
    for rank in range(top.shape[1]):
        weight = decay[covered]
        gain = np.zeros(len(rows))
        for j in range(top.shape[2]):  # other intents add an exact +0.0
            gain += top[:, rank, j] * weight[:, j]
        dcg += gain * _log2_discount(rank + 1)
        covered += top[:, rank]
    ideal = _greedy_ideal(judg, alpha, k)[rows]
    return float(np.mean(np.divide(dcg, ideal, out=np.zeros_like(dcg), where=ideal != 0.0)))


def err_ia(judged: tuple[np.ndarray, np.ndarray], judg: IntentJudgments) -> float:
    """Mean intent-prior-weighted expected reciprocal rank@k of the run's :func:`judged_top`, under the cascade model.

    Per intent, rank by rank: ``contrib += p_stop * r / rank`` and
    ``p_stop *= 1 - r`` with ``r = 0.5 * relevance``; the intents' terms
    ``prior * contrib`` are then added in declared order.
    """
    rows, top = judged
    stop = 0.5 * top  # (2^g - 1) / 2^g_max with binary g
    p_stop = np.ones((len(rows), top.shape[2]))
    contrib = np.zeros_like(p_stop)
    for rank in range(top.shape[1]):
        contrib += p_stop * stop[:, rank] / (rank + 1)
        p_stop *= 1.0 - stop[:, rank]
    prior = judg.prior[rows]
    total = np.zeros(len(rows))
    for j in range(prior.shape[1]):
        total += prior[:, j] * contrib[:, j]
    return float(np.mean(total))


def s_recall(judged: tuple[np.ndarray, np.ndarray], judg: IntentJudgments) -> float:
    """Mean fraction of each query's intents covered within the top k of the run's :func:`judged_top`."""
    rows, top = judged
    return float(np.mean(top.any(axis=1).sum(axis=1) / judg.n_intents[rows]))
