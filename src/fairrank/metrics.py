"""Accuracy, fairness, and diversity metrics over slates, utilities, and runs.

All functions are pure; averages reduce in a fixed (sorted) order so results
are reproducible bit-for-bit.  :data:`METRICS` declares each reportable
metric once (label, direction, report sections, value function over one
(model, K) :class:`Evaluation`); its order is every section's column order.
:data:`SECTIONS` gives each (task, stage)'s report sections, and so the
metrics it may request.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import GroupUtilityVector, RankingSlate, ScoreMatrix
from .errors import InvariantViolation, UndefinedMetric
from .ingest import IntentJudgments, QueryJudgments, RunList


@dataclass
class Evaluation:
    """One (model, K) result, as the metric value functions read it.

    Recommendation rows set ``slates``, ``scores``, ``relevant`` and
    ``utility``; search rows set ``run``, ``judgments`` and ``alpha``.
    """

    k: int
    slates: RankingSlate | None = None
    scores: ScoreMatrix | None = None
    relevant: Mapping[str, set[str]] | None = None
    utility: GroupUtilityVector | None = None
    run: RunList | None = None
    judgments: IntentJudgments | None = None
    alpha: float | None = None

    @cached_property
    def quality(self) -> tuple[float, float]:
        """``(r_ndcg, u_loss)``: one :func:`rerank_quality` call serves both metrics."""
        return rerank_quality(self.slates, self.scores, self.k)

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
    "ndcg": Metric("NDCG", "up", ("ranking",), lambda e: ndcg_at_k(e.slates, e.relevant, e.k)),
    "mrr": Metric("MRR", "up", ("ranking",), lambda e: mrr_at_k(e.slates, e.relevant, e.k)),
    "hr": Metric("HR", "up", ("ranking",), lambda e: hit_at_k(e.slates, e.relevant, e.k)),
    "r_ndcg": Metric("R-NDCG", "up", ("rerank",), lambda e: e.quality[0]),
    "u_loss": Metric("u-loss", "down", ("rerank",), lambda e: e.quality[1]),
    "mmf": Metric("MMF", "up", ("ranking", "rerank"), lambda e: mmf(e.utility)),
    "gini": Metric("GINI", "down", ("ranking", "rerank"), lambda e: gini(e.utility)),
    "entropy": Metric("Entropy", "up", ("ranking", "rerank"), lambda e: entropy(e.utility)),
    "min_max_ratio": Metric("MinMaxRatio", "up", ("rerank",), lambda e: min_max_ratio(e.utility)),
    "err_ia": Metric("ERR-IA", "up", ("diversity",), lambda e: err_ia(e.run, e.judgments, e.k)),
    "alpha_ndcg": Metric("alpha-nDCG", "up", ("diversity",), lambda e: alpha_ndcg(e.run, e.judgments, e.alpha, e.k)),
    "s_rec": Metric("S-rec", "up", ("diversity",), lambda e: s_recall(e.run, e.judgments, e.k)),
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
    return 1.0 / math.log2(rank + 1)


# ---------------------------------------------------------------------------
# Ranking accuracy
# ---------------------------------------------------------------------------


def ndcg_at_k(slates: RankingSlate, relevant: Mapping[str, set[str]], k: int) -> float:
    """Binary NDCG@k averaged over users that have at least one relevant item."""
    if k > slates.k:
        raise InvariantViolation(f"k={k} exceeds slate size {slates.k}")
    vals = []
    for user in sorted(slates.slates):
        rel = relevant.get(user, set())
        if not rel:
            continue
        dcg = 0.0
        for rank, item in enumerate(slates.slates[user][:k], start=1):
            if item in rel:
                dcg += _log2_discount(rank)
        idcg = sum(_log2_discount(r) for r in range(1, min(k, len(rel)) + 1))
        vals.append(dcg / idcg)
    if not vals:
        raise UndefinedMetric("no user has relevant items")
    return float(np.mean(vals))


def mrr_at_k(slates: RankingSlate, relevant: Mapping[str, set[str]], k: int) -> float:
    """Reciprocal rank of the first relevant item within the top k, averaged."""
    if k > slates.k:
        raise InvariantViolation(f"k={k} exceeds slate size {slates.k}")
    vals = []
    for user in sorted(slates.slates):
        rel = relevant.get(user, set())
        if not rel:
            continue
        rr = 0.0
        for rank, item in enumerate(slates.slates[user][:k], start=1):
            if item in rel:
                rr = 1.0 / rank
                break
        vals.append(rr)
    if not vals:
        raise UndefinedMetric("no user has relevant items")
    return float(np.mean(vals))


def hit_at_k(slates: RankingSlate, relevant: Mapping[str, set[str]], k: int) -> float:
    """Fraction of evaluated users with at least one relevant item in the top k."""
    if k > slates.k:
        raise InvariantViolation(f"k={k} exceeds slate size {slates.k}")
    vals = []
    for user in sorted(slates.slates):
        rel = relevant.get(user, set())
        if not rel:
            continue
        hit = any(item in rel for item in slates.slates[user][:k])
        vals.append(1.0 if hit else 0.0)
    if not vals:
        raise UndefinedMetric("no user has relevant items")
    return float(np.mean(vals))


def rerank_quality(new_slates: RankingSlate, orig_scores: ScoreMatrix, k: int) -> tuple[float, float]:
    """Re-ranking quality vs. the score-ordered original top-k.

    Returns ``(r_ndcg, u_loss)`` averaged over users: the DCG ratio with
    original scores as gains, and the relative drop in retained score mass.
    The original top-k is the score matrix's shared ranking (score desc,
    item id asc) cut to depth.
    """
    if k > new_slates.k:
        raise InvariantViolation(f"k={k} exceeds slate size {new_slates.k}")
    S, order, n_valid = orig_scores.S, orig_scores.order, orig_scores.n_valid
    r_vals = []
    loss_vals = []
    for user in sorted(new_slates.slates):
        new = orig_scores.scores_of(user, new_slates.slates[user][:k])
        ui = orig_scores.user_pos[user]
        orig = S[ui, order[ui, : min(k, n_valid[ui])]].tolist()
        denom_dcg = sum(s * _log2_discount(r) for r, s in enumerate(orig, start=1))
        denom_sum = sum(orig)
        if denom_dcg == 0.0 or denom_sum == 0.0:
            raise UndefinedMetric(f"zero original top-{k} mass for user {user!r}")
        num_dcg = sum(s * _log2_discount(r) for r, s in enumerate(new, start=1))
        num_sum = sum(new)
        r_vals.append(num_dcg / denom_dcg)
        loss_vals.append(1.0 - num_sum / denom_sum)
    if not r_vals:
        raise UndefinedMetric("no users to evaluate")
    return float(np.mean(r_vals)), float(np.mean(loss_vals))


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


def _alpha_dcg(docs: Sequence[str], judg: QueryJudgments, alpha: float, k: int) -> float:
    covered: dict[str, int] = {}
    dcg = 0.0
    for rank, doc in enumerate(docs[:k], start=1):
        intents = judg.doc_intents.get(doc, frozenset())
        gain = 0.0
        for intent in sorted(intents):
            gain += (1.0 - alpha) ** covered.get(intent, 0)
        dcg += gain * _log2_discount(rank)
        for intent in intents:
            covered[intent] = covered.get(intent, 0) + 1
    return dcg


def _greedy_ideal_table(queries: Sequence[QueryJudgments], alpha: float, depth: int) -> np.ndarray:
    """Running greedy ideal alpha-DCG of each query, all queries at once.

    Entry ``[q, r]`` is the DCG of the first ``r`` docs of query ``q``'s
    greedy ideal ordering, for ``r = 0..depth``; past the query's judged
    pool the entry stays at the full pool's DCG.  Each step picks, per
    query, the first judged doc (ascending id) of maximal gain, where a
    doc's gain adds ``(1 - alpha) ** covered`` over its intents in ascending
    id order (other intents add an exact ``+0.0``).  The DCG adds
    ``gain * 1 / log2(rank + 1)`` rank by rank.  Greedy orderings at two
    depths agree on their common prefix, so one table serves every K up to
    ``depth``.
    """
    pools = [judg.judged_docs() for judg in queries]
    n_pool = np.array([len(pool) for pool in pools], dtype=np.intp)
    n_int = max((len(judg.intents) for judg in queries), default=0)
    n_q, width = len(queries), int(n_pool.max(initial=0))
    member = np.zeros((n_int, n_q, width), dtype=bool)
    for q, (judg, pool) in enumerate(zip(queries, pools)):
        col = {intent: (j * n_q + q) * width for j, intent in enumerate(sorted(judg.intents))}
        hits = [col[intent] + d for d, doc in enumerate(pool) for intent in judg.doc_intents[doc]]
        member.flat[hits] = True
    available = np.arange(width) < n_pool[:, None]
    decay = np.array([(1.0 - alpha) ** c for c in range(depth + 1)])
    covered = np.zeros((n_q, n_int), dtype=np.intp)
    rows = np.arange(n_q)
    table = np.zeros((n_q, depth + 1))
    for step in range(depth):
        weight = decay[covered]
        gain = np.zeros(available.shape)
        for j in range(n_int):
            gain += member[j] * weight[:, j, None]
        best = np.argmax(np.where(available, gain, -np.inf), axis=1)
        gained = table[:, step] + gain[rows, best] * _log2_discount(step + 1)
        table[:, step + 1] = np.where(step < n_pool, gained, table[:, step])
        available[rows, best] = False
        covered += member[:, rows, best].T
    return table


def _ideal_alpha_dcg(judg: QueryJudgments, alpha: float, k: int, ideal: str) -> float:
    pool = judg.judged_docs()
    depth = min(k, len(pool))
    if depth == 0:
        return 0.0
    if ideal == "greedy":
        return float(_greedy_ideal_table([judg], alpha, depth)[0, depth])
    if ideal == "exhaustive":
        if len(pool) > 8:
            raise InvariantViolation("exhaustive ideal limited to <= 8 judged docs")
        best = 0.0
        for perm in itertools.permutations(pool, depth):
            best = max(best, _alpha_dcg(perm, judg, alpha, k))
        return best
    raise InvariantViolation(f"unknown ideal mode {ideal!r}")


def _greedy_ideal(judgments: IntentJudgments, alpha: float, k: int) -> dict[str, float]:
    """Greedy ideal alpha-DCG@k per query, from the table kept on the judgments.

    The table for ``alpha`` is computed once for every query of the
    judgments and recomputed only when a deeper ``k`` needs more ranks.
    """
    entry = judgments.ideal_dcg.get(alpha)
    if entry is None or entry[1].shape[1] - 1 < min(k, entry[2]):
        qids = sorted(judgments.queries)
        queries = [judgments.queries[qid] for qid in qids]
        max_pool = max((len(judg.doc_intents) for judg in queries), default=0)
        table = _greedy_ideal_table(queries, alpha, min(k, max_pool))
        entry = judgments.ideal_dcg[alpha] = (qids, table, max_pool)
    qids, table, _ = entry
    return dict(zip(qids, table[:, min(k, table.shape[1] - 1)].tolist()))


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha < 1.0):
        raise InvariantViolation("alpha must lie in [0, 1)")


def _alpha_ndcg_given(docs: Sequence[str], judg: QueryJudgments, alpha: float, k: int, ideal_dcg: float) -> float:
    if ideal_dcg == 0.0:
        return 0.0
    return _alpha_dcg(docs, judg, alpha, k) / ideal_dcg


def alpha_ndcg_query(docs: Sequence[str], judg: QueryJudgments, alpha: float = 0.5, k: int = 10, ideal: str = "greedy") -> float:
    """alpha-nDCG@k for one query; gains decay by (1-alpha) per redundant intent."""
    _check_alpha(alpha)
    return _alpha_ndcg_given(docs, judg, alpha, k, _ideal_alpha_dcg(judg, alpha, k, ideal))


def alpha_ndcg(run: RunList, judg: IntentJudgments, alpha: float = 0.5, k: int = 10, ideal: str = "greedy") -> float:
    """Mean alpha-nDCG@k over the queries of the run.

    The greedy ideal comes from the table kept on ``judg`` (see
    :func:`_greedy_ideal`), so repeated calls do not redo the greedy.
    """
    qids = sorted(run.queries)
    queries = [judg.query(qid) for qid in qids]
    if not queries:
        raise UndefinedMetric("run contains no queries")
    _check_alpha(alpha)
    if ideal == "greedy":
        ideals = _greedy_ideal(judg, alpha, k)
        ideal_dcgs = [ideals[qid] for qid in qids]
    else:
        ideal_dcgs = [_ideal_alpha_dcg(query, alpha, k, ideal) for query in queries]
    vals = [
        _alpha_ndcg_given(run.docs(qid), query, alpha, k, ideal_dcg)
        for qid, query, ideal_dcg in zip(qids, queries, ideal_dcgs)
    ]
    return float(np.mean(vals))


def err_ia_query(docs: Sequence[str], judg: QueryJudgments, k: int = 10) -> float:
    """Intent-prior-weighted expected reciprocal rank under the cascade model."""
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


def err_ia(run: RunList, judg: IntentJudgments, k: int = 10) -> float:
    vals = [err_ia_query(run.docs(qid), judg.query(qid), k) for qid in sorted(run.queries)]
    if not vals:
        raise UndefinedMetric("run contains no queries")
    return float(np.mean(vals))


def s_recall_query(docs: Sequence[str], judg: QueryJudgments, k: int = 10) -> float:
    """Fraction of the query's intents covered within the top k."""
    covered: set[str] = set()
    for doc in docs[:k]:
        covered |= judg.doc_intents.get(doc, frozenset())
    return len(covered) / len(judg.intents)


def s_recall(run: RunList, judg: IntentJudgments, k: int = 10) -> float:
    vals = [s_recall_query(run.docs(qid), judg.query(qid), k) for qid in sorted(run.queries)]
    if not vals:
        raise UndefinedMetric("run contains no queries")
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Candidate-list fairness
# ---------------------------------------------------------------------------


def exposure_parity(group_labels: Sequence[str], k: int) -> float:
    """Worst-group gap between exposure share (log-discounted top-k) and population share."""
    if not group_labels:
        raise InvariantViolation("no candidates")
    population: dict[str, int] = {}
    for g in group_labels:
        population[g] = population.get(g, 0) + 1
    n = len(group_labels)
    exposure: dict[str, float] = {g: 0.0 for g in population}
    total_exposure = 0.0
    for rank, g in enumerate(group_labels[:k], start=1):
        w = _log2_discount(rank)
        exposure[g] += w
        total_exposure += w
    worst = 0.0
    for g in sorted(population):
        share_exp = exposure[g] / total_exposure if total_exposure > 0 else 0.0
        share_pop = population[g] / n
        worst = max(worst, abs(share_exp - share_pop))
    return worst


def igf(ranked: Sequence[tuple[float, str]], k: int) -> float:
    """In-group fairness at cutoff k, averaged over groups with accepted members.

    Per group: ratio of the lowest accepted score to the highest rejected
    score.  Groups with no rejected members contribute 1; a non-positive
    highest rejected score also counts as perfectly separated.
    """
    accepted: dict[str, list[float]] = {}
    rejected: dict[str, list[float]] = {}
    for rank, (score, group) in enumerate(ranked, start=1):
        if not math.isfinite(score):
            raise InvariantViolation("non-finite candidate score")
        bucket = accepted if rank <= k else rejected
        bucket.setdefault(group, []).append(score)
    ratios = []
    for group in sorted(accepted):
        if group not in rejected:
            ratios.append(1.0)
            continue
        max_rej = max(rejected[group])
        if max_rej <= 0.0:
            ratios.append(1.0)
        else:
            ratios.append(min(accepted[group]) / max_rej)
    if not ratios:
        raise UndefinedMetric("no group has accepted members")
    return float(np.mean(ratios))
