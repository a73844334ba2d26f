"""Accuracy, fairness, and diversity metrics over slates, utilities, and runs.

All functions are pure; averages reduce in a fixed (sorted) order so results
are reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import GroupUtilityVector, RankingSlate, ScoreMatrix
from .errors import InvariantViolation, UndefinedMetric, UnknownEntity
from .ingest import IntentJudgments, QueryJudgments, RunList

REGISTERED_METRICS = frozenset(
    {
        "ndcg",
        "mrr",
        "hr",
        "r_ndcg",
        "u_loss",
        "gini",
        "entropy",
        "mmf",
        "min_max_ratio",
        "alpha_ndcg",
        "err_ia",
        "s_rec",
        "exposure_parity",
        "igf",
    }
)

# Recorded as report metadata: does a larger value mean better?
METRIC_DIRECTIONS = {
    "ndcg": "up",
    "mrr": "up",
    "hr": "up",
    "r_ndcg": "up",
    "u_loss": "down",
    "gini": "down",
    "entropy": "up",
    "mmf": "up",
    "min_max_ratio": "up",
    "alpha_ndcg": "up",
    "err_ia": "up",
    "s_rec": "up",
    "exposure_parity": "down",
    "igf": "up",
}


@dataclass
class MetricReport:
    """Named metric values (``name@K``) plus run provenance."""

    values: dict[str, float]
    provenance: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.values.items():
            base = name.split("@", 1)[0]
            if base not in REGISTERED_METRICS:
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
    view = orig_scores.dense()
    r_vals = []
    loss_vals = []
    for user in sorted(new_slates.slates):
        row = orig_scores.row(user)
        new_items = new_slates.slates[user][:k]
        for item in new_items:
            if item not in row:
                raise UnknownEntity(f"re-ranked item {item!r} has no original score for {user!r}")
        ui = view.user_pos[user]
        orig = view.S[ui, view.order[ui, : min(k, len(row))]].tolist()
        denom_dcg = sum(s * _log2_discount(r) for r, s in enumerate(orig, start=1))
        denom_sum = sum(orig)
        if denom_dcg == 0.0 or denom_sum == 0.0:
            raise UndefinedMetric(f"zero original top-{k} mass for user {user!r}")
        num_dcg = sum(row[item] * _log2_discount(r) for r, item in enumerate(new_items, start=1))
        num_sum = sum(row[item] for item in new_items)
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


def _ideal_alpha_dcg(judg: QueryJudgments, alpha: float, k: int, ideal: str) -> float:
    pool = judg.judged_docs()
    depth = min(k, len(pool))
    if depth == 0:
        return 0.0
    if ideal == "greedy":
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
    if ideal == "exhaustive":
        if len(pool) > 8:
            raise InvariantViolation("exhaustive ideal limited to <= 8 judged docs")
        best = 0.0
        for perm in itertools.permutations(pool, depth):
            best = max(best, _alpha_dcg(perm, judg, alpha, k))
        return best
    raise InvariantViolation(f"unknown ideal mode {ideal!r}")


def alpha_ndcg_query(docs: Sequence[str], judg: QueryJudgments, alpha: float = 0.5, k: int = 10, ideal: str = "greedy") -> float:
    """alpha-nDCG@k for one query; gains decay by (1-alpha) per redundant intent."""
    if not (0.0 <= alpha < 1.0):
        raise InvariantViolation("alpha must lie in [0, 1)")
    ideal_dcg = _ideal_alpha_dcg(judg, alpha, k, ideal)
    if ideal_dcg == 0.0:
        return 0.0
    return _alpha_dcg(docs, judg, alpha, k) / ideal_dcg


def alpha_ndcg(run: RunList, judg: IntentJudgments, alpha: float = 0.5, k: int = 10, ideal: str = "greedy") -> float:
    """Mean alpha-nDCG@k over the queries of the run."""
    vals = [alpha_ndcg_query(run.docs(qid), judg.query(qid), alpha, k, ideal) for qid in sorted(run.queries)]
    if not vals:
        raise UndefinedMetric("run contains no queries")
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
