"""Per-user reference loops for the array metrics over index slates.

``fairrank.core.RankingSlate`` holds each user's slate as columns of its
score matrix, and ``fairrank.metrics`` (NDCG, MRR, HR, R-NDCG/u-loss) and
``fairrank.core.group_utility`` compute over that array for all users at
once.  These are the loops they replaced, over the string form slates had
before (``IdSlates``: user -> item ids in rank order), with the score and
group lookups they made (``scores_of``, ``groups_of``); the tests require
the array code to reproduce them exactly, values and errors alike.

They add with builtin ``sum``, which adds left to right on Python 3.11.
Python 3.12 made ``sum`` of floats compensated, so on 3.12+ these loops can
differ from the array code in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from fairrank.core import AXES, MODES, Catalog, GroupUtilityVector, RankingSlate, ScoreMatrix
from fairrank.errors import InvariantViolation, MissingUserGroups, UndefinedMetric, UnknownEntity
from fairrank.metrics import _log2_discount


@dataclass
class IdSlates:
    """Per-user ordered top-K item id lists.

    ``meta`` carries algorithm diagnostics (e.g. achieved exposure floors,
    duality gaps) and is excluded from equality comparisons.
    """

    k: int
    slates: dict[str, list[str]]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvariantViolation("slate size K must be positive")
        for user, items in self.slates.items():
            if len(set(items)) != len(items):
                raise InvariantViolation(f"duplicate item in slate of user {user!r}")
            if len(items) > self.k:
                raise InvariantViolation(f"slate of user {user!r} longer than K={self.k}")


def ids(slate: RankingSlate) -> dict[str, list[str]]:
    """Each user's slate as item ids in rank order, users in ascending id order."""
    items = slate.scores.item_ids
    return {user: [items[i] for i in row if i >= 0] for user, row in zip(slate.scores.user_ids, slate.slates.tolist())}


def id_slates(slate: RankingSlate) -> IdSlates:
    return IdSlates(k=slate.k, slates=ids(slate), meta=dict(slate.meta))


def scores_of(matrix: ScoreMatrix, user: str, items: Sequence[str]) -> list[float]:
    """``user``'s scores of ``items``, in order; :class:`UnknownEntity` if one is unscored."""
    if user not in matrix.user_pos:
        raise UnknownEntity(f"user {user!r} not in score matrix")
    u, cols = matrix.user_pos[user], [matrix.item_pos.get(item, -1) for item in items]
    for item, i in zip(items, cols):
        if i < 0 or not matrix.valid[u, i]:
            raise UnknownEntity(f"no score for ({user!r}, {item!r})")
    return matrix.S[u, cols].tolist()


def groups_of(catalog: Catalog, item: str) -> frozenset[str]:
    try:
        return catalog.item_groups[item]
    except KeyError:
        raise UnknownEntity(f"item {item!r} not in catalog") from None


def ndcg_at_k(slates: IdSlates, relevant: Mapping[str, set[str]], k: int) -> float:
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


def mrr_at_k(slates: IdSlates, relevant: Mapping[str, set[str]], k: int) -> float:
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


def hit_at_k(slates: IdSlates, relevant: Mapping[str, set[str]], k: int) -> float:
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


def rerank_quality(new_slates: IdSlates, orig_scores: ScoreMatrix, k: int) -> tuple[float, float]:
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
        new = scores_of(orig_scores, user, new_slates.slates[user][:k])
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


def group_utility(
    slates: IdSlates,
    scores: ScoreMatrix | None,
    catalog: Catalog,
    axis: str = "item",
    mode: str = "exposure",
) -> GroupUtilityVector:
    """Accumulate per-group utility from the given slates.

    Exposure mode credits one unit per slate slot; click mode credits the
    score clamped into [0, 1].  On the item axis each member group of a
    slotted item receives the full weight; on the user axis the weight goes
    to the group of the slate's user (users absent from ``user_groups``
    contribute nothing).

    Summation order is fixed (group id order, then user id order) so results
    are bit-reproducible.
    """
    if axis not in AXES:
        raise InvariantViolation(f"unknown axis {axis!r}")
    if mode not in MODES:
        raise InvariantViolation(f"unknown mode {mode!r}")
    if axis == "user" and catalog.user_groups is None:
        raise MissingUserGroups("user-axis utility requires catalog.user_groups")
    if mode == "click" and scores is None:
        raise UnknownEntity("click mode requires a score matrix")

    per_group: dict[str, dict[str, float]] = {g: {} for g in catalog.groups}
    for user in sorted(slates.slates):
        items = slates.slates[user]
        weights = [min(max(s, 0.0), 1.0) for s in scores_of(scores, user, items)] if mode == "click" else [1.0] * len(items)
        owner = [catalog.user_groups[user]] if axis == "user" and user in catalog.user_groups else []  # type: ignore[operator]
        for item, w in zip(items, weights):
            member_groups = groups_of(catalog, item)
            for g in member_groups if axis == "item" else owner:
                per_group[g][user] = per_group[g].get(user, 0.0) + w

    values: dict[str, float] = {}
    for g in sorted(catalog.groups):
        bucket = per_group[g]
        values[g] = float(sum(bucket[u] for u in sorted(bucket)))
    return GroupUtilityVector.from_values(axis=axis, mode=mode, values=values)
