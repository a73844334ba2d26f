"""Post-processing re-rankers that trade relevance for group-exposure fairness.

All algorithms consume a :class:`RerankContext` and emit a
:class:`~fairrank.core.RankingSlate`.  Ties are broken by (score descending,
item id ascending) everywhere, so every algorithm is deterministic; with its
fairness knob at zero each one reduces exactly to :func:`topk`.

Every slate is a top-k under one tie contract: entries rank by a primary
key descending, then by the relevance score descending, then by item id
ascending, and a user's slate holds ``min(K, candidates)`` items.  The
batched kernel (:func:`_top_mask`, :func:`_ranked`) keeps that contract
exactly: one partition finds each row's K-th value, and only rows whose
ties at that value overflow the slate are resolved one by one.  The dense
user x item arrays come from :meth:`ScoreMatrix.dense`, which is built
once per score matrix and shared by every (model, K) run on it.

``min_regularizer`` and ``pmmf`` are online: they process users strictly in
``arrival_order`` and carry running state, so they must not be parallelised
over users.  The remaining algorithms are order-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Catalog, DualState, RankingSlate, ScoreMatrix
from .errors import EmptyCandidates, InvariantViolation

_TINY = 1e-12


@dataclass
class RerankContext:
    """Inputs shared by every re-ranker.

    Attributes:
        scores: per-user candidate scores (read-only).
        catalog: entity catalog supplying group membership.
        k: slate size.
        arrival_order: user processing order for online algorithms
            (defaults to ascending user id).
        target_shares: desired per-group exposure shares (defaults to
            uniform over the catalog's groups).
        mode: utility weighting, ``"exposure"`` or ``"click"``.
    """

    scores: ScoreMatrix
    catalog: Catalog
    k: int
    arrival_order: list[str] | None = None
    target_shares: dict[str, float] | None = None
    mode: str = "exposure"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvariantViolation("slate size K must be positive")
        if self.mode not in ("exposure", "click"):
            raise InvariantViolation(f"unknown mode {self.mode!r}")
        self.scores.validate_against(self.catalog)
        users = self.scores.users()
        if self.arrival_order is None:
            self.arrival_order = sorted(users)
        elif sorted(self.arrival_order) != sorted(users):
            raise InvariantViolation("arrival_order must be a permutation of the scored users")
        if self.target_shares is None:
            n = len(self.catalog.groups)
            self.target_shares = {g: 1.0 / n for g in self.catalog.groups}
        else:
            if set(self.target_shares) != set(self.catalog.groups):
                raise InvariantViolation("target_shares must cover exactly the catalog groups")
            if any(b < 0 for b in self.target_shares.values()):
                raise InvariantViolation("target shares must be non-negative")
            if abs(sum(self.target_shares.values()) - 1.0) > 1e-9:
                raise InvariantViolation("target shares must sum to 1")


def proportional_shares(catalog: Catalog) -> dict[str, float]:
    """Target shares proportional to each group's catalog item count.

    Multi-group items count once per membership, matching exposure accounting.
    """
    counts = {g: 0 for g in catalog.groups}
    for item in catalog.items:
        for g in catalog.item_groups[item]:
            counts[g] += 1
    total = sum(counts.values())
    return {g: counts[g] / total for g in catalog.groups}


class _Dense:
    """The score matrix's shared arrays plus this context's group data."""

    def __init__(self, ctx: RerankContext) -> None:
        self.view = view = ctx.scores.dense()
        self.users, self.items, self.user_pos = view.users, view.items, view.user_pos
        self.S, self.valid, self.n_valid = view.S, view.valid, view.n_valid
        empty = [self.users[i] for i in np.flatnonzero(self.n_valid == 0)]
        if empty:
            raise EmptyCandidates(f"users without candidates: {empty[:5]}")

        self.groups = sorted(ctx.catalog.groups)
        group_pos = {g: i for i, g in enumerate(self.groups)}
        self.member = np.zeros((len(self.items), len(self.groups)), dtype=bool)
        for ii, item in enumerate(self.items):
            for g in ctx.catalog.groups_of(item):
                self.member[ii, group_pos[g]] = True
        self.member_f = self.member.astype(float)
        self.beta = np.array([ctx.target_shares[g] for g in self.groups])
        # Clamped click weights; exposure mode uses unit weights.
        if ctx.mode == "click":
            self.W = np.where(self.valid, np.clip(self.S, 0.0, 1.0), 0.0)
        else:
            self.W = self.valid.astype(float)

    def ranked(self, k: int) -> list[np.ndarray]:
        """Each user's relevance top-k: the original ranking cut to depth."""
        order = self.view.order
        return [order[ui, :depth] for ui, depth in enumerate(np.minimum(k, self.n_valid))]

    def exposure_of(self, indices: Sequence[int]) -> np.ndarray:
        """Per-group exposure counts of a slate (each membership credited once)."""
        e = np.zeros(len(self.groups))
        for i in indices:
            e += self.member_f[i]
        return e


def _top_mask(primary: np.ndarray, tie: np.ndarray, k: int, n_valid: np.ndarray) -> np.ndarray:
    """Mask of each row's ``min(k, n_valid)`` best entries of ``primary``.

    Entries rank by (primary desc, tie desc, column asc); primary must be
    -inf exactly at invalid entries.  Entries above the row's k-th value are
    taken, and those equal to it fill the remaining slots.
    """
    m = primary.shape[1]
    cut = m - min(k, m)
    kth = np.partition(primary, cut, axis=1)[:, cut, None]
    take = primary > kth
    at = primary == kth
    need = np.minimum(k, n_valid) - take.sum(axis=1)
    n_at = at.sum(axis=1)
    take |= at & (need == n_at)[:, None]
    for r in np.flatnonzero((need > 0) & (need < n_at)):
        cols = np.flatnonzero(at[r])
        take[r, cols[np.argsort(-tie[r, cols], kind="stable")[: need[r]]]] = True
    return take


def _ranked(mask: np.ndarray, primary: np.ndarray, tie: np.ndarray) -> list[np.ndarray]:
    """Each row's masked columns ordered by (primary desc, tie desc, column asc)."""
    rows, cols = np.nonzero(mask)
    order = np.lexsort((cols, -tie[rows, cols], -primary[rows, cols], rows))
    return np.split(cols[order], np.cumsum(mask.sum(axis=1))[:-1])


def _top_row(dense: _Dense, ui: int, primary: np.ndarray, k: int) -> np.ndarray:
    """One user's top-k of ``primary`` with relevance as the tie key."""
    primary, tie = primary[None], dense.S[ui : ui + 1]
    return _ranked(_top_mask(primary, tie, k, dense.n_valid[ui : ui + 1]), primary, tie)[0]


def _build_slates(dense: _Dense, per_user: Sequence[Sequence[int]], k: int, meta: dict | None = None) -> RankingSlate:
    slates = {dense.users[ui]: [dense.items[i] for i in idxs] for ui, idxs in enumerate(per_user)}
    return RankingSlate(k=k, slates=slates, meta=meta or {})


def topk(ctx: RerankContext) -> RankingSlate:
    """Relevance-only baseline: per-user top-k by score, ties by item id."""
    dense = _Dense(ctx)
    return _build_slates(dense, dense.ranked(ctx.k), ctx.k)


def min_regularizer(ctx: RerankContext, lam: float) -> RankingSlate:
    """Online score adjustment toward the worst-off group.

    Processing users in arrival order, each item's score receives a bonus
    proportional to the gap between the worst-off group's running normalized
    utility and the item's best-off member group.  ``lam`` scales the bonus;
    0 reproduces :func:`topk`.
    """
    if lam < 0:
        raise InvariantViolation("lam must be non-negative")
    dense = _Dense(ctx)
    util = np.zeros(len(dense.groups))
    chosen: list[np.ndarray] = [None] * len(dense.users)
    for t, user in enumerate(ctx.arrival_order, start=1):
        ui = dense.user_pos[user]
        if lam > 0:
            norm = util / max(1.0, t * ctx.k)
            # Utilities are non-negative, so a masked product realises
            # "max over member groups".
            item_pen = (dense.member * norm).max(axis=1)
            adjusted = dense.S[ui] + lam * (norm.min() - item_pen)
        else:
            adjusted = dense.S[ui]
        slate = _top_row(dense, ui, adjusted, ctx.k)
        chosen[ui] = slate
        for i in slate:
            util += dense.member_f[i] * dense.W[ui, i]
    return _build_slates(dense, chosen, ctx.k)


# ---------------------------------------------------------------------------
# Greedy swap re-ranking (knapsack-style)
# ---------------------------------------------------------------------------


def _deviation(e: np.ndarray, beta: np.ndarray) -> float:
    return float(np.abs(e - beta * e.sum()).sum())


def _reps(S: np.ndarray, mask: np.ndarray, gid: np.ndarray, n_sets: int, pick) -> np.ndarray:
    """Per (row, group-set id), the masked column that ``pick`` selects.

    ``pick`` is ``np.argmax`` or ``np.argmin`` over the row's scores; both
    return the first extremum, so ties go to the smallest item index.  Rows
    with no masked column in a group set get -1.
    """
    fill = -np.inf if pick is np.argmax else np.inf
    reps = np.full((S.shape[0], n_sets), -1)
    for g in range(n_sets):
        vals = np.where(mask & (gid == g), S, fill)
        best = pick(vals, axis=1)
        reps[:, g] = np.where(vals[np.arange(len(best)), best] != fill, best, -1)
    return reps


def cpfair(ctx: RerankContext, lam: float, swap_budget: int) -> RankingSlate:
    """Greedy knapsack-style swaps that shrink the group-exposure deviation.

    Starting from the :func:`topk` slates, repeatedly applies the single
    (user, out-item, in-item) swap with the best deviation reduction per
    unit of relevance lost, subject to a per-swap relevance-loss cap ``lam``
    and a total ``swap_budget``.  Ties prefer smaller loss, then the
    lexicographically smallest (user, out item, in item).  Modified slates
    are re-sorted by (score desc, item id asc).

    Items with the same member-group set are interchangeable for the
    deviation, so each user offers one out-item per group set (the lowest
    scored slate item) and one in-item per group set (the highest scored
    candidate), and all users' swaps are scored at once: an array of
    users x group sets^2 per swap.
    """
    if lam < 0:
        raise InvariantViolation("lam must be non-negative")
    if swap_budget < 0:
        raise InvariantViolation("swap_budget must be non-negative")
    dense = _Dense(ctx)
    S = dense.S
    in_slate = np.zeros_like(dense.valid)
    for ui, slate in enumerate(dense.ranked(ctx.k)):
        in_slate[ui, slate] = True
    e = in_slate.sum(axis=0) @ dense.member_f
    dev = _deviation(e, dense.beta)

    sets, gid = np.unique(dense.member, axis=0, return_inverse=True)
    sets_f, n_sets = sets.astype(float), len(sets)
    out_reps = _reps(S, in_slate, gid, n_sets, np.argmin)
    in_reps = _reps(S, dense.valid & ~in_slate, gid, n_sets, np.argmax)
    rows = np.arange(len(dense.users))[:, None]

    swaps_done = 0
    while swaps_done < swap_budget:
        # The deviation after a swap depends only on the (out, in) group-set
        # pair; a swap within one group set leaves it unchanged (zero gain).
        e2 = e - sets_f[:, None, :] + sets_f[None, :, :]
        new_dev = np.abs(e2 - dense.beta * e2.sum(axis=2, keepdims=True)).sum(axis=2)
        gain = dev - new_dev
        s_out = np.where(out_reps >= 0, S[rows, out_reps], np.nan)
        s_in = np.where(in_reps >= 0, S[rows, in_reps], np.nan)
        loss = s_out[:, :, None] - s_in[:, None, :]
        users, go, gi = np.nonzero((loss <= lam + _TINY) & (gain > _TINY))
        if users.size == 0:
            break
        loss = loss[users, go, gi]
        ratio = gain[go, gi] / np.maximum(loss, _TINY)
        out_i, in_i = out_reps[users, go], in_reps[users, gi]
        b = np.lexsort((in_i, out_i, users, loss, -ratio))[0]
        ui = users[b]
        in_slate[ui, out_i[b]] = False
        in_slate[ui, in_i[b]] = True
        e = e - dense.member_f[out_i[b]] + dense.member_f[in_i[b]]
        dev = float(new_dev[go[b], gi[b]])
        one = slice(ui, ui + 1)
        out_reps[one] = _reps(S[one], in_slate[one], gid, n_sets, np.argmin)
        in_reps[one] = _reps(S[one], dense.valid[one] & ~in_slate[one], gid, n_sets, np.argmax)
        swaps_done += 1

    return _build_slates(dense, _ranked(in_slate, S, S), ctx.k, meta={"swaps": swaps_done, "deviation": dev})


def fairrec(ctx: RerankContext, phi: float) -> RankingSlate:
    """Round-robin allocation guaranteeing each group a max-min exposure share.

    Phase 1 walks the arrival order round-robin; each user adds its
    highest-scored unused item belonging to some group still below the floor
    ``floor(phi * K * |U| / |G|)``.  Phase 2 fills the remaining slots per
    user greedily by score.  Final slates are re-sorted by (score desc,
    item id asc); the achieved minimum group exposure lands in the slate
    metadata.
    """
    if not (0.0 < phi <= 1.0):
        raise InvariantViolation("phi must lie in (0, 1]")
    dense = _Dense(ctx)
    n_users = len(dense.users)
    n_groups = len(dense.groups)
    floor_exposure = math.floor(phi * ctx.k * n_users / n_groups + 1e-9)

    placed = np.zeros(n_users, dtype=int)
    in_slate = np.zeros_like(dense.valid)
    e = np.zeros(n_groups)

    if floor_exposure > 0:
        below = e < floor_exposure
        items_below = dense.member[:, below].any(axis=1)
        while True:
            progress = False
            done = False
            for user in ctx.arrival_order:
                ui = dense.user_pos[user]
                if placed[ui] >= min(ctx.k, dense.n_valid[ui]):
                    continue
                cand = np.where(dense.valid[ui] & ~in_slate[ui] & items_below, dense.S[ui], -np.inf)
                best = int(np.argmax(cand))
                if cand[best] == -np.inf:
                    continue
                placed[ui] += 1
                in_slate[ui, best] = True
                e += dense.member_f[best]
                progress = True
                new_below = e < floor_exposure
                if not new_below.any():
                    done = True
                    break
                if not np.array_equal(new_below, below):
                    below = new_below
                    items_below = dense.member[:, below].any(axis=1)
            if done or not progress:
                break

    for ui in range(n_users):
        # The user's original ranking, minus what phase 1 already placed.
        ranked = dense.view.order[ui]
        fill = ranked[~in_slate[ui, ranked]][: min(ctx.k, dense.n_valid[ui]) - placed[ui]]
        in_slate[ui, fill] = True
        e += dense.member_f[fill].sum(axis=0)

    meta = {"mms_floor": floor_exposure, "min_group_exposure": float(e.min())}
    return _build_slates(dense, _ranked(in_slate, dense.S, dense.S), ctx.k, meta=meta)


def pmmf(
    ctx: RerankContext,
    lam: float,
    eta: float = 0.1,
    on_update: Callable[[DualState], None] | None = None,
) -> RankingSlate:
    """Online dual mirror descent on group prices.

    Each arriving user is ranked by price-adjusted scores (an item pays the
    summed price of its member groups); the observed slate exposure then
    drives a multiplicative price update rescaled onto the ``lam``-budget
    simplex.  ``on_update`` receives the state after every user.
    """
    if lam < 0:
        raise InvariantViolation("lam must be non-negative")
    if eta <= 0:
        raise InvariantViolation("eta must be positive")
    dense = _Dense(ctx)
    state = DualState.uniform(lam, dense.groups, eta)
    mu = np.array([state.prices[g] for g in dense.groups])
    chosen: list[np.ndarray] = [None] * len(dense.users)
    for user in ctx.arrival_order:
        ui = dense.user_pos[user]
        if lam > 0:
            adjusted = dense.S[ui] - dense.member_f @ mu
        else:
            adjusted = dense.S[ui]
        slate = _top_row(dense, ui, adjusted, ctx.k)
        chosen[ui] = slate
        exposure = dense.exposure_of(slate)
        gradient = dense.beta * ctx.k - exposure
        if lam > 0:
            raw = mu * np.exp(-eta * gradient)
            mu = raw * (lam / raw.sum())
        state = DualState(budget=lam, prices={g: float(mu[i]) for i, g in enumerate(dense.groups)}, step=eta)
        state.validate(tol=1e-6)
        if on_update is not None:
            on_update(state)
    return _build_slates(dense, chosen, ctx.k)


def welf(ctx: RerankContext, lam: float, alpha: float = 0.5, iters: int = 50) -> RankingSlate:
    """Frank-Wolfe maximisation of relevance plus concave group welfare.

    Maximises ``sum(pi * s) + lam * sum_g psi(E_g + eps)`` with
    ``psi(x) = x^(1-alpha) / (1-alpha)`` over per-user fractional slates
    (entries in [0, 1], row sums = k).  Each step takes the per-user top-k
    of the gradient as the linear maximiser and averages with step
    ``2 / (t + 2)``.  Duality gaps, the final objective, and polytope
    diagnostics are recorded in the slate metadata.
    """
    if lam < 0:
        raise InvariantViolation("lam must be non-negative")
    if not (0.0 < alpha < 1.0):
        raise InvariantViolation("alpha must lie in (0, 1)")
    if iters < 1:
        raise InvariantViolation("iters must be >= 1")
    eps = 1e-3
    dense = _Dense(ctx)
    pi = _top_mask(dense.S, dense.S, ctx.k, dense.n_valid).astype(float)
    expected_row = np.minimum(ctx.k, dense.n_valid).astype(float)

    exposure = pi.sum(axis=0) @ dense.member_f
    gaps: list[float] = []
    max_row_dev = 0.0
    entry_min, entry_max = 0.0, 1.0
    S0 = np.where(dense.valid, dense.S, 0.0)

    for t in range(1, iters + 1):
        if lam > 0:
            bonus = dense.member_f @ (lam * (exposure + eps) ** (-alpha))
            grad = dense.S + bonus
        else:
            grad = dense.S
        head = _top_mask(grad, dense.S, ctx.k, dense.n_valid).astype(float)
        grad0 = np.where(dense.valid, grad, 0.0)
        gaps.append(float(np.sum(grad0 * (head - pi))))
        gamma = 2.0 / (t + 2.0)
        pi = (1.0 - gamma) * pi + gamma * head
        exposure = pi.sum(axis=0) @ dense.member_f
        max_row_dev = max(max_row_dev, float(np.abs(pi.sum(axis=1) - expected_row).max()))
        entry_min = min(entry_min, float(pi.min()))
        entry_max = max(entry_max, float(pi.max()))

    objective = float(np.sum(pi * S0))
    if lam > 0:
        objective += float(lam * np.sum((exposure + eps) ** (1.0 - alpha) / (1.0 - alpha)))

    primary = np.where(dense.valid, pi, -np.inf)
    chosen = _ranked(_top_mask(primary, dense.S, ctx.k, dense.n_valid), primary, dense.S)
    meta = {
        "duality_gaps": gaps,
        "objective": objective,
        "polytope_max_row_dev": max_row_dev,
        "polytope_entry_min": entry_min,
        "polytope_entry_max": entry_max,
    }
    return _build_slates(dense, chosen, ctx.k, meta=meta)

