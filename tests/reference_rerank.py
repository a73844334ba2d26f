"""Per-row reference implementations of the batched re-ranking kernels.

These are the loop versions the vectorised code in ``fairrank.fair_rerank``
and ``fairrank.metrics`` replaced: a dense view rebuilt from the score rows
on every call, one ``lexsort`` per user slate, group-set keys as tuples, and
a full per-user sort for the original ranking.  They build slates in the
string form ``reference_metrics.IdSlates`` (user -> item ids).  Tests
require the fast code to reproduce them exactly, slates and diagnostics
alike.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from fairrank.core import DualState, ScoreMatrix
from fairrank.errors import EmptyCandidates, InvariantViolation, UndefinedMetric, UnknownEntity
from fairrank.fair_rerank import RerankContext, _deviation
from fairrank.metrics import _log2_discount
from reference_metrics import IdSlates, groups_of

_TINY = 1e-12


def top_slate(primary: np.ndarray, tie: np.ndarray | None, depth: int) -> np.ndarray:
    """The first ``depth`` columns by (primary desc, tie desc, column asc)."""
    idx = np.arange(primary.size)
    order = np.lexsort((idx, -primary)) if tie is None else np.lexsort((idx, -tie, -primary))
    return order[:depth]


class _Dense:
    """Dense user x item view of a score matrix with group membership."""

    def __init__(self, ctx: RerankContext) -> None:
        self.users = sorted(ctx.scores.users())
        item_set: set[str] = set()
        for u in self.users:
            item_set.update(ctx.scores.row(u))
        self.items = sorted(item_set)
        self.groups = sorted(ctx.catalog.groups)
        self.user_pos = {u: i for i, u in enumerate(self.users)}
        self.item_pos = {it: i for i, it in enumerate(self.items)}
        self.group_pos = {g: i for i, g in enumerate(self.groups)}

        n_u, n_i, n_g = len(self.users), len(self.items), len(self.groups)
        self.S = np.full((n_u, n_i), -np.inf)
        self.valid = np.zeros((n_u, n_i), dtype=bool)
        for u in self.users:
            ui = self.user_pos[u]
            for item, s in ctx.scores.row(u).items():
                ii = self.item_pos[item]
                self.S[ui, ii] = s
                self.valid[ui, ii] = True
        self.n_valid = self.valid.sum(axis=1)
        empty = [self.users[i] for i in np.flatnonzero(self.n_valid == 0)]
        if empty:
            raise EmptyCandidates(f"users without candidates: {empty[:5]}")

        self.member = np.zeros((n_i, n_g), dtype=bool)
        for item in self.items:
            for g in groups_of(ctx.catalog, item):
                self.member[self.item_pos[item], self.group_pos[g]] = True
        self.member_f = self.member.astype(float)
        self.beta = np.array([ctx.target_shares[g] for g in self.groups])
        self._idx = np.arange(n_i)
        # Clamped click weights; exposure mode uses unit weights.
        if ctx.mode == "click":
            self.W = np.where(self.valid, np.clip(self.S, 0.0, 1.0), 0.0)
        else:
            self.W = self.valid.astype(float)
        self.k = ctx.k

    def top_slate(self, ui: int, primary: np.ndarray, tie: np.ndarray | None = None) -> np.ndarray:
        """Indices of the top-k entries of ``primary`` for user row ``ui``.

        Primary must be -inf at invalid entries.  Ties fall back to ``tie``
        (descending) and then item id (ascending).
        """
        return top_slate(primary, tie, min(self.k, int(self.n_valid[ui])))

    def slate_of(self, ui: int, indices: Sequence[int]) -> list[str]:
        return [self.items[i] for i in indices]

    def exposure_of(self, indices: Sequence[int]) -> np.ndarray:
        """Per-group exposure counts of a slate (each membership credited once)."""
        e = np.zeros(len(self.groups))
        for i in indices:
            e += self.member_f[i]
        return e


def _build_slates(dense: _Dense, per_user: Mapping[int, Sequence[int]], k: int, meta: dict | None = None) -> IdSlates:
    slates = {dense.users[ui]: dense.slate_of(ui, idxs) for ui, idxs in sorted(per_user.items())}
    return IdSlates(k=k, slates=slates, meta=meta or {})


def topk(ctx: RerankContext) -> IdSlates:
    """Relevance-only baseline: per-user top-k by score, ties by item id."""
    dense = _Dense(ctx)
    chosen = {ui: dense.top_slate(ui, dense.S[ui]) for ui in range(len(dense.users))}
    return _build_slates(dense, chosen, ctx.k)


def min_regularizer(ctx: RerankContext, lam: float) -> IdSlates:
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
    chosen: dict[int, np.ndarray] = {}
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
        slate = dense.top_slate(ui, adjusted, tie=dense.S[ui])
        chosen[ui] = slate
        for i in slate:
            util += dense.member_f[i] * dense.W[ui, i]
    return _build_slates(dense, chosen, ctx.k)


def _group_key(member_row: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(member_row))


def _out_reps(dense: _Dense, ui: int, slate: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Per member-group-set, the slate item with minimal (score, id)."""
    reps: dict[tuple[int, ...], int] = {}
    row = dense.S[ui]
    for i in sorted(slate):
        key = _group_key(dense.member[i])
        cur = reps.get(key)
        if cur is None or row[i] < row[cur]:
            reps[key] = i
    return reps


def _in_reps(dense: _Dense, ui: int, in_slate: np.ndarray) -> dict[tuple[int, ...], int]:
    """Per member-group-set, the non-slate candidate with maximal (score, -id)."""
    reps: dict[tuple[int, ...], int] = {}
    row = dense.S[ui]
    for i in np.flatnonzero(dense.valid[ui] & ~in_slate):
        key = _group_key(dense.member[i])
        cur = reps.get(key)
        if cur is None or row[i] > row[cur]:
            reps[key] = i
    return reps


def cpfair(ctx: RerankContext, lam: float, swap_budget: int) -> IdSlates:
    """Greedy knapsack-style swaps that shrink the group-exposure deviation.

    Starting from the :func:`topk` slates, repeatedly applies the single
    (user, out-item, in-item) swap with the best deviation reduction per
    unit of relevance lost, subject to a per-swap relevance-loss cap ``lam``
    and a total ``swap_budget``.  Ties prefer smaller loss, then the
    lexicographically smallest (user, out item, in item).  Modified slates
    are re-sorted by (score desc, item id asc).
    """
    if lam < 0:
        raise InvariantViolation("lam must be non-negative")
    if swap_budget < 0:
        raise InvariantViolation("swap_budget must be non-negative")
    dense = _Dense(ctx)
    n_users = len(dense.users)
    slates: dict[int, list[int]] = {}
    in_slate = np.zeros_like(dense.valid)
    for ui in range(n_users):
        slate = list(dense.top_slate(ui, dense.S[ui]))
        slates[ui] = slate
        in_slate[ui, slate] = True

    e = np.zeros(len(dense.groups))
    for slate in slates.values():
        e += dense.exposure_of(slate)
    dev = _deviation(e, dense.beta)

    # Candidate representatives per user; only the swapped user's change.
    out_reps = {ui: _out_reps(dense, ui, slates[ui]) for ui in range(n_users)}
    in_reps = {ui: _in_reps(dense, ui, in_slate[ui]) for ui in range(n_users)}

    swaps_done = 0
    while swaps_done < swap_budget:
        # The deviation delta depends only on the (out, in) group-set pair,
        # so it is computed once per pair and iteration.
        delta_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, float]] = {}
        best = None  # (ratio, loss, ui, out_i, in_i, new_dev)
        for ui in range(n_users):
            row = dense.S[ui]
            for out_key in sorted(out_reps[ui]):
                out_i = out_reps[ui][out_key]
                for in_key in sorted(in_reps[ui]):
                    if in_key == out_key:
                        continue
                    in_i = in_reps[ui][in_key]
                    loss = row[out_i] - row[in_i]
                    if loss > lam + _TINY:
                        continue
                    pair = (out_key, in_key)
                    cached = delta_cache.get(pair)
                    if cached is None:
                        e2 = e - dense.member_f[out_i] + dense.member_f[in_i]
                        new_dev = _deviation(e2, dense.beta)
                        cached = (dev - new_dev, new_dev)
                        delta_cache[pair] = cached
                    gain, new_dev = cached
                    if gain <= _TINY:
                        continue
                    ratio = gain / max(loss, _TINY)
                    cand = (ratio, -loss, -ui, -out_i, -in_i)
                    if best is None or cand > (best[0], -best[1], -best[2], -best[3], -best[4]):
                        best = (ratio, loss, ui, out_i, in_i, new_dev)
        if best is None:
            break
        _, _, ui, out_i, in_i, new_dev = best
        slates[ui].remove(out_i)
        slates[ui].append(in_i)
        in_slate[ui, out_i] = False
        in_slate[ui, in_i] = True
        e = e - dense.member_f[out_i] + dense.member_f[in_i]
        dev = new_dev
        out_reps[ui] = _out_reps(dense, ui, slates[ui])
        in_reps[ui] = _in_reps(dense, ui, in_slate[ui])
        swaps_done += 1

    chosen = {
        ui: sorted(slate, key=lambda i: (-dense.S[ui, i], i))
        for ui, slate in slates.items()
    }
    return _build_slates(dense, chosen, ctx.k, meta={"swaps": swaps_done, "deviation": dev})


def fairrec(ctx: RerankContext, phi: float) -> IdSlates:
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

    slates: dict[int, list[int]] = {ui: [] for ui in range(n_users)}
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
                if len(slates[ui]) >= min(ctx.k, int(dense.n_valid[ui])):
                    continue
                cand = np.where(dense.valid[ui] & ~in_slate[ui] & items_below, dense.S[ui], -np.inf)
                best = int(np.argmax(cand))
                if cand[best] == -np.inf:
                    continue
                slates[ui].append(best)
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
        depth = min(ctx.k, int(dense.n_valid[ui]))
        if len(slates[ui]) >= depth:
            continue
        cand = np.where(dense.valid[ui] & ~in_slate[ui], dense.S[ui], -np.inf)
        order = np.lexsort((dense._idx, -cand))
        for i in order:
            if len(slates[ui]) >= depth:
                break
            if cand[i] == -np.inf:
                break
            slates[ui].append(int(i))
            in_slate[ui, i] = True
            e += dense.member_f[i]

    chosen = {ui: sorted(slate, key=lambda i: (-dense.S[ui, i], i)) for ui, slate in slates.items()}
    meta = {"mms_floor": floor_exposure, "min_group_exposure": float(e.min())}
    return _build_slates(dense, chosen, ctx.k, meta=meta)


def pmmf(
    ctx: RerankContext,
    lam: float,
    eta: float = 0.1,
    on_update: Callable[[DualState], None] | None = None,
) -> IdSlates:
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
    chosen: dict[int, np.ndarray] = {}
    for user in ctx.arrival_order:
        ui = dense.user_pos[user]
        if lam > 0:
            adjusted = dense.S[ui] - dense.member_f @ mu
        else:
            adjusted = dense.S[ui]
        slate = dense.top_slate(ui, adjusted, tie=dense.S[ui])
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


def welf(ctx: RerankContext, lam: float, alpha: float = 0.5, iters: int = 50) -> IdSlates:
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
    n_users, n_items = dense.S.shape

    pi = np.zeros((n_users, n_items))
    for ui in range(n_users):
        pi[ui, dense.top_slate(ui, dense.S[ui])] = 1.0
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
        head = np.zeros_like(pi)
        for ui in range(n_users):
            head[ui, dense.top_slate(ui, grad[ui], tie=dense.S[ui])] = 1.0
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

    chosen: dict[int, np.ndarray] = {}
    for ui in range(n_users):
        primary = np.where(dense.valid[ui], pi[ui], -np.inf)
        chosen[ui] = dense.top_slate(ui, primary, tie=dense.S[ui])
    meta = {
        "duality_gaps": gaps,
        "objective": objective,
        "polytope_max_row_dev": max_row_dev,
        "polytope_entry_min": entry_min,
        "polytope_entry_max": entry_max,
    }
    return _build_slates(dense, chosen, ctx.k, meta=meta)


def welf_objective(ctx: RerankContext, slates: IdSlates, lam: float, alpha: float = 0.5) -> float:
    """Welfare objective of a deterministic slate assignment (for reference checks)."""
    eps = 1e-3
    dense = _Dense(ctx)
    total = 0.0
    exposure = np.zeros(len(dense.groups))
    for user, items in slates.slates.items():
        ui = dense.user_pos[user]
        for item in items:
            ii = dense.item_pos.get(item)
            if ii is None or not dense.valid[ui, ii]:
                raise UnknownEntity(f"slate item {item!r} has no score for user {user!r}")
            total += dense.S[ui, ii]
            exposure += dense.member_f[ii]
    if lam > 0:
        total += float(lam * np.sum((exposure + eps) ** (1.0 - alpha) / (1.0 - alpha)))
    return total


def _original_topk(row: Mapping[str, float], k: int) -> list[str]:
    return [item for item, _ in sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]


def rerank_quality(new_slates: IdSlates, orig_scores: ScoreMatrix, k: int) -> tuple[float, float]:
    """Re-ranking quality vs. the score-ordered original top-k.

    Returns ``(r_ndcg, u_loss)`` averaged over users: the DCG ratio with
    original scores as gains, and the relative drop in retained score mass.
    """
    if k > new_slates.k:
        raise InvariantViolation(f"k={k} exceeds slate size {new_slates.k}")
    r_vals = []
    loss_vals = []
    for user in sorted(new_slates.slates):
        row = orig_scores.row(user)
        new_items = new_slates.slates[user][:k]
        for item in new_items:
            if item not in row:
                raise UnknownEntity(f"re-ranked item {item!r} has no original score for {user!r}")
        orig_items = _original_topk(row, k)
        denom_dcg = sum(row[item] * _log2_discount(r) for r, item in enumerate(orig_items, start=1))
        denom_sum = sum(row[item] for item in orig_items)
        if denom_dcg == 0.0 or denom_sum == 0.0:
            raise UndefinedMetric(f"zero original top-{k} mass for user {user!r}")
        num_dcg = sum(row[item] * _log2_discount(r) for r, item in enumerate(new_items, start=1))
        num_sum = sum(row[item] for item in new_items)
        r_vals.append(num_dcg / denom_dcg)
        loss_vals.append(1.0 - num_sum / denom_sum)
    if not r_vals:
        raise UndefinedMetric("no users to evaluate")
    return float(np.mean(r_vals)), float(np.mean(loss_vals))


