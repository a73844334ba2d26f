"""Post-processing re-rankers that trade relevance for group-exposure fairness.

All algorithms consume a :class:`RerankContext` and write a
:class:`~fairrank.core.RankingSlate`'s users x K array of score-matrix
columns directly.  Ties are broken by (score descending, item id ascending)
everywhere, so every algorithm is deterministic; with its fairness knob at
zero each one reduces exactly to :func:`topk`.

Every slate is a top-k under one tie contract: entries rank by a primary
key descending, then by the relevance score descending, then by item id
ascending, and a user's slate holds ``min(K, candidates)`` items.  The
batched kernel (:func:`_top_mask`, :func:`_ranked`) keeps that contract
exactly: one partition finds each row's K-th value and one compare takes
every entry at or above it; only rows that take more than their slate
(ties at that value, or fewer than K candidates) are resolved one by one.
The online algorithms rank one user at a time with :func:`_top_row`: a
1-D partition, then a lexsort of just the entries at or above the K-th
value.  welf's Frank-Wolfe steps write three users x items float buffers
in place: the iterate, the gradient (scores plus the welfare bonus, the
bonus alone at unscored entries) and a scratch array for the kernel's
partition; each step moves the iterate toward a bool top-k mask, under
that mask.  fairrec's round-robin scan resumes each user's ranking where
it last stopped.  Every algorithm reads the user x item arrays of
the :class:`ScoreMatrix` itself (``S``, ``valid``, ``n_valid`` and the
cached ``order``), so every (model, K) run on one matrix shares them, and
the group data that :class:`RerankContext` gathers once from the
catalog's membership table.

``min_regularizer`` and ``pmmf`` are online: they process users strictly in
``arrival_order`` and carry running state, so they must not be parallelised
over users.  The remaining algorithms are order-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Catalog, RankingSlate, ScoreMatrix
from .errors import EmptyCandidates, InvariantViolation

_TINY = 1e-12


@dataclass
class RerankContext:
    """Inputs shared by every re-ranker.

    Construction raises :class:`EmptyCandidates` for a user without
    candidates and gathers the group data: ``groups`` (the catalog's
    ``group_ids``), ``member`` and ``member_f`` (its membership table as
    bool and float, with rows in score-matrix item order, not catalog
    order) and ``beta`` (the target shares, read-only).  ``depth`` lists
    each user's slate size, ``min(k, n_valid)``, by score-matrix row.

    Attributes:
        scores: per-user candidate scores (read-only).
        catalog: entity catalog supplying group membership.
        k: slate size.
        arrival_order: user processing order for online algorithms
            (defaults to ascending user id).
        target_shares: desired exposure share of each group, in
            ``group_ids`` order (defaults to uniform).
        mode: utility weighting, ``"exposure"`` or ``"click"``.
    """

    scores: ScoreMatrix
    catalog: Catalog
    k: int
    arrival_order: list[str] | None = None
    target_shares: np.ndarray | None = None
    mode: str = "exposure"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvariantViolation("slate size K must be positive")
        if self.mode not in ("exposure", "click"):
            raise InvariantViolation(f"unknown mode {self.mode!r}")
        self.scores.validate_against(self.catalog)
        users = self.scores.user_ids
        if self.arrival_order is None:
            self.arrival_order = list(users)
        elif sorted(self.arrival_order) != users:
            raise InvariantViolation("arrival_order must be a permutation of the scored users")
        cat = self.catalog
        self.groups = cat.group_ids
        n = len(self.groups)
        self.beta = np.full(n, 1.0 / n) if self.target_shares is None else np.array(self.target_shares, dtype=float)
        if self.beta.shape != (n,):
            raise InvariantViolation("target_shares must hold one share per catalog group")
        if not (self.beta >= 0).all():  # NaN fails too
            raise InvariantViolation("target shares must be non-negative")
        if abs(sum(self.beta.tolist()) - 1.0) > 1e-9:
            raise InvariantViolation("target shares must sum to 1")
        self.beta.flags.writeable = False
        empty = [users[i] for i in np.flatnonzero(self.scores.n_valid == 0)]
        if empty:
            raise EmptyCandidates(f"users without candidates: {empty[:5]}")
        self.member = cat.member[[cat.item_pos[item] for item in self.scores.item_ids]]
        self.member_f = self.member.astype(float)
        self.depth = np.minimum(self.k, self.scores.n_valid).tolist()


def proportional_shares(catalog: Catalog) -> np.ndarray:
    """Target shares proportional to each group's catalog item count, in ``group_ids`` order.

    Multi-group items count once per membership, matching exposure accounting.
    """
    counts = catalog.member.sum(axis=0)
    return counts / counts.sum()


def _top_mask(primary: np.ndarray, tie: np.ndarray, k: int, n_valid: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mask of each row's ``min(k, n_valid)`` best entries of ``primary``.

    Entries rank by (primary desc, tie desc, column asc); primary must be
    -inf exactly at invalid entries.  Entries at or above the row's k-th
    value are taken; a row where they are more than ``min(k, n_valid)`` (ties
    at the k-th value, or fewer than k valid entries) keeps those above it
    and fills the remaining slots from those equal to it.  The k-th values
    are found by partitioning a copy of ``primary`` in ``scratch``, an array
    of its shape and dtype that is overwritten.
    """
    m = primary.shape[1]
    cut = m - min(k, m)
    np.copyto(scratch, primary)
    scratch.partition(cut, axis=1)
    kth = scratch[:, cut, None]
    take = primary >= kth
    want = np.minimum(k, n_valid)
    if np.count_nonzero(take) == want.sum():  # no row takes fewer than want, so none takes more
        return take
    for r in np.flatnonzero(np.count_nonzero(take, axis=1) > want):
        row, at = primary[r], kth[r, 0]
        take[r] = row > at
        cols = np.flatnonzero(row == at)
        take[r, cols[np.argsort(-tie[r, cols], kind="stable")[: want[r] - np.count_nonzero(take[r])]]] = True
    return take


def _ranked(mask: np.ndarray, primary: np.ndarray, tie: np.ndarray) -> list[np.ndarray]:
    """Each row's masked columns ordered by (primary desc, tie desc, column asc)."""
    rows, cols = np.nonzero(mask)
    order = np.lexsort((cols, -tie[rows, cols], -primary[rows, cols], rows))
    return np.split(cols[order], np.cumsum(mask.sum(axis=1))[:-1])


def _top_row(primary: np.ndarray, tie: np.ndarray, depth: int) -> np.ndarray:
    """One row's first ``depth`` columns by (primary desc, tie desc, column asc).

    ``primary`` must be -inf exactly at invalid entries, and ``depth`` at
    least 1 and at most the number of valid ones.  One partition finds the
    ``depth``-th value; only the entries at or above it are sorted.
    """
    cut = primary.size - depth
    cols = np.flatnonzero(primary >= np.partition(primary, cut)[cut])
    # lexsort is stable, so columns stay ascending within ties.
    return cols[np.lexsort((-tie[cols], -primary[cols]))[:depth]]


def _build_slates(scores: ScoreMatrix, mask: np.ndarray, primary: np.ndarray, k: int, meta: dict) -> RankingSlate:
    """The slate of each row's masked columns, ranked by (primary desc, score desc, column asc), padded with -1."""
    slates = np.full((len(mask), k), -1, dtype=np.intp)
    slates[np.arange(k) < mask.sum(axis=1)[:, None]] = np.concatenate(_ranked(mask, primary, scores.S))
    return RankingSlate(k, slates, scores, meta)


def topk(ctx: RerankContext) -> RankingSlate:
    """Relevance-only baseline: per-user top-k by score, ties by item id."""
    scores, k = ctx.scores, ctx.k
    head = np.pad(scores.order[:, :k], ((0, 0), (0, k - min(k, len(scores.item_ids)))))
    return RankingSlate(k, np.where(np.arange(k) < scores.n_valid[:, None], head, -1), scores)


def min_regularizer(ctx: RerankContext, lam: float = 1.0) -> RankingSlate:
    """Online score adjustment toward the worst-off group.

    Processing users in arrival order, each item's score receives a bonus
    proportional to the gap between the worst-off group's running normalized
    utility and the item's best-off member group.  ``lam`` scales the bonus;
    0 reproduces :func:`topk`.
    """
    if lam < 0:
        raise InvariantViolation("lam must be non-negative")
    scores = ctx.scores
    util = np.zeros(len(ctx.groups))
    chosen = np.full((len(scores.user_ids), ctx.k), -1, dtype=np.intp)
    for t, user in enumerate(ctx.arrival_order, start=1):
        ui = scores.user_pos[user]
        if lam > 0:
            norm = util / max(1.0, t * ctx.k)
            # Utilities are non-negative, so a masked product realises
            # "max over member groups".
            item_pen = (ctx.member * norm).max(axis=1)
            adjusted = scores.S[ui] + lam * (norm.min() - item_pen)
        else:
            adjusted = scores.S[ui]
        slate = _top_row(adjusted, scores.S[ui], ctx.depth[ui])
        chosen[ui, : slate.size] = slate
        # Clamped click weights; exposure mode uses unit weights.
        weights = np.clip(scores.S[ui, slate], 0.0, 1.0) if ctx.mode == "click" else np.ones(slate.size)
        for i, w in zip(slate, weights):
            util += ctx.member_f[i] * w
    return RankingSlate(ctx.k, chosen, scores)


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


def cpfair(ctx: RerankContext, lam: float = 1.0, swap_budget: int = 20) -> RankingSlate:
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
    S, valid = ctx.scores.S, ctx.scores.valid
    top = topk(ctx).slates
    in_slate = np.zeros_like(valid)
    in_slate[np.nonzero(top >= 0)[0], top[top >= 0]] = True
    e = in_slate.sum(axis=0) @ ctx.member_f
    dev = _deviation(e, ctx.beta)

    sets, gid = np.unique(ctx.member, axis=0, return_inverse=True)
    sets_f, n_sets = sets.astype(float), len(sets)
    out_reps = _reps(S, in_slate, gid, n_sets, np.argmin)
    in_reps = _reps(S, valid & ~in_slate, gid, n_sets, np.argmax)
    rows = np.arange(len(S))[:, None]

    swaps_done = 0
    while swaps_done < swap_budget:
        # The deviation after a swap depends only on the (out, in) group-set
        # pair; a swap within one group set leaves it unchanged (zero gain).
        e2 = e - sets_f[:, None, :] + sets_f[None, :, :]
        new_dev = np.abs(e2 - ctx.beta * e2.sum(axis=2, keepdims=True)).sum(axis=2)
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
        e = e - ctx.member_f[out_i[b]] + ctx.member_f[in_i[b]]
        dev = float(new_dev[go[b], gi[b]])
        one = slice(ui, ui + 1)
        out_reps[one] = _reps(S[one], in_slate[one], gid, n_sets, np.argmin)
        in_reps[one] = _reps(S[one], valid[one] & ~in_slate[one], gid, n_sets, np.argmax)
        swaps_done += 1

    return _build_slates(ctx.scores, in_slate, S, ctx.k, {"swaps": swaps_done, "deviation": dev})


def fairrec(ctx: RerankContext, phi: float = 0.5) -> RankingSlate:
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
    scores = ctx.scores
    S, valid, n_valid = scores.S, scores.valid, scores.n_valid
    n_users = len(scores.user_ids)
    n_groups = len(ctx.groups)
    floor_exposure = math.floor(phi * ctx.k * n_users / n_groups + 1e-9)

    placed = [0] * n_users
    in_slate = np.zeros_like(valid)
    e = np.zeros(n_groups)

    if floor_exposure > 0:
        # Each user's scan of its ranking resumes at a cursor: every entry it
        # passed was placed or in no group below the floor, and neither ever
        # stops holding, so the first candidate is never behind the cursor.
        rows = [scores.user_pos[user] for user in ctx.arrival_order]
        cursor, ends = [0] * n_users, n_valid.tolist()
        n_below = n_groups
        items_below = ctx.member.any(axis=1)
        progress = True
        while progress and n_below:
            progress = False
            for ui in rows:
                if placed[ui] >= ctx.depth[ui]:
                    continue
                ok = items_below[scores.order[ui, cursor[ui] : ends[ui]]]
                if not ok.any():
                    cursor[ui] = ends[ui]
                    continue
                cursor[ui] += int(ok.argmax()) + 1
                best = scores.order[ui, cursor[ui] - 1]
                placed[ui] += 1
                in_slate[ui, best] = True
                e += ctx.member_f[best]
                progress = True
                below = e < floor_exposure
                if np.count_nonzero(below) < n_below:
                    n_below = np.count_nonzero(below)
                    if not n_below:
                        break
                    items_below = ctx.member[:, below].any(axis=1)

    for ui in range(n_users):
        # The user's original ranking, minus what phase 1 already placed.
        ranked = scores.order[ui]
        fill = ranked[~in_slate[ui, ranked]][: ctx.depth[ui] - placed[ui]]
        in_slate[ui, fill] = True
        e += ctx.member_f[fill].sum(axis=0)

    meta = {"mms_floor": floor_exposure, "min_group_exposure": float(e.min())}
    return _build_slates(scores, in_slate, S, ctx.k, meta)


def pmmf(
    ctx: RerankContext,
    lam: float = 1.0,
    eta: float = 0.1,
    on_update: Callable[[np.ndarray], None] | None = None,
) -> RankingSlate:
    """Online dual mirror descent on group prices.

    Each arriving user is ranked by price-adjusted scores (an item pays the
    summed price of its member groups); the observed slate exposure then
    drives a multiplicative price update rescaled onto the ``lam``-budget
    simplex.  ``on_update`` receives the read-only price array (in
    ``groups`` order) after every user.
    """
    if lam < 0:
        raise InvariantViolation("lam must be non-negative")
    if eta <= 0:
        raise InvariantViolation("eta must be positive")
    scores, n_groups = ctx.scores, len(ctx.groups)
    mu = np.full(n_groups, lam / n_groups if lam > 0 else 0.0)
    mu.flags.writeable = False
    chosen = np.full((len(scores.user_ids), ctx.k), -1, dtype=np.intp)
    for user in ctx.arrival_order:
        ui = scores.user_pos[user]
        if lam > 0:
            adjusted = scores.S[ui] - ctx.member_f @ mu
        else:
            adjusted = scores.S[ui]
        slate = _top_row(adjusted, scores.S[ui], ctx.depth[ui])
        chosen[ui, : slate.size] = slate
        gradient = ctx.beta * ctx.k - ctx.member_f[slate].sum(axis=0)
        if lam > 0:
            raw = mu * np.exp(-eta * gradient)
            mu = raw * (lam / raw.sum())
            mu.flags.writeable = False
        prices = mu.tolist()
        # NaN passes the comparisons below: an overflowing step (too large an eta) leaves NaN prices.
        if not np.isfinite(mu).all() or abs(sum(prices) - lam) > 1e-6 or min(prices) < 0 or (lam == 0 and any(prices)):
            raise InvariantViolation(f"group prices {prices} left the simplex of budget {lam} at step size eta={eta}")
        if on_update is not None:
            on_update(mu)
    return RankingSlate(ctx.k, chosen, scores)


def welf(ctx: RerankContext, lam: float = 1.0, alpha: float = 0.5, iters: int = 50) -> RankingSlate:
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
    S, valid, n_valid = ctx.scores.S, ctx.scores.valid, ctx.scores.n_valid
    invalid = ~valid
    # The only users x items float buffers, each written in place: the
    # fractional slates pi, the gradient and a scratch array for the
    # partition copies, the gap terms and the objective.  The gradient is
    # where(valid, S, 0) + bonus, written as S + bonus with bonus copied over
    # its invalid entries, where the gap's factor head - pi is +0.0.  The
    # linear maximiser head is a bool mask, and pi gains gamma where it is
    # set; with lam == 0 head is the initial top-k at every step.  No product
    # reads S where it is -inf.
    scratch, grad = np.empty_like(S), np.empty_like(S)
    head = _top_mask(S, S, ctx.k, n_valid, scratch)
    pi = head.astype(float)
    if lam == 0:
        np.copyto(grad, S)
        np.copyto(grad, 0.0, where=invalid)
    expected_row = np.array(ctx.depth, dtype=float)

    exposure = pi.sum(axis=0) @ ctx.member_f
    gaps: list[float] = []
    max_row_dev = 0.0
    entry_min, entry_max = 0.0, 1.0

    for t in range(1, iters + 1):
        if lam > 0:
            bonus = ctx.member_f @ (lam * (exposure + eps) ** (-alpha))
            head = _top_mask(np.add(S, bonus, out=grad), S, ctx.k, n_valid, scratch)
            np.copyto(grad, bonus, where=invalid)
        np.subtract(head, pi, out=scratch)
        gaps.append(float(np.sum(np.multiply(grad, scratch, out=scratch))))
        gamma = 2.0 / (t + 2.0)
        pi *= 1.0 - gamma
        np.add(pi, gamma, out=pi, where=head)
        exposure = pi.sum(axis=0) @ ctx.member_f
        max_row_dev = max(max_row_dev, float(np.abs(pi.sum(axis=1) - expected_row).max()))
        entry_min = min(entry_min, float(pi.min()))
        entry_max = max(entry_max, float(pi.max()))

    scratch.fill(0.0)
    objective = float(np.sum(np.multiply(pi, S, out=scratch, where=valid)))
    if lam > 0:
        objective += float(lam * np.sum((exposure + eps) ** (1.0 - alpha) / (1.0 - alpha)))

    np.copyto(pi, -np.inf, where=invalid)  # pi is now the primary key of the final top-k
    meta = {
        "duality_gaps": gaps,
        "objective": objective,
        "polytope_max_row_dev": max_row_dev,
        "polytope_entry_min": entry_min,
        "polytope_entry_max": entry_max,
    }
    return _build_slates(ctx.scores, _top_mask(pi, S, ctx.k, n_valid, scratch), pi, ctx.k, meta)

