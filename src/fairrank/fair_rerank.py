"""Post-processing re-rankers that trade relevance for group-exposure fairness.

All algorithms consume a :class:`RerankContext` and write a
:class:`~fairrank.core.RankingSlate`'s users x K array of score-matrix
columns directly.  Ties are broken by (score descending, item id ascending)
everywhere, so every algorithm is deterministic; with its fairness knob at
zero each one reduces exactly to :func:`topk`.

Every slate is a top-k under one tie contract: entries rank by a primary
key descending, then by the relevance score descending, then by item id
ascending, and a user's slate holds ``min(K, candidates)`` items.  The
order-free algorithms read their slates from positions of
``ScoreMatrix.order``, which ranks each row by that contract's last two
keys: :func:`_head` takes each row's first ``min(K, candidates)``, cpfair
rewrites a swapped user's row in ranking order, fairrec marks each pick at
its ranking position, and welf sorts a prefix of the ranking stably by its
final iterate.  The online algorithms rank one user at a time with
:func:`_top_row`: a 1-D partition, then a lexsort of just the entries at or
above the K-th value.  welf's Frank-Wolfe steps work on a band of each
row's ranking: the prefix of ``order`` that holds every item the step's
welfare bonus can lift into the row's top k, widened as the bonus spreads;
:func:`_top_mask` takes its top k, and one users x items buffer, zero
outside it, keeps the rounding of full-layout sums.  fairrec's round-robin
scan resumes each user's ranking where it last stopped.  Items with one set of member groups
are interchangeable for group accounting, so cpfair and min_regularizer
work per group set (:attr:`RerankContext.group_sets`): min_regularizer's
bonus is one value per set, and cpfair keeps one out-item and one in-item
per (user, set) and one best user per (out set, in set) pair.  Every
algorithm reads the user x item arrays of the :class:`ScoreMatrix` itself
(``S``, ``valid``, ``n_valid`` and the cached ``order``), so every
(model, K) run on one matrix shares them, and the group data that
:class:`RerankContext` gathers once from the catalog's membership table.

``min_regularizer`` and ``pmmf`` are online: they process users strictly in
``arrival_order`` and carry running state, so they must not be parallelised
over users.  The remaining algorithms are order-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import Catalog, RankingSlate, ScoreMatrix, group_sets, sequential_sum, simplex_tolerance
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
    each user's slate size, ``min(k, n_valid)``, by score-matrix row, and
    ``group_sets`` the distinct rows of ``member``, on first use.

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

    @cached_property
    def group_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sets, set_of)``: the distinct rows of ``member`` in ascending order, and each item's row among them.

        Items with one member-group set are interchangeable for group
        accounting; the table (:func:`core.group_sets`) is computed on first use.
        """
        return group_sets(self.member)


def proportional_shares(catalog: Catalog) -> np.ndarray:
    """Target shares proportional to each group's catalog item count, in ``group_ids`` order.

    Multi-group items count once per membership, matching exposure accounting.
    """
    counts = catalog.member.sum(axis=0)
    return counts / counts.sum()


def _finite(**params: float) -> None:
    """Refuse an infinite value of any of ``params``: a re-ranker scaling by it would rank on inf * 0 = NaN."""
    for name, value in params.items():
        if value == math.inf:
            raise InvariantViolation(f"{name} must be finite")


def _top_mask(primary: np.ndarray, k: int, n_valid: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mask of each row's ``min(k, n_valid)`` best entries of ``primary``, ties to the lowest column.

    ``primary`` must be -inf exactly at invalid entries.  Entries at or above
    the row's k-th value are taken; a row where they are more than
    ``min(k, n_valid)`` (ties at the k-th value, or fewer than k valid
    entries) keeps those above it and fills the rest from those equal to it,
    lowest column first.  The k-th values are found by partitioning a copy of
    ``primary`` in ``scratch``, an array of its shape and dtype that is overwritten.
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
        take[r, np.flatnonzero(row == at)[: want[r] - np.count_nonzero(take[r])]] = True
    return take


def _head(ranked: np.ndarray, k: int, depth) -> np.ndarray:
    """Each row's first ``depth`` entries of ``ranked``, as a users x k array padded with -1."""
    w = min(k, ranked.shape[1])
    head = np.full((len(ranked), k), -1, dtype=np.intp)
    head[:, :w] = np.where(np.arange(w) < np.asarray(depth)[:, None], ranked[:, :w], -1)
    return head


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


def topk(ctx: RerankContext) -> RankingSlate:
    """Relevance-only baseline: per-user top-k by score, ties by item id."""
    return RankingSlate(ctx.k, _head(ctx.scores.order, ctx.k, ctx.depth), ctx.scores)


def min_regularizer(ctx: RerankContext, lam: float = 1.0) -> RankingSlate:
    """Online score adjustment toward the worst-off group.

    Processing users in arrival order, each item's score receives a bonus
    proportional to the gap between the worst-off group's running normalized
    utility and the item's best-off member group.  ``lam`` scales the bonus;
    0 reproduces :func:`topk`.

    Items with one member-group set get one bonus, so each user's bonus is
    computed once per group set of :attr:`RerankContext.group_sets` and
    gathered onto the items.  A slate's utility is one
    :func:`~fairrank.core.sequential_sum` that adds its items' weighted
    memberships to the running utility in slate order, one at a time.
    """
    if not lam >= 0:  # NaN fails too
        raise InvariantViolation("lam must be non-negative")
    _finite(lam=lam)
    scores = ctx.scores
    sets, set_of = ctx.group_sets
    util = np.zeros(len(ctx.groups))
    chosen = np.full((len(scores.user_ids), ctx.k), -1, dtype=np.intp)
    for t, user in enumerate(ctx.arrival_order, start=1):
        ui = scores.user_pos[user]
        norm = util / max(1.0, t * ctx.k)
        # Utilities are non-negative, so a masked product realises "max over
        # member groups".  With lam 0 the bonus is -0.0, which leaves S as it is.
        set_pen = (sets * norm).max(axis=1)
        adjusted = scores.S[ui] + (lam * (norm.min() - set_pen))[set_of]
        slate = _top_row(adjusted, scores.S[ui], ctx.depth[ui])
        chosen[ui, : slate.size] = slate
        # Click mode weights each item by its score clamped into [0, 1], exposure mode by 1.
        credit = ctx.member_f[slate].T
        if ctx.mode == "click":
            credit = credit * np.clip(scores.S[ui, slate], 0.0, 1.0)
        util = sequential_sum(np.column_stack([util, credit]))
    return RankingSlate(ctx.k, chosen, scores)


# ---------------------------------------------------------------------------
# Greedy swap re-ranking (knapsack-style)
# ---------------------------------------------------------------------------


def _deviation(e: np.ndarray, beta: np.ndarray) -> float:
    return float(np.abs(e - beta * e.sum()).sum())


def _set_reps(reps: np.ndarray, rows, cols: np.ndarray, set_of: np.ndarray, *ties: np.ndarray) -> None:
    """Give each (row, group set) of the entries ``(rows, cols)`` whose rep is still -1 its first entry's column.

    Entries of one (row, set) rank by the ``np.lexsort`` keys ``ties``
    (the last most significant), then by their place in ``cols``.
    """
    key = rows * reps.shape[1] + set_of[cols]
    by = np.lexsort((*ties, key))
    by = by[reps.flat[key[by]] < 0]
    first = np.ones(by.size, dtype=bool)
    np.not_equal(key[by[1:]], key[by[:-1]], out=first[1:])
    reps.flat[key[by[first]]] = cols[by[first]]


def _rep_scores(S: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The scores of ``reps`` (columns of ``S``'s rows), NaN where a rep is -1."""
    return np.where(reps >= 0, np.take_along_axis(S, reps, axis=-1), np.nan)


def _best_users(loss: np.ndarray, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Per column of a users x pairs ``loss`` array, the user of the smallest loss at most ``cap`` and that loss.

    Ties go to the lowest user; a column without such a user gets -1.  NaN
    marks a user without the pair, and fails the cap.
    """
    ok = loss <= cap
    low = np.where(ok, loss, np.inf).min(axis=0)
    user = np.argmax(ok & (loss == low), axis=0)
    user[~ok.any(axis=0)] = -1
    return user, loss[user, np.arange(loss.shape[1])]


def cpfair(ctx: RerankContext, lam: float = 1.0, swap_budget: int = 20) -> RankingSlate:
    """Greedy knapsack-style swaps that shrink the group-exposure deviation.

    Starting from the :func:`topk` slates, repeatedly applies the single
    (user, out-item, in-item) swap with the best deviation reduction per
    unit of relevance lost, subject to a per-swap relevance-loss cap ``lam``
    (inf lifts it) and a total ``swap_budget``.  Ties prefer smaller loss,
    then the lexicographically smallest (user, out item, in item).
    Modified slates are re-sorted by (score desc, item id asc).

    Items with the same member-group set are interchangeable for the
    deviation, so each user offers one out-item per group set (the lowest
    scored slate item, lowest column on ties) and one in-item per group set
    (the first candidate of its ranking ``order`` past its slate).  The
    gain of a swap depends only on its (out set, in set) pair, and its ratio
    ``gain / max(loss, tiny)`` never rises with the loss, so within a pair
    the best swap is that of the candidate user with the smallest (loss,
    user).  A sets x sets table keeps that user per pair, and each swap is
    chosen among those pair-bests.  A swap changes one user's representatives: the pairs
    that user was best in are recomputed over all users, and every other
    pair compares its best against that user's new loss.  Nothing of users
    x sets^2 is held.
    """
    if not lam >= 0:  # NaN fails too
        raise InvariantViolation("lam must be non-negative")
    if swap_budget < 0:
        raise InvariantViolation("swap_budget must be non-negative")
    scores = ctx.scores
    S, order, n_valid = scores.S, scores.order, scores.n_valid
    sets, set_of = ctx.group_sets
    sets_f, n_sets = sets.astype(float), len(sets)
    n_users, m = S.shape
    depth = np.array(ctx.depth)
    cap = lam + _TINY

    # The topk slates: each row's first depth columns of its ranking.
    slates = _head(order, ctx.k, depth)
    rows, cols = np.nonzero(slates >= 0)[0], slates[slates >= 0]
    in_slate = np.zeros(S.shape, dtype=bool)
    in_slate[rows, cols] = True
    e = in_slate.sum(axis=0) @ ctx.member_f
    dev = _deviation(e, ctx.beta)

    # Out-reps: per (user, set), the slate item of lowest (score, column).
    out_reps = np.full((n_users, n_sets), -1)
    _set_reps(out_reps, rows, cols, set_of, cols, S[rows, cols])
    # In-reps: per (user, set), the first candidate in the ranking past the
    # slate, found on blocks of the ranking that double until every row has
    # every set or no candidate left.
    in_reps = np.full((n_users, n_sets), -1)
    pending, lo, hi = np.arange(n_users), 0, min(m, 2 * ctx.k)
    while pending.size:
        at = np.arange(lo, hi)
        r, c = np.nonzero((at >= depth[pending, None]) & (at < n_valid[pending, None]))
        _set_reps(in_reps, pending[r], order[pending[r], lo + c], set_of)
        done = (hi >= n_valid[pending]) | (in_reps[pending] >= 0).all(axis=1)
        pending, lo, hi = pending[~done], hi, min(m, 2 * hi)

    s_out, s_in = _rep_scores(S, out_reps), _rep_scores(S, in_reps)
    # Per (out set, in set), the user of the smallest loss within the cap.
    best = np.empty((n_sets, n_sets), dtype=np.intp)
    best_loss = np.empty((n_sets, n_sets))
    for go in range(n_sets):
        best[go], best_loss[go] = _best_users(s_out[:, go, None] - s_in, cap)

    swaps_done = 0
    while swaps_done < swap_budget:
        # The deviation after a swap depends only on the (out, in) group-set
        # pair; a swap within one group set leaves it unchanged (zero gain).
        e2 = e - sets_f[:, None, :] + sets_f[None, :, :]
        new_dev = np.abs(e2 - ctx.beta * e2.sum(axis=2, keepdims=True)).sum(axis=2)
        gain = dev - new_dev
        go, gi = np.nonzero((best >= 0) & (gain > _TINY))
        if go.size == 0:
            break
        who, loss = best[go, gi], best_loss[go, gi]
        ratio = gain[go, gi] / np.maximum(loss, _TINY)
        out_i, in_i = out_reps[who, go], in_reps[who, gi]
        b = np.lexsort((in_i, out_i, who, loss, -ratio))[0]
        ui = who[b]
        in_slate[ui, out_i[b]] = False
        in_slate[ui, in_i[b]] = True
        e = e - ctx.member_f[out_i[b]] + ctx.member_f[in_i[b]]
        dev = float(new_dev[go[b], gi[b]])
        swaps_done += 1

        # The swapped user's representatives, from its row alone.
        out_reps[ui], in_reps[ui] = -1, -1
        slate = np.flatnonzero(in_slate[ui])
        _set_reps(out_reps, ui, slate, set_of, slate, S[ui, slate])
        ranked = order[ui, : n_valid[ui]]
        slates[ui, : depth[ui]] = ranked[in_slate[ui, ranked]]
        _set_reps(in_reps, ui, ranked[~in_slate[ui, ranked]], set_of)
        s_out[ui], s_in[ui] = _rep_scores(S[ui], out_reps[ui]), _rep_scores(S[ui], in_reps[ui])

        # Pairs the user was best in are recomputed over all users; every
        # other pair compares its best against the user's new loss.
        stale = best == ui
        loss = s_out[ui, :, None] - s_in[ui]
        better = (loss <= cap) & ~stale & ((best < 0) | (loss < best_loss) | ((loss == best_loss) & (ui < best)))
        best[better], best_loss[better] = ui, loss[better]
        go, gi = np.nonzero(stale)
        for at in range(0, go.size, n_sets):
            pairs = go[at : at + n_sets], gi[at : at + n_sets]
            best[pairs], best_loss[pairs] = _best_users(s_out[:, pairs[0]] - s_in[:, pairs[1]], cap)

    return RankingSlate(ctx.k, slates, scores, {"swaps": swaps_done, "deviation": dev})


def fairrec(ctx: RerankContext, phi: float = 0.5) -> RankingSlate:
    """Round-robin allocation guaranteeing each group a max-min exposure share.

    Phase 1 walks the arrival order round-robin; each user adds its
    highest-scored unused item belonging to some group still below the floor
    ``floor(phi * K * |U| / |G|)``.  Phase 2 fills the remaining slots per
    user greedily by score.  Each slate lists its items in ranking order
    (score desc, item id asc); the achieved minimum group exposure lands in
    the slate metadata.
    """
    if not (0.0 < phi <= 1.0):
        raise InvariantViolation("phi must lie in (0, 1]")
    scores = ctx.scores
    order, n_valid = scores.order, scores.n_valid
    n_users, m = order.shape
    n_groups = len(ctx.groups)
    floor_exposure = math.floor(phi * ctx.k * n_users / n_groups + 1e-9)

    placed = [0] * n_users
    taken = np.zeros(order.shape, dtype=bool)  # by ranking position
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
                ok = items_below[order[ui, cursor[ui] : ends[ui]]]
                if not ok.any():
                    cursor[ui] = ends[ui]
                    continue
                cursor[ui] += int(ok.argmax()) + 1
                placed[ui] += 1
                taken[ui, cursor[ui] - 1] = True
                e += ctx.member_f[order[ui, cursor[ui] - 1]]
                progress = True
                below = e < floor_exposure
                if np.count_nonzero(below) < n_below:
                    n_below = np.count_nonzero(below)
                    if not n_below:
                        break
                    items_below = ctx.member[:, below].any(axis=1)

    # Phase 2 fills each row from its ranking, past phase 1's picks, of which at most placed lie in its first
    # depth positions, so the fill does too.  e adds integer counts, which is exact in any order.
    depth = np.array(ctx.depth)
    w = min(ctx.k, m)
    free = ~taken[:, :w]
    fill = free & (np.cumsum(free, axis=1) <= (depth - placed)[:, None])
    taken[:, :w] |= fill
    e += np.bincount(order[:, :w][fill], minlength=m) @ ctx.member_f
    slates = np.full((n_users, ctx.k), -1, dtype=np.intp)
    slates[np.arange(ctx.k) < depth[:, None]] = order[taken]

    meta = {"mms_floor": floor_exposure, "min_group_exposure": float(e.min())}
    return RankingSlate(ctx.k, slates, scores, meta)


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
    if not lam >= 0:  # NaN fails too
        raise InvariantViolation("lam must be non-negative")
    if not eta > 0:
        raise InvariantViolation("eta must be positive")
    _finite(lam=lam, eta=eta)
    scores, n_groups = ctx.scores, len(ctx.groups)
    mu = np.full(n_groups, lam / n_groups)
    mu.flags.writeable = False
    tol = simplex_tolerance(n_groups, lam)
    chosen = np.full((len(scores.user_ids), ctx.k), -1, dtype=np.intp)
    for user in ctx.arrival_order:
        ui = scores.user_pos[user]
        # With lam 0 the prices are +0.0, which leaves S as it is.
        slate = _top_row(scores.S[ui] - ctx.member_f @ mu, scores.S[ui], ctx.depth[ui])
        chosen[ui, : slate.size] = slate
        gradient = ctx.beta * ctx.k - ctx.member_f[slate].sum(axis=0)
        if lam > 0:  # with lam 0 the rescale would be 0 * (0 / 0)
            raw = mu * np.exp(-eta * gradient)
            mu = raw * (lam / raw.sum())
            mu.flags.writeable = False
        prices = mu.tolist()
        # NaN passes the comparisons below: an overflowing step (too large an eta) leaves NaN prices.
        if not np.isfinite(mu).all() or abs(sum(prices) - lam) > tol or min(prices) < 0 or (lam == 0 and any(prices)):
            raise InvariantViolation(f"group prices {prices} left the simplex of budget {lam} at step size eta={eta}")
        if on_update is not None:
            on_update(mu)
    return RankingSlate(ctx.k, chosen, scores)


def _band_width(scores: ScoreMatrix, k: int, width: int, bonus: np.ndarray) -> int:
    """The width, at least ``width``, of the prefix of ``scores.order`` that can hold a row's top k of ``S + bonus``.

    ``bonus`` holds one value per item.  Item j can reach row u's top k only
    if ``fl(S[u, j] + bonus.max()) >= fl(S_k(u) + bonus.min())``, where
    ``S_k(u)`` is the row's k-th best score: the row's k best items all get
    at least the right side, and rounding is monotone in each operand.  The
    bound falls along the order, so the items meeting it are a prefix of
    it.  A row with fewer than k scored items is not bounded: it takes them
    all, and they are its first columns, inside any width of at least k.
    The width doubles from the first column that still meets the bound
    until one column meets it in no row, then stops after the last column
    that meets it.
    """
    S, order, m = scores.S, scores.order, scores.S.shape[1]
    deep = np.flatnonzero(scores.n_valid >= k)
    if width >= m or not deep.size:
        return width
    top, bound = bonus.max(), S[deep, order[deep, k - 1]] + bonus.min()
    stop = width
    while stop < m and (S[deep, order[deep, stop]] + top >= bound).any():
        stop = min(m, 2 * stop)
    if stop == width:
        return width
    reach = S[deep[:, None], order[deep, width:stop]] + top >= bound[:, None]
    return width + int(np.count_nonzero(reach, axis=1).max())


def welf(ctx: RerankContext, lam: float = 1.0, alpha: float = 0.5, iters: int = 50) -> RankingSlate:
    """Frank-Wolfe maximisation of relevance plus concave group welfare.

    Maximises ``sum(pi * s) + lam * sum_g psi(E_g + eps)`` with
    ``psi(x) = x^(1-alpha) / (1-alpha)`` over per-user fractional slates
    (entries in [0, 1], row sums = k).  Each step takes the per-user top-k
    of the gradient as the linear maximiser and averages with step
    ``2 / (t + 2)``.  Duality gaps, the final objective, and polytope
    diagnostics are recorded in the slate metadata.

    Each step works on a band of every row's ranking, ``order[:, :width]``:
    the gradient row is ``S[u] + bonus`` with one bonus vector over items,
    so only the prefix that :func:`_band_width` finds can hold the row's
    top k.  The band starts at the first k columns and only grows, so the
    iterate is zero outside it.  The top k come from partitioning the band,
    where ties at the k-th value already lie in tie order.  Every reduction
    keeps the full layout's rounding.  Column sums are ``np.bincount`` over
    the band in user order, the order in which ``pi.sum(axis=0)`` adds
    users.  The duality gap, the row sums and the objective are numpy
    pairwise sums, whose rounding depends on each term's place in the users
    x items layout, so they run over one users x items buffer that is zero
    outside the band and holds the band's terms at its positions; numpy's
    sum starts from +0.0, so the signs of the zeros cannot show.  The entry
    min and max are the band's, the 0.0 outside it being their starting
    values.  Slates and diagnostics are bit for bit the full-layout ones.
    """
    if not lam >= 0:  # NaN fails too
        raise InvariantViolation("lam must be non-negative")
    _finite(lam=lam)
    if not (0.0 < alpha < 1.0):
        raise InvariantViolation("alpha must lie in (0, 1)")
    if iters < 1:
        raise InvariantViolation("iters must be >= 1")
    eps = 1e-3
    scores, k = ctx.scores, ctx.k
    S, n_valid, order = scores.S, scores.n_valid, scores.order
    m = S.shape[1]
    rows = np.arange(len(S))[:, None]
    # The only users x items float buffer.  It is zero outside the band and
    # takes, at the band's positions, the gap's terms, then the iterate for
    # its row sums, then the objective's terms.
    layout = np.zeros_like(S)
    cells = layout.reshape(-1)  # the same memory, indexed by flat position

    def gather(width: int):
        """The band's columns, flat positions, scores and invalid entries, and gradient and scratch arrays."""
        cols = order[:, :width].copy()
        flat = cols + rows * m
        band_S = S.take(flat)
        invalid = np.arange(width) >= n_valid[:, None]  # scored items come first in the order
        return cols, flat, band_S, invalid, np.empty_like(band_S), np.empty_like(band_S)

    width = min(k, m)
    cols, flat, band_S, invalid, grad, scratch = gather(width)
    depth = np.array(ctx.depth)
    pi = (np.arange(width) < depth[:, None]).astype(float)  # each row's initial top k: the head of its ranking
    expected_row = depth.astype(float)

    exposure = np.bincount(cols.ravel(), pi.ravel(), m) @ ctx.member_f
    gaps: list[float] = []
    max_row_dev = 0.0
    entry_min, entry_max = 0.0, 1.0

    for t in range(1, iters + 1):
        # With lam 0 the bonus is +0.0, which leaves S as it is.
        bonus = ctx.member_f @ (lam * (exposure + eps) ** (-alpha))
        wider = _band_width(scores, k, width, bonus)
        if wider > width:
            pi = np.pad(pi, ((0, 0), (0, wider - width)))
            width = wider
            cols, flat, band_S, invalid, grad, scratch = gather(width)
        np.add(band_S, bonus.take(cols), out=grad)
        # band_S never rises along a row, so ties to the lowest column are ties by score.
        head = _top_mask(grad, k, n_valid, scratch)
        np.copyto(grad, 0.0, where=invalid)  # the gap's factor head - pi is +0.0 there
        np.subtract(head, pi, out=scratch)
        cells[flat] = np.multiply(grad, scratch, out=scratch)
        gaps.append(float(np.sum(layout)))
        gamma = 2.0 / (t + 2.0)
        pi *= 1.0 - gamma
        np.add(pi, gamma, out=pi, where=head)
        cells[flat] = pi
        exposure = np.bincount(cols.ravel(), pi.ravel(), m) @ ctx.member_f
        max_row_dev = max(max_row_dev, float(np.abs(layout.sum(axis=1) - expected_row).max()))
        # pi is 0.0 outside the band, and entry_min starts at 0.0.
        entry_min = min(entry_min, float(pi.min()))
        entry_max = max(entry_max, float(pi.max()))

    scratch.fill(0.0)
    cells[flat] = np.multiply(pi, band_S, out=scratch, where=~invalid)
    objective = float(np.sum(layout))
    if lam > 0:
        objective += float(lam * np.sum((exposure + eps) ** (1.0 - alpha) / (1.0 - alpha)))

    # The final top k by pi lies in the band: pi is 0.0 outside it, and the
    # band is a prefix of the tie order (score desc, item id asc), which the
    # stable sort keeps among equal pi.
    np.copyto(pi, -np.inf, where=invalid)
    by_pi = np.argsort(-pi, axis=1, kind="stable")[:, :k]
    meta = {
        "duality_gaps": gaps,
        "objective": objective,
        "polytope_max_row_dev": max_row_dev,
        "polytope_entry_min": entry_min,
        "polytope_entry_max": entry_max,
    }
    return RankingSlate(k, _head(np.take_along_axis(cols, by_pi, axis=1), k, depth), scores, meta)
