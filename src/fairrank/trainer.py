"""Pairwise-ranking matrix-factorization trainer with pluggable fairness hooks.

The base learner optimizes the pairwise logistic (BPR) loss over sampled
(user, positive, negative) triples with SGD.  Fairness enters through three
independent hook slots:

* ``weight_provider``: per-sample loss weights (static ones, inverse group
  popularity, or dual-mirror-descent weights favouring worst-off groups),
* ``group_sampler``: positive sampling (uniform, or softmax over running
  group-loss averages),
* ``regularizer``: a differentiable penalty on batch score statistics.

Each model trains single-threaded and bit-reproducibly for a fixed seed, so
the CLI may train later models in forked workers (on Linux, with more than
one usable CPU) and write the same files; hooks observe batch-level
statistics and act on item groups, holding every per-group value as an
array over the catalog's ``group_ids``.  A checkpoint
is a YAML manifest plus the model's arrays in the binary store of
:mod:`fairrank.store`, which owns both file formats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import count
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .core import Catalog, InteractionLog, ScoreMatrix, group_sets, positions, sequential_sum, simplex_tolerance
from .errors import (
    DivergenceError,
    InvariantViolation,
    ParseError,
    UnknownEntity,
    VersionError,
    ZeroPopularity,
)
from .ingest import BIASED_MODEL_STORE, MODEL_STORE, SplitDataset, read_yaml, writing
from .store import read_store, replace_file, write_store

WEIGHT_PROVIDERS = ("static", "ips", "fairdual")
GROUP_SAMPLERS = ("uniform", "minmax")
REGULARIZERS = ("none", "focf", "reg")


@dataclass
class TrainConfig:
    """Hyperparameters of the pairwise trainer."""

    dim: int = 32
    epochs: int = 30
    lr: float = 0.05
    l2: float = 1e-4
    batch_size: int = 256
    seed: int = 42
    use_item_bias: bool = False
    ips_smooth: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.epochs < 1 or self.batch_size < 1:
            raise InvariantViolation("dim, epochs, and batch_size must be positive")
        if not (0 < self.lr < math.inf and 0 <= self.l2 < math.inf):  # NaN fails too
            raise InvariantViolation("lr must be positive and l2 non-negative")
        if not 0 <= self.ips_smooth < math.inf:
            raise InvariantViolation(f"smooth must be non-negative and finite, got {self.ips_smooth!r}")


@dataclass
class TrainHooks:
    """Hook selection: exactly one choice per slot plus hook hyperparameters."""

    weight_provider: str = "static"
    group_sampler: str = "uniform"
    regularizer: str = "none"
    reg_weight: float = 0.0
    dual_budget: float = 1.0
    dual_step: float = 0.1
    sampler_step: float = 1.0

    def __post_init__(self) -> None:
        if self.weight_provider not in WEIGHT_PROVIDERS:
            raise InvariantViolation(f"unknown weight provider {self.weight_provider!r}")
        if self.group_sampler not in GROUP_SAMPLERS:
            raise InvariantViolation(f"unknown group sampler {self.group_sampler!r}")
        if self.regularizer not in REGULARIZERS:
            raise InvariantViolation(f"unknown regularizer {self.regularizer!r}")
        # NaN fails each comparison, and inf the upper bound.
        if not 0 <= self.reg_weight < math.inf:
            raise InvariantViolation("reg_weight must be non-negative")
        if not 0 <= self.dual_budget < math.inf:
            raise InvariantViolation("dual budget must be non-negative")
        if not 0 < self.dual_step < math.inf:
            raise InvariantViolation("dual step size must be positive")
        if not math.isfinite(self.sampler_step):
            raise InvariantViolation("sampler_step must be finite")


@dataclass
class MFModel:
    """Dot-product factorization model with optional item bias.

    Parameters are held as float64 arrays.  The constructor rejects duplicate ids,
    parameters of the wrong shape or not finite, and an item bias given or missing
    against ``config.use_item_bias``, so every model it accepts saves and loads back whole.
    """

    user_ids: list[str]
    item_ids: list[str]
    user_vecs: np.ndarray
    item_vecs: np.ndarray
    item_bias: np.ndarray | None
    config: TrainConfig
    loss_curve: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.user_vecs, self.item_vecs = np.asarray(self.user_vecs, float), np.asarray(self.item_vecs, float)
        if self.item_bias is not None:
            self.item_bias = np.asarray(self.item_bias, float)
        self._user_index = {u: i for i, u in enumerate(self.user_ids)}
        self._item_index = {i: j for j, i in enumerate(self.item_ids)}
        if len(self._user_index) < len(self.user_ids) or len(self._item_index) < len(self.item_ids):
            raise InvariantViolation("duplicate user or item ids in model")
        if self.user_vecs.shape != (len(self.user_ids), self.config.dim):
            raise InvariantViolation("user embedding shape mismatch")
        if self.item_vecs.shape != (len(self.item_ids), self.config.dim):
            raise InvariantViolation("item embedding shape mismatch")
        if (self.item_bias is not None) != self.config.use_item_bias:
            raise InvariantViolation(f"item bias {'missing' if self.config.use_item_bias else 'given'} "
                                     f"with use_item_bias={self.config.use_item_bias}")
        if self.item_bias is not None and self.item_bias.shape != (len(self.item_ids),):
            raise InvariantViolation("item bias shape mismatch")
        if not all(np.isfinite(a).all() for a in (self.user_vecs, self.item_vecs, self.item_bias) if a is not None):
            raise InvariantViolation("non-finite model parameter")


# ---------------------------------------------------------------------------
# Hook primitives
# ---------------------------------------------------------------------------


def ips_weights(log: InteractionLog, catalog: Catalog, smooth: float = 0.0) -> np.ndarray:
    """Inverse group-popularity weights in ``group_ids`` order, rescaled to mean 1.

    Popularity of a group is the summed interaction count of its items
    (optionally smoothed by ``smooth`` per item), added in catalog item
    order.  A zero-popularity group raises :class:`ZeroPopularity`; pass
    ``smooth=1`` to avoid that.
    """
    pop = np.full(len(catalog.items), float(smooth))
    np.add.at(pop, log.onto(catalog).item, 1.0)  # one add per interaction, in log order
    group_pop = sequential_sum(np.where(catalog.member.T, pop, 0.0))
    for j in np.flatnonzero(group_pop <= 0)[:1]:
        raise ZeroPopularity(f"group {catalog.group_ids[j]!r} has zero popularity (consider smooth=1)")
    raw = 1.0 / group_pop
    return raw / (sequential_sum(raw) / len(raw))


def _check_prices(prices: np.ndarray, budget: float) -> None:
    """Raise unless ``prices`` are non-negative and sum to ``budget`` (all zero for a zero budget)."""
    off_sum = abs(sequential_sum(prices) - budget) > simplex_tolerance(len(prices), budget)
    if off_sum or (prices < 0).any() or (budget == 0 and prices.any()):
        raise InvariantViolation(f"prices {prices.tolist()} are off the simplex of budget {budget}")


def _by_group(member: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The present groups of the samples x groups table ``member``, their sample counts and their samples, group-major.

    The samples of ``present[j]`` are ``rows``' ``j``-th slice of ``counts[j]`` entries, ascending.
    """
    group, rows = np.nonzero(member.T)
    counts = np.bincount(group, minlength=member.shape[1])
    present = np.flatnonzero(counts)
    return present, counts[present], rows


def _slice_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of each of the consecutive slices of ``counts`` entries of ``values``, with ``np.mean``'s bits.

    A contiguous slice's sum adds the elements of a masked copy in the same
    pairwise order, and ``np.mean`` divides that sum by the count.
    """
    ends = np.cumsum(counts).tolist()
    return np.array([np.add.reduce(values[a:b]) for a, b in zip([0, *ends], ends)]) / counts


def _size_classes(sets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The distinct group sets by member count ``k``: each class's set indices and its ``(sets, k)`` groups."""
    sizes = sets.sum(axis=1)
    classes = []
    for k in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique(sizes) imports numpy.ma, about 1 MiB
        of_k = np.flatnonzero(sizes == k)
        classes.append((of_k, np.nonzero(sets[of_k])[1].reshape(len(of_k), k)))
    return classes


def _set_means(values: np.ndarray, classes: list[tuple[np.ndarray, np.ndarray]], n_sets: int) -> np.ndarray:
    """Each set's mean of its groups' ``values``: per class, one row sum over the count, with ``np.mean``'s bits."""
    means = np.empty(n_sets)
    for of_k, groups in classes:
        means[of_k] = values[groups].sum(axis=1) / groups.shape[1]
    return means


def fairdual_step(
    prices: np.ndarray,
    budget: float,
    step: float,
    sets: np.ndarray,
    batch_sets: np.ndarray,
    target_shares: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dual-mirror-descent re-weighting of one batch: the sample weights and the new prices.

    ``sets`` holds distinct group sets as bool rows over ``group_ids`` and
    ``batch_sets`` the set of each sample.  The batch is summarised by its
    per-group share of positive-item memberships; the prices (on the
    ``budget``-scaled simplex) move multiplicatively at rate ``step`` toward
    groups that fell short of their target share and are rescaled onto the
    simplex, then samples are weighted by their member groups' normalized
    prices (``|G| * mu_g / budget``; multi-group items take the mean, once
    per set).  A zero budget leaves the prices untouched and all weights at 1.
    The set means are computed per class of sets with ``k`` members, as one
    gather and row sum divided by ``k``: numpy sums each row of ``k`` entries
    as it sums their masked copy, so each mean has ``np.mean``'s bits.
    """
    return _dual_step(prices, budget, step, sets, _size_classes(sets), batch_sets, target_shares)


def _dual_step(
    prices: np.ndarray,
    budget: float,
    step: float,
    sets: np.ndarray,
    classes: list[tuple[np.ndarray, np.ndarray]],
    batch_sets: np.ndarray,
    target_shares: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fairdual_step` over the sets' :func:`_size_classes`, which ``train`` builds once."""
    _check_prices(prices, budget)
    if not len(batch_sets):
        raise InvariantViolation("empty batch")
    if budget == 0:
        return np.ones(len(batch_sets)), prices
    n = len(prices)
    counts = np.bincount(batch_sets, minlength=len(sets))
    per_group = counts @ sets  # integer counts: exact in any order
    total = per_group.sum()
    shares = per_group / total if total > 0 else np.zeros(n)
    target = np.full(n, 1.0 / n) if target_shares is None else target_shares
    raw = prices * np.exp(step * (target - shares))
    raw_total = sequential_sum(raw)
    prices = np.full(n, budget / n) if raw_total <= 0 else raw * (budget / raw_total)
    _check_prices(prices, budget)
    norm_price = n * prices / budget
    return _set_means(norm_price, classes, len(sets))[batch_sets], prices


def minmax_sampler_update(
    ema: np.ndarray, seen: np.ndarray, losses: np.ndarray, present: np.ndarray, sampler_step: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Update the running group-loss averages; return the sampling probabilities, the averages and the seen mask.

    Every array is over ``group_ids``; ``losses[present]`` are the batch's
    group losses.  The first update sets the batch's groups to their losses;
    after that a group follows ``0.9 * ema + 0.1 * loss``, taking its own
    loss as the old average when first seen.  The probabilities are
    ``softmax(sampler_step * ema)`` over the groups seen so far; a group not
    yet seen gets the largest of them.
    """
    fresh = 0.9 * np.where(seen, ema, losses) + 0.1 * losses if seen.any() else losses
    ema, seen = np.where(present, fresh, ema), seen | present
    logits = sampler_step * ema[seen]
    logits -= logits.max()
    q = np.exp(logits)
    q /= q.sum()
    probs = np.full(len(ema), q.max())
    probs[seen] = q
    return probs, ema, seen


def _group_losses(sample_loss: np.ndarray, member: np.ndarray, groups: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The minmax sampler's batch input: each group's mean sample loss (0 where absent) and the present groups' mask.

    The means come from one group-major gather (:func:`_by_group`) and have
    ``np.mean``'s bits; a non-finite one is an error naming the first such group.
    """
    present, counts, rows = _by_group(member)
    means = _slice_means(sample_loss[rows], counts)
    for g in present[~np.isfinite(means)][:1]:
        raise InvariantViolation(f"non-finite loss for group {groups[g]!r}")
    losses = np.zeros(len(groups))
    losses[present] = means
    return losses, np.bincount(present, minlength=len(groups)) > 0


def fairness_penalty(scores: np.ndarray, member: np.ndarray, kind: str) -> tuple[float, np.ndarray]:
    """Batch-level score-parity penalty and its analytic gradient w.r.t. each score.

    ``member`` holds the samples' bool rows over ``group_ids``; each group in
    the batch has one mean score.  ``reg``: sum of squared differences
    between group means over all group pairs.  ``focf``: sum of absolute
    deviations of group means from their unweighted grand mean.  A
    single-group batch contributes 0.  A sample's gradient adds its groups'
    terms in group order.  Both come from one group-major gather of the
    scores (:func:`_by_group`): each group's mean is its contiguous slice's
    sum over its count, which has ``np.mean``'s bits, and the gradient is one
    ``np.add.at`` in the gather's order, which is group order for each sample.
    """
    if kind not in ("focf", "reg"):
        raise InvariantViolation(f"unknown penalty kind {kind!r}")
    present, counts, rows = _by_group(member)
    grad = np.zeros(len(scores))
    n = len(present)
    if n < 2:
        return 0.0, grad
    means = _slice_means(scores[rows], counts)
    if kind == "reg":
        diff = means[:, None] - means[None, :]
        col = np.arange(n)
        # The pairs i < j in row-major order.  ``** 2`` on a float is C pow, as in the per-pair sum; diff * diff
        # differs from it in the last bit.
        penalty = float(sequential_sum([d**2 for d in diff[col[:, None] < col].tolist()]))
        d_mean = sequential_sum(2.0 * diff[col[:, None] != col].reshape(n, n - 1))
    else:
        grand = float(np.mean(means))
        penalty = float(np.sum(np.abs(means - grand)))
        signs = np.sign(means - grand)
        d_mean = signs - signs.sum() / n  # signs are -1, 0 or 1: exact in any order
    np.add.at(grad, rows, np.repeat(d_mean / counts, counts))
    return penalty, grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _draw_negatives(rng: np.random.Generator, user_rows: np.ndarray, pos_mask: np.ndarray, n_items: int) -> np.ndarray:
    neg = rng.integers(0, n_items, size=user_rows.size)
    while True:
        bad = np.flatnonzero(pos_mask[user_rows, neg])
        if bad.size == 0:
            return neg
        neg[bad] = rng.integers(0, n_items, size=bad.size)


def _add_rows(A: np.ndarray, rows: np.ndarray, V: np.ndarray, cells: np.ndarray | None = None) -> None:
    """``np.add.at(A, rows, V)`` for a C-contiguous 2-D ``A`` via numpy's faster 1-D path (same adds, same order).

    ``cells`` is a table of flat cell indices, ``np.arange(m * d).reshape(m, d)`` for ``A``'s ``d`` columns and
    at least its rows (by default ``A``'s own): a row gather from it is faster than building the rows' indices.
    """
    if cells is None:
        cells = np.arange(A.size).reshape(A.shape)
    np.add.at(A.reshape(-1), cells.take(rows, axis=0).ravel(), V.ravel())


def train(dataset: SplitDataset, config: TrainConfig, hooks: TrainHooks) -> MFModel:
    """Fit the factorization model on the train split.

    One uniformly re-sampled negative per positive; parameters updated by
    plain SGD over batches of ``config.batch_size``.  With neutral hooks the
    arithmetic is identical to an unhooked BPR loop, so results bit-match.
    The hooks work per batch on arrays over the catalog's ``group_ids``:
    IPS weights are looked up per item, fairdual weights are computed once
    per distinct group set (a distinct row of the catalog's items x groups
    ``member`` table), group members come from that table, and the minmax
    order takes one draw per epoch.  A group the minmax sampler has not yet
    seen in a batch is drawn with the largest probability of any seen group.
    The group-set table (:func:`core.group_sets`) and its classes by set
    size are built once per call; each batch's per-group means (the penalty's
    and the minmax losses) come from one group-major gather, each group's
    contiguous slice summed and divided by its count, and each set's mean
    from one row sum per set size, which give ``np.mean``'s bits.
    The per-sample loops and group-keyed dicts they replace are kept in
    ``tests/reference_trainer.py``, which must give bit-identical models.
    """
    cat = dataset.catalog
    if not len(dataset.train):
        raise InvariantViolation("train split is empty")

    users, items, groups = list(cat.users), list(cat.items), cat.group_ids
    sets, set_of = group_sets(cat.member)  # each item's group set
    classes = _size_classes(sets)
    pos_u, pos_i = dataset.train.user, dataset.train.item  # catalog positions, as in every split
    pos_mask = np.zeros((len(users), len(items)), dtype=bool)
    pos_mask[pos_u, pos_i] = True
    # Users interacting with every item admit no negative sample; drop their triples.
    keep = pos_mask.sum(axis=1)[pos_u] < len(items)
    if not keep.any():
        raise InvariantViolation("no user admits a negative sample")
    pos_u_arr, pos_i_arr = pos_u[keep], pos_i[keep]
    n_pos = pos_u_arr.size

    # Each group's positives, ascending, one group after another.
    eligible_groups, pool_size, pool_rows = _by_group(cat.member[pos_i_arr])
    pool_start = np.cumsum(pool_size) - pool_size

    rng = np.random.default_rng(config.seed)
    P = rng.normal(0.0, 0.1, size=(len(users), config.dim))
    Q = rng.normal(0.0, 0.1, size=(len(items), config.dim))
    bias = np.zeros(len(items)) if config.use_item_bias else None
    cells = np.arange(max(P.size, Q.size)).reshape(-1, config.dim)  # for _add_rows on P and on Q

    if hooks.weight_provider == "ips":
        group_ips = ips_weights(dataset.train, cat, smooth=config.ips_smooth)
        item_ips = _set_means(group_ips, classes, len(sets))[set_of]
    prices = np.full(len(groups), hooks.dual_budget / len(groups) if hooks.dual_budget > 0 else 0.0)
    sampler_q = np.full(len(groups), 1.0 / len(groups))
    sampler_ema, seen = np.zeros(len(groups)), np.zeros(len(groups), dtype=bool)
    regularize = hooks.regularizer != "none" and hooks.reg_weight > 0

    loss_curve: list[float] = []
    for epoch in range(config.epochs):
        if hooks.group_sampler == "uniform":
            order = rng.permutation(n_pos)
        else:
            probs = sampler_q[eligible_groups]
            probs = probs / probs.sum()
            drawn = rng.choice(len(eligible_groups), size=n_pos, p=probs)
            # One draw over all picks takes the same values from the stream as one scalar draw per pick.
            order = pool_rows[pool_start[drawn] + rng.integers(0, pool_size[drawn])]

        epoch_loss = 0.0
        for start in range(0, n_pos, config.batch_size):
            batch = order[start : start + config.batch_size]
            bu = pos_u_arr[batch]
            bi = pos_i_arr[batch]
            bn = _draw_negatives(rng, bu, pos_mask, len(items))

            Pu = P.take(bu, axis=0)
            Qp = Q.take(bi, axis=0)
            Qn = Q.take(bn, axis=0)
            pos_dot = np.einsum("bd,bd->b", Pu, Qp)
            x = pos_dot - np.einsum("bd,bd->b", Pu, Qn)
            if bias is not None:
                x = x + bias[bi] - bias[bn]

            if hooks.weight_provider == "static":
                w = np.ones(batch.size)
            elif hooks.weight_provider == "ips":
                w = item_ips[bi]
            else:
                w, prices = _dual_step(prices, hooks.dual_budget, hooks.dual_step, sets, classes, set_of[bi])

            sig = 1.0 / (1.0 + np.exp(x))
            coef = w * sig
            sample_loss = w * np.logaddexp(0.0, -x)
            epoch_loss += float(sample_loss.sum())

            lr = config.lr
            l2 = config.l2
            # The steps -lr * (-coef * (Qp - Qn) + 2 l2 Pu), -lr * (-coef * Pu + 2 l2 Qp) and
            # -lr * (coef * Pu + 2 l2 Qn), in place: a product with -coef is the negated product with coef, and
            # y + -z is y - z, so each element is rounded as in the written form.
            c, decay = coef[:, None], 2.0 * l2
            cP = c * Pu
            step = Qp - Qn
            step *= c
            np.subtract(decay * Pu, step, out=step)
            step *= -lr
            _add_rows(P, bu, step, cells)
            step = decay * Qp
            step -= cP
            step *= -lr
            _add_rows(Q, bi, step, cells)
            cP += decay * Qn
            cP *= -lr
            _add_rows(Q, bn, cP, cells)
            if bias is not None:
                np.add.at(bias, bi, -lr * (-coef + 2.0 * l2 * bias[bi]))
                np.add.at(bias, bn, -lr * (coef + 2.0 * l2 * bias[bn]))

            if regularize:
                pos_scores = pos_dot if bias is None else pos_dot + bias[bi]
                penalty, ds = fairness_penalty(pos_scores, cat.member[bi], hooks.regularizer)
                epoch_loss += hooks.reg_weight * penalty
                ds *= hooks.reg_weight
                _add_rows(P, bu, -lr * ds[:, None] * Qp, cells)
                _add_rows(Q, bi, -lr * ds[:, None] * Pu, cells)
                if bias is not None:
                    np.add.at(bias, bi, -lr * ds)

            if hooks.group_sampler == "minmax":
                losses, present = _group_losses(sample_loss, cat.member[bi], groups)
                sampler_q, sampler_ema, seen = minmax_sampler_update(
                    sampler_ema, seen, losses, present, hooks.sampler_step
                )

        l2_term = config.l2 * (float(np.sum(P * P)) + float(np.sum(Q * Q)))
        if bias is not None:
            l2_term += config.l2 * float(np.sum(bias * bias))
        mean_loss = epoch_loss / n_pos + l2_term
        if not np.isfinite(mean_loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        loss_curve.append(mean_loss)

    return MFModel(
        user_ids=users,
        item_ids=items,
        user_vecs=P,
        item_vecs=Q,
        item_bias=bias,
        config=config,
        loss_curve=loss_curve,
    )


def predict(
    model: MFModel,
    users: Sequence[str],
    exclude: InteractionLog | None = None,
) -> ScoreMatrix:
    """Score all candidate items for the given users.

    ``exclude`` removes the (user, item) pairs of its rows (typically the
    train split) from the candidate rows.  Scores are raw dot products plus
    the optional item bias, one matrix-vector product per user.
    """
    S = np.empty((len(users), len(model.item_ids)))
    valid = np.ones((len(users) + 1, len(model.item_ids) + 1), dtype=bool)  # a padding row and column, which -1 indexes
    for r, user in enumerate(users):
        ui = model._user_index.get(user)
        if ui is None:
            raise UnknownEntity(f"user {user!r} not in model")
        S[r] = model.item_vecs @ model.user_vecs[ui]
        if model.item_bias is not None:
            S[r] += model.item_bias
    if exclude is not None:  # a pair outside the rows or the model's items lands in the last row or column
        rows = positions(exclude.user_ids, dict(zip(users, count())))[exclude.user]
        valid[rows, positions(exclude.item_ids, model._item_index)[exclude.item]] = False
    return ScoreMatrix(users, model.item_ids, S, valid[:-1, :-1], semantics="raw")


CHECKPOINT_FORMAT_VERSION = 3
_MANIFEST_KEYS = ("format_version", "dim", "seed", "epochs", "lr", "l2", "batch_size")
_KINDS = {bool: "true or false", int: "an integer", float: "a number"}


def save_model(model: MFModel, directory: str | Path, hooks: TrainHooks | None = None) -> None:
    """Write the model as the binary store ``model.npz`` plus the manifest ``manifest.yaml``.

    The store (:func:`store.write_store`) holds the id tables and embeddings, and
    ``item_bias`` when the config uses one.  The manifest holds every
    :class:`TrainConfig` field and, when given, every :class:`TrainHooks` field, so
    ``TrainHooks(**manifest["hooks"])`` and the loaded config retrain the same model.
    An id holding a line break is a FormatError raised before any file is touched.
    """
    manifest = {"format_version": CHECKPOINT_FORMAT_VERSION, **asdict(model.config),
                "loss_curve": [float(x) for x in model.loss_curve]}
    if hooks is not None:
        manifest["hooks"] = asdict(hooks)
    with writing(directory, "model") as directory:
        write_store(directory / "model.npz", BIASED_MODEL_STORE if model.config.use_item_bias else MODEL_STORE, model)
        replace_file(directory / "manifest.yaml", yaml.safe_dump(manifest, sort_keys=True))


def load_model(directory: str | Path) -> MFModel:
    """Read back a checkpoint written by :func:`save_model`; any other format version is a VersionError."""
    directory = Path(directory)
    manifest_path = directory / "manifest.yaml"
    manifest = read_yaml(manifest_path, "model manifest", required=_MANIFEST_KEYS)
    if manifest["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise VersionError(f"checkpoint version {manifest['format_version']} unsupported")
    # A field outside _MANIFEST_KEYS, such as ips_smooth, takes its default when absent.  As in a config file, a
    # bool field takes only a bool, an int field only an int, and a float field an int or a float.
    defaults = asdict(TrainConfig())
    values = {key: manifest.get(key, default) for key, default in defaults.items()}
    for key, value in values.items():
        if not (type(value) is type(defaults[key]) or type(value) is int and type(defaults[key]) is float):
            raise ParseError(f"{manifest_path}: {key} must be {_KINDS[type(defaults[key])]}, got {value!r}")
    loss_curve = manifest.get("loss_curve", [])
    if not (type(loss_curve) is list and all(type(x) in (int, float) for x in loss_curve)):
        raise ParseError(f"{manifest_path}: loss_curve must be a list of numbers, got {loss_curve!r}")
    try:
        config = TrainConfig(**{key: type(defaults[key])(value) for key, value in values.items()})
        loss_curve = [float(x) for x in loss_curve]
    except (OverflowError, InvariantViolation) as exc:  # OverflowError: an int too large for a float
        raise ParseError(f"{manifest_path}: {exc}") from None
    if not all(map(math.isfinite, loss_curve)):  # train raises DivergenceError before it records one
        raise ParseError(f"{manifest_path}: loss_curve must hold finite numbers, got {loss_curve!r}")
    members = BIASED_MODEL_STORE if config.use_item_bias else MODEL_STORE
    build = partial(MFModel, item_bias=None, config=config, loss_curve=loss_curve)
    return read_store(directory / "model.npz", "model", members, build)
