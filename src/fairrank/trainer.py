"""Pairwise-ranking matrix-factorization trainer with pluggable fairness hooks.

The base learner optimizes the pairwise logistic (BPR) loss over sampled
(user, positive, negative) triples with SGD.  Fairness enters through three
independent hook slots:

* ``weight_provider``: per-sample loss weights (static ones, inverse group
  popularity, or dual-mirror-descent weights favouring worst-off groups),
* ``group_sampler``: positive sampling (uniform, or softmax over running
  group-loss averages),
* ``regularizer``: a differentiable penalty on batch score statistics.

Training is single-threaded and bit-reproducible for a fixed seed; hooks
observe batch-level statistics.  Hooks act on item groups (a user-group
switch is a documented extension point).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import count
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .core import Catalog, DualState, InteractionLog, ScoreMatrix, positions
from .errors import (
    DivergenceError,
    InvariantViolation,
    ParseError,
    UnknownEntity,
    VersionError,
    ZeroPopularity,
)
from .ingest import SplitDataset, read_table, read_yaml, replace_file, writing

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
        if self.lr <= 0 or self.l2 < 0:
            raise InvariantViolation("lr must be positive and l2 non-negative")


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
        if self.reg_weight < 0:
            raise InvariantViolation("reg_weight must be non-negative")


@dataclass
class MFModel:
    """Dot-product factorization model with optional item bias."""

    user_ids: list[str]
    item_ids: list[str]
    user_vecs: np.ndarray
    item_vecs: np.ndarray
    item_bias: np.ndarray | None
    config: TrainConfig
    loss_curve: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._user_index = {u: i for i, u in enumerate(self.user_ids)}
        self._item_index = {i: j for j, i in enumerate(self.item_ids)}
        if self.user_vecs.shape != (len(self.user_ids), self.config.dim):
            raise InvariantViolation("user embedding shape mismatch")
        if self.item_vecs.shape != (len(self.item_ids), self.config.dim):
            raise InvariantViolation("item embedding shape mismatch")


# ---------------------------------------------------------------------------
# Hook primitives
# ---------------------------------------------------------------------------


def ips_weights(log: InteractionLog, catalog: Catalog, smooth: float = 0.0) -> dict[str, float]:
    """Inverse group-popularity weights, rescaled to mean 1.

    Popularity of a group is the summed interaction count of its items
    (optionally smoothed by ``smooth`` per item).  A zero-popularity group
    raises :class:`ZeroPopularity`; pass ``smooth=1`` to avoid that.
    """
    pop = np.full(len(catalog.items), float(smooth))
    np.add.at(pop, log.onto(catalog).item, 1.0)  # one add per interaction, in log order
    group_pop = {g: 0.0 for g in catalog.groups}
    for item, p in zip(catalog.items, pop.tolist()):
        for g in catalog.item_groups[item]:
            group_pop[g] += p
    for g, p in group_pop.items():
        if p <= 0:
            raise ZeroPopularity(f"group {g!r} has zero popularity (consider smooth=1)")
    raw = {g: 1.0 / p for g, p in group_pop.items()}
    mean = sum(raw.values()) / len(raw)
    return {g: w / mean for g, w in raw.items()}


def fairdual_step(
    state: DualState,
    batch_groups: Sequence[frozenset[str]],
    target_shares: Mapping[str, float] | None = None,
) -> tuple[np.ndarray, DualState]:
    """Dual-mirror-descent re-weighting of one batch.

    The batch is summarised by its per-group share of positive-item
    memberships; prices move multiplicatively toward groups that fell short
    of their target share, then samples are weighted by their member groups'
    normalized prices (``|G| * mu_g / budget``; multi-group items take the
    mean).  A zero budget leaves the state untouched and all weights at 1.
    """
    state.validate(tol=1e-6)
    if not batch_groups:
        raise InvariantViolation("empty batch")
    groups = sorted(state.prices)
    if target_shares is None:
        target_shares = {g: 1.0 / len(groups) for g in groups}

    sets = Counter(batch_groups)  # distinct group sets in first-seen order, with multiplicities
    counts = {g: 0.0 for g in groups}
    for gs, c in sets.items():
        for g in gs:
            if g not in counts:
                raise UnknownEntity(f"group {g!r} not in dual state")
            counts[g] += c
    total = sum(counts.values())
    shares = {g: counts[g] / total for g in groups} if total > 0 else {g: 0.0 for g in groups}

    if state.budget == 0:
        return np.ones(len(batch_groups)), state

    gradient = {g: target_shares[g] - shares[g] for g in groups}
    new_state = state.exp_step(gradient, ascent=True)
    n = len(groups)
    norm_price = {g: n * new_state.prices[g] / new_state.budget for g in groups}
    set_weight = {gs: float(np.mean([norm_price[g] for g in sorted(gs)])) for gs in sets}
    weights = np.fromiter(map(set_weight.__getitem__, batch_groups), float, len(batch_groups))
    return weights, new_state


def minmax_sampler_update(
    ema: dict[str, float] | None,
    batch_losses: Mapping[str, float],
    sampler_step: float = 1.0,
) -> tuple[dict[str, float], dict[str, float]]:
    """Update running group-loss averages and return the sampling softmax.

    The EMA initialises to the first observed losses, then follows
    ``0.9 * ema + 0.1 * loss``.  Sampling probabilities are
    ``softmax(sampler_step * ema)``.
    """
    for g, loss in batch_losses.items():
        if not np.isfinite(loss):
            raise InvariantViolation(f"non-finite loss for group {g!r}")
    if ema is None:
        new_ema = dict(batch_losses)
    else:
        new_ema = dict(ema)
        for g, loss in batch_losses.items():
            new_ema[g] = 0.9 * new_ema.get(g, loss) + 0.1 * loss
    groups = sorted(new_ema)
    logits = np.array([sampler_step * new_ema[g] for g in groups])
    logits -= logits.max()
    q = np.exp(logits)
    q /= q.sum()
    return {g: float(q[i]) for i, g in enumerate(groups)}, new_ema


def fairness_penalty(scores_by_group: Mapping[str, np.ndarray], kind: str) -> float:
    """Batch-level score-parity penalty.

    ``reg``: sum of squared differences between group mean scores over all
    group pairs.  ``focf``: sum of absolute deviations of group means from
    their unweighted grand mean.  A single-group batch contributes 0.
    """
    if kind not in ("focf", "reg"):
        raise InvariantViolation(f"unknown penalty kind {kind!r}")
    groups = sorted(scores_by_group)
    if len(groups) < 2:
        return 0.0
    means = np.array([float(np.mean(scores_by_group[g])) for g in groups])
    if kind == "reg":
        total = 0.0
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                total += (means[a] - means[b]) ** 2
        return float(total)
    grand = float(np.mean(means))
    return float(np.sum(np.abs(means - grand)))


def fairness_penalty_grad(scores_by_group: Mapping[str, np.ndarray], kind: str) -> dict[str, np.ndarray]:
    """Analytic gradient of :func:`fairness_penalty` w.r.t. each score."""
    if kind not in ("focf", "reg"):
        raise InvariantViolation(f"unknown penalty kind {kind!r}")
    groups = sorted(scores_by_group)
    grads = {g: np.zeros(len(scores_by_group[g])) for g in groups}
    if len(groups) < 2:
        return grads
    means = {g: float(np.mean(scores_by_group[g])) for g in groups}
    if kind == "reg":
        for g in groups:
            d_mean = sum(2.0 * (means[g] - means[h]) for h in groups if h != g)
            grads[g][:] = d_mean / len(scores_by_group[g])
        return grads
    n = len(groups)
    grand = float(np.mean([means[g] for g in groups]))
    signs = {g: float(np.sign(means[g] - grand)) for g in groups}
    sign_sum = sum(signs.values())
    for g in groups:
        d_mean = signs[g] - sign_sum / n
        grads[g][:] = d_mean / len(scores_by_group[g])
    return grads


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


def _add_rows(A: np.ndarray, rows: np.ndarray, V: np.ndarray) -> None:
    """``np.add.at(A, rows, V)`` for a C-contiguous 2-D ``A`` via numpy's faster 1-D path (same adds, same order)."""
    d = A.shape[1]
    np.add.at(A.reshape(-1), (rows[:, None] * d + np.arange(d)).ravel(), V.ravel())


def train(dataset: SplitDataset, config: TrainConfig, hooks: TrainHooks) -> MFModel:
    """Fit the factorization model on the train split.

    One uniformly re-sampled negative per positive; parameters updated by
    plain SGD over batches of ``config.batch_size``.  With neutral hooks the
    arithmetic is identical to an unhooked BPR loop, so results bit-match.
    The hooks work per batch on arrays: IPS weights are looked up per item,
    fairdual weights are computed once per distinct group set, group
    members come from the catalog's items x groups ``member`` table, and
    the minmax order takes one draw per epoch.  A group the minmax sampler
    has not yet seen in a batch is drawn with the largest probability of
    any seen group.  The per-sample loops they replace are kept in
    ``tests/reference_trainer.py``, which must give bit-identical models.
    """
    cat = dataset.catalog
    if not len(dataset.train):
        raise InvariantViolation("train split is empty")

    users, items, groups = list(cat.users), list(cat.items), cat.group_ids
    pos_u, pos_i = dataset.train.user, dataset.train.item  # catalog positions, as in every split
    pos_mask = np.zeros((len(users), len(items)), dtype=bool)
    pos_mask[pos_u, pos_i] = True
    # Users interacting with every item admit no negative sample; drop their triples.
    keep = pos_mask.sum(axis=1)[pos_u] < len(items)
    if not keep.any():
        raise InvariantViolation("no user admits a negative sample")
    pos_u_arr, pos_i_arr = pos_u[keep], pos_i[keep]
    n_pos = pos_u_arr.size

    item_member: list[frozenset[str]] = [cat.item_groups[it] for it in items]
    pos_member = cat.member[pos_i_arr]
    pool_rows = np.nonzero(pos_member.T)[1]  # each group's positives, ascending, one group after another
    pool_size = pos_member.sum(axis=0)
    eligible_groups = np.flatnonzero(pool_size).tolist()
    pool_size = pool_size[eligible_groups]
    pool_start = np.cumsum(pool_size) - pool_size

    rng = np.random.default_rng(config.seed)
    P = rng.normal(0.0, 0.1, size=(len(users), config.dim))
    Q = rng.normal(0.0, 0.1, size=(len(items), config.dim))
    bias = np.zeros(len(items)) if config.use_item_bias else None

    if hooks.weight_provider == "ips":
        ips_map = ips_weights(dataset.train, cat, smooth=config.ips_smooth)
        item_ips = np.array([float(np.mean([ips_map[g] for g in sorted(gs)])) for gs in item_member])
    dual = DualState.uniform(hooks.dual_budget, groups, hooks.dual_step)
    sampler_ema: dict[str, float] | None = None
    sampler_q: dict[str, float] = {g: 1.0 / len(groups) for g in groups}
    regularize = hooks.regularizer != "none" and hooks.reg_weight > 0

    loss_curve: list[float] = []
    for epoch in range(config.epochs):
        if hooks.group_sampler == "uniform":
            order = rng.permutation(n_pos)
        else:
            probs = np.array([sampler_q.get(groups[gj], max(sampler_q.values())) for gj in eligible_groups])
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

            Pu = P[bu]
            Qp = Q[bi]
            Qn = Q[bn]
            x = np.einsum("bd,bd->b", Pu, Qp) - np.einsum("bd,bd->b", Pu, Qn)
            if bias is not None:
                x = x + bias[bi] - bias[bn]

            if hooks.weight_provider == "static":
                w = np.ones(batch.size)
            elif hooks.weight_provider == "ips":
                w = item_ips[bi]
            else:
                w, dual = fairdual_step(dual, list(map(item_member.__getitem__, bi.tolist())))

            sig = 1.0 / (1.0 + np.exp(x))
            coef = w * sig
            sample_loss = w * np.logaddexp(0.0, -x)
            epoch_loss += float(sample_loss.sum())

            lr = config.lr
            l2 = config.l2
            _add_rows(P, bu, -lr * (-coef[:, None] * (Qp - Qn) + 2.0 * l2 * Pu))
            _add_rows(Q, bi, -lr * (-coef[:, None] * Pu + 2.0 * l2 * Qp))
            _add_rows(Q, bn, -lr * (coef[:, None] * Pu + 2.0 * l2 * Qn))
            if bias is not None:
                np.add.at(bias, bi, -lr * (-coef + 2.0 * l2 * bias[bi]))
                np.add.at(bias, bn, -lr * (coef + 2.0 * l2 * bias[bn]))

            if regularize or hooks.group_sampler == "minmax":
                in_group = cat.member[bi]  # batch positions of each group present, in sorted group order
                by_group = {groups[g]: np.flatnonzero(in_group[:, g]) for g in np.flatnonzero(in_group.any(axis=0))}

            if regularize:
                pos_scores = np.einsum("bd,bd->b", Pu, Qp)
                if bias is not None:
                    pos_scores = pos_scores + bias[bi]
                scores_by_group = {g: pos_scores[idx] for g, idx in by_group.items()}
                epoch_loss += hooks.reg_weight * fairness_penalty(scores_by_group, hooks.regularizer)
                grads = fairness_penalty_grad(scores_by_group, hooks.regularizer)
                ds = np.zeros(batch.size)
                for g, idx in by_group.items():
                    ds[idx] += grads[g]
                ds *= hooks.reg_weight
                _add_rows(P, bu, -lr * ds[:, None] * Qp)
                _add_rows(Q, bi, -lr * ds[:, None] * Pu)
                if bias is not None:
                    np.add.at(bias, bi, -lr * ds)

            if hooks.group_sampler == "minmax":
                batch_group_losses = {g: float(np.mean(sample_loss[idx])) for g, idx in by_group.items()}
                sampler_q, sampler_ema = minmax_sampler_update(
                    sampler_ema, batch_group_losses, hooks.sampler_step
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


CHECKPOINT_FORMAT_VERSION = 1
_MANIFEST_KEYS = ("format_version", "dim", "seed", "epochs", "lr", "l2", "batch_size")


def save_model(model: MFModel, directory: str | Path, hooks: TrainHooks | None = None) -> None:
    """Write the model as text embedding tables plus a manifest.

    The manifest holds every :class:`TrainConfig` field and, when given,
    every :class:`TrainHooks` field, so ``TrainHooks(**manifest["hooks"])``
    and the loaded config retrain the same model.
    """
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dim": model.config.dim,
        "seed": model.config.seed,
        "epochs": model.config.epochs,
        "lr": model.config.lr,
        "l2": model.config.l2,
        "batch_size": model.config.batch_size,
        "use_item_bias": model.config.use_item_bias,
        "ips_smooth": model.config.ips_smooth,
        "loss_curve": [float(x) for x in model.loss_curve],
    }
    if hooks is not None:
        manifest["hooks"] = asdict(hooks)

    def write_table(path, ids, vecs, bias=None):
        lines = []
        for idx, entity in enumerate(ids):
            values = "\t".join(map(repr, vecs[idx].tolist()))
            if bias is not None:
                values += f"\t{float(bias[idx])!r}"
            lines.append(f"{entity}\t{values}\n")
        replace_file(path, "".join(lines))

    with writing(directory, "model") as directory:
        replace_file(directory / "manifest.yaml", yaml.safe_dump(manifest, sort_keys=True))
        write_table(directory / "user_vecs.tsv", model.user_ids, model.user_vecs)
        write_table(directory / "item_vecs.tsv", model.item_ids, model.item_vecs, model.item_bias)


def load_model(directory: str | Path) -> MFModel:
    """Read back a checkpoint written by :func:`save_model`."""
    directory = Path(directory)
    manifest_path = directory / "manifest.yaml"
    manifest = read_yaml(manifest_path, "model manifest", required=_MANIFEST_KEYS)
    if manifest["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise VersionError(f"checkpoint version {manifest['format_version']} unsupported")
    try:
        config = TrainConfig(
            dim=int(manifest["dim"]),
            epochs=int(manifest["epochs"]),
            lr=float(manifest["lr"]),
            l2=float(manifest["l2"]),
            batch_size=int(manifest["batch_size"]),
            seed=int(manifest["seed"]),
            use_item_bias=bool(manifest.get("use_item_bias")),
            ips_smooth=float(manifest.get("ips_smooth", 0.0)),  # absent from checkpoints that predate it
        )
        loss_curve = [float(x) for x in manifest.get("loss_curve", [])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{manifest_path}: {exc}") from None

    def read_vectors(name, extra_col):
        ids, rows, extras = [], [], []
        path = directory / name
        for lineno, fields in read_table(path, "embedding", 1 + config.dim + extra_col):
            ids.append(fields[0])
            try:
                values = [float(x) for x in fields[1:]]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if extra_col:
                extras.append(values.pop())
            rows.append(values)
        return ids, np.array(rows), (np.array(extras) if extra_col else None)

    user_ids, user_vecs, _ = read_vectors("user_vecs.tsv", extra_col=False)
    item_ids, item_vecs, bias = read_vectors("item_vecs.tsv", extra_col=config.use_item_bias)
    return MFModel(
        user_ids=user_ids,
        item_ids=item_ids,
        user_vecs=user_vecs,
        item_vecs=item_vecs,
        item_bias=bias,
        config=config,
        loss_curve=loss_curve,
    )
