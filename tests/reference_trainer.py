"""Test-only trainer helpers: the per-sample trainer, a single-triple BPR loss and one-pair scoring.

``train`` updates whole batches at once and runs its fairness hooks on
arrays; ``reference_train`` is the per-sample form it replaced (2-D
``np.add.at``, per-sample group lists and weights, one scalar draw per
minmax pick, IPS popularity counted one record at a time by
``reference_ips_weights``), and the per-triple and per-pair forms are what
the gradient and ranking tests compare it against.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from fairrank.core import Catalog, DualState
from fairrank.errors import DivergenceError, InvariantViolation, UnknownEntity, ZeroPopularity
from fairrank.ingest import SplitDataset
from fairrank.trainer import (
    MFModel,
    TrainConfig,
    TrainHooks,
    _draw_negatives,
    fairness_penalty,
    fairness_penalty_grad,
    minmax_sampler_update,
)

from reference_ingest import Interaction, records_of


def score(model: MFModel, user: str, item: str) -> float:
    ui = model._user_index.get(user)
    ii = model._item_index.get(item)
    if ui is None:
        raise UnknownEntity(f"user {user!r} not in model")
    if ii is None:
        raise UnknownEntity(f"item {item!r} not in model")
    s = float(model.user_vecs[ui] @ model.item_vecs[ii])
    if model.item_bias is not None:
        s += float(model.item_bias[ii])
    return s


def bpr_triple_loss(
    p_u: np.ndarray,
    q_pos: np.ndarray,
    q_neg: np.ndarray,
    weight: float,
    l2: float,
    b_pos: float = 0.0,
    b_neg: float = 0.0,
    use_bias: bool = False,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Loss and analytic gradients of a single weighted BPR triple.

    Returns ``(loss, g_pu, g_qpos, g_qneg, g_bpos, g_bneg)``.
    """
    x = float(p_u @ (q_pos - q_neg))
    if use_bias:
        x += b_pos - b_neg
    loss = weight * float(np.logaddexp(0.0, -x))
    reg = l2 * float(p_u @ p_u + q_pos @ q_pos + q_neg @ q_neg)
    if use_bias:
        reg += l2 * (b_pos**2 + b_neg**2)
    sig = float(1.0 / (1.0 + np.exp(x)))  # sigma(-x)
    coef = weight * sig
    g_pu = -coef * (q_pos - q_neg) + 2.0 * l2 * p_u
    g_qpos = -coef * p_u + 2.0 * l2 * q_pos
    g_qneg = coef * p_u + 2.0 * l2 * q_neg
    g_bpos = (-coef + 2.0 * l2 * b_pos) if use_bias else 0.0
    g_bneg = (coef + 2.0 * l2 * b_neg) if use_bias else 0.0
    return loss + reg, g_pu, g_qpos, g_qneg, g_bpos, g_bneg


def reference_ips_weights(records: Sequence[Interaction], catalog: Catalog, smooth: float = 0.0) -> dict[str, float]:
    """``fairrank.trainer.ips_weights`` over records, one ``+= 1.0`` per record."""
    pop: dict[str, float] = {item: smooth for item in catalog.items}
    for rec in records:
        if rec.item not in pop:
            raise UnknownEntity(f"item {rec.item!r} not in catalog")
        pop[rec.item] += 1.0
    group_pop = {g: 0.0 for g in catalog.groups}
    for item, p in pop.items():
        for g in catalog.item_groups[item]:
            group_pop[g] += p
    for g, p in group_pop.items():
        if p <= 0:
            raise ZeroPopularity(f"group {g!r} has zero popularity (consider smooth=1)")
    raw = {g: 1.0 / p for g, p in group_pop.items()}
    mean = sum(raw.values()) / len(raw)
    return {g: w / mean for g, w in raw.items()}


def reference_fairdual_step(
    state: DualState,
    batch_groups: Sequence[frozenset[str]],
    target_shares: Mapping[str, float] | None = None,
) -> tuple[np.ndarray, DualState]:
    """``fairrank.trainer.fairdual_step`` with one count per membership and one ``np.mean`` per sample."""
    state.validate(tol=1e-6)
    if not batch_groups:
        raise InvariantViolation("empty batch")
    groups = sorted(state.prices)
    if target_shares is None:
        target_shares = {g: 1.0 / len(groups) for g in groups}

    counts = {g: 0.0 for g in groups}
    total = 0.0
    for gs in batch_groups:
        for g in gs:
            if g not in counts:
                raise UnknownEntity(f"group {g!r} not in dual state")
            counts[g] += 1.0
            total += 1.0
    shares = {g: counts[g] / total for g in groups} if total > 0 else {g: 0.0 for g in groups}

    if state.budget == 0:
        return np.ones(len(batch_groups)), state

    gradient = {g: target_shares[g] - shares[g] for g in groups}
    new_state = state.exp_step(gradient, ascent=True)
    n = len(groups)
    norm_price = {g: n * new_state.prices[g] / new_state.budget for g in groups}
    weights = np.array([float(np.mean([norm_price[g] for g in sorted(gs)])) for gs in batch_groups])
    return weights, new_state


def reference_train(dataset: SplitDataset, config: TrainConfig, hooks: TrainHooks) -> MFModel:
    """``fairrank.trainer.train`` as it was written per sample.

    2-D ``np.add.at`` updates, per-sample IPS and fairdual weights, group
    members gathered per sample with ``setdefault``, and one scalar draw per
    minmax pick.  ``train`` must give bit-identical models.
    """
    cat = dataset.catalog
    train_records = records_of(dataset.train)
    if not train_records:
        raise InvariantViolation("train split is empty")

    users = list(cat.users)
    items = list(cat.items)
    groups = sorted(cat.groups)
    u_index = {u: i for i, u in enumerate(users)}
    i_index = {it: j for j, it in enumerate(items)}
    g_index = {g: j for j, g in enumerate(groups)}

    pos_mask = np.zeros((len(users), len(items)), dtype=bool)
    pos_u: list[int] = []
    pos_i: list[int] = []
    for rec in train_records:
        pos_mask[u_index[rec.user], i_index[rec.item]] = True
        pos_u.append(u_index[rec.user])
        pos_i.append(i_index[rec.item])
    # Users interacting with every item admit no negative sample; drop their triples.
    full_rows = set(np.flatnonzero(pos_mask.sum(axis=1) >= len(items)).tolist())
    keep = [k for k in range(len(pos_u)) if pos_u[k] not in full_rows]
    if not keep:
        raise InvariantViolation("no user admits a negative sample")
    pos_u_arr = np.array([pos_u[k] for k in keep])
    pos_i_arr = np.array([pos_i[k] for k in keep])
    n_pos = pos_u_arr.size

    item_member: list[frozenset[str]] = [cat.item_groups[it] for it in items]
    group_members_idx: dict[int, np.ndarray] = {}
    for g in groups:
        gj = g_index[g]
        rows = [k for k in range(n_pos) if g in item_member[pos_i_arr[k]]]
        group_members_idx[gj] = np.array(rows, dtype=int)

    rng = np.random.default_rng(config.seed)
    P = rng.normal(0.0, 0.1, size=(len(users), config.dim))
    Q = rng.normal(0.0, 0.1, size=(len(items), config.dim))
    bias = np.zeros(len(items)) if config.use_item_bias else None

    ips_map: dict[str, float] | None = None
    if hooks.weight_provider == "ips":
        ips_map = reference_ips_weights(train_records, cat, smooth=config.ips_smooth)
    dual = DualState.uniform(hooks.dual_budget, groups, hooks.dual_step)
    sampler_ema: dict[str, float] | None = None
    sampler_q: dict[str, float] = {g: 1.0 / len(groups) for g in groups}
    eligible_groups = [g_index[g] for g in groups if group_members_idx[g_index[g]].size > 0]

    loss_curve: list[float] = []
    for epoch in range(config.epochs):
        if hooks.group_sampler == "uniform":
            order = rng.permutation(n_pos)
        else:
            probs = np.array([sampler_q.get(groups[gj], max(sampler_q.values())) for gj in eligible_groups])
            probs = probs / probs.sum()
            drawn = rng.choice(len(eligible_groups), size=n_pos, p=probs)
            order = np.empty(n_pos, dtype=int)
            for k, gsel in enumerate(drawn):
                pool = group_members_idx[eligible_groups[gsel]]
                order[k] = pool[rng.integers(0, pool.size)]

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
                w = np.array(
                    [float(np.mean([ips_map[g] for g in sorted(item_member[i])])) for i in bi]
                )
            else:
                batch_sets = [item_member[i] for i in bi]
                w, dual = reference_fairdual_step(dual, batch_sets)

            sig = 1.0 / (1.0 + np.exp(x))
            coef = w * sig
            sample_loss = w * np.logaddexp(0.0, -x)
            epoch_loss += float(sample_loss.sum())

            lr = config.lr
            l2 = config.l2
            np.add.at(P, bu, -lr * (-coef[:, None] * (Qp - Qn) + 2.0 * l2 * Pu))
            np.add.at(Q, bi, -lr * (-coef[:, None] * Pu + 2.0 * l2 * Qp))
            np.add.at(Q, bn, -lr * (coef[:, None] * Pu + 2.0 * l2 * Qn))
            if bias is not None:
                np.add.at(bias, bi, -lr * (-coef + 2.0 * l2 * bias[bi]))
                np.add.at(bias, bn, -lr * (coef + 2.0 * l2 * bias[bn]))

            if hooks.regularizer != "none" and hooks.reg_weight > 0:
                pos_scores = np.einsum("bd,bd->b", Pu, Qp)
                if bias is not None:
                    pos_scores = pos_scores + bias[bi]
                by_group: dict[str, list[int]] = {}
                for k, i in enumerate(bi):
                    for g in item_member[i]:
                        by_group.setdefault(g, []).append(k)
                scores_by_group = {g: pos_scores[np.array(idx)] for g, idx in sorted(by_group.items())}
                epoch_loss += hooks.reg_weight * fairness_penalty(scores_by_group, hooks.regularizer)
                grads = fairness_penalty_grad(scores_by_group, hooks.regularizer)
                ds = np.zeros(batch.size)
                for g, idx in sorted(by_group.items()):
                    ds[np.array(idx)] += grads[g]
                ds *= hooks.reg_weight
                np.add.at(P, bu, -lr * ds[:, None] * Qp)
                np.add.at(Q, bi, -lr * ds[:, None] * Pu)
                if bias is not None:
                    np.add.at(bias, bi, -lr * ds)

            if hooks.group_sampler == "minmax":
                losses_by_group: dict[str, list[float]] = {}
                for k, i in enumerate(bi):
                    for g in item_member[i]:
                        losses_by_group.setdefault(g, []).append(float(sample_loss[k]))
                batch_group_losses = {g: float(np.mean(v)) for g, v in sorted(losses_by_group.items())}
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
