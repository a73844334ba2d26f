"""Test-only trainer helpers: a single-triple BPR loss and one-pair scoring.

``train`` updates whole batches at once; these per-triple and per-pair forms
are what the gradient and ranking tests compare it against.
"""

from __future__ import annotations

import numpy as np

from fairrank.errors import UnknownEntity
from fairrank.trainer import MFModel


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
