"""Joint training objective: multi-label cross-entropy for lesions plus
weighted softmax cross-entropy for body locations.

Both losses are batch means over numerically stable closed forms:
log sigmoid(s) = -softplus(-s) and log softmax(t)_v = t_v - logsumexp(t),
so logits up to |1e4| stay finite. Each loss computes its value in float64
whatever the logits' dtype and returns its gradient in the logits' dtype,
so a float32 forward stays float32 through backward. Location labels are
1-based (v in {1..Q}), matching the dataset contract. Weight decay is not
part of the objective: the optimizer applies it as wd * theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import BadConfig, BadLabel
from .tensor import Tensor, _result

# mode -> the tasks it trains, main task first
TASKS = {"mtl": ("lesion", "location"), "lesion_only": ("lesion",), "location_only": ("location",)}


@dataclass
class LossBreakdown:
    lesion_loss: float | None     # None when the mode does not train that head
    location_loss: float | None
    total: float                  # value of the optimised node


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable elementwise logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for a 2-D array (or a single row)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def lesion_loss(lesion_logits: Tensor, u) -> Tensor:
    """Batch-mean multi-label cross-entropy against binary targets u (BxP)."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != lesion_logits.shape:
        raise BadLabel(f"label shape {u.shape} does not match logits {lesion_logits.shape}")
    if not np.isin(u, (0.0, 1.0)).all():
        raise BadLabel("lesion labels must be binary")
    s = lesion_logits.data.astype(np.float64, copy=False)
    bsz = s.shape[0]
    # -[u log a + (1-u) log(1-a)] = u*softplus(-s) + (1-u)*softplus(s)
    per_elem = u * _softplus(-s) + (1.0 - u) * _softplus(s)
    value = per_elem.sum() / bsz

    def bwd(g):
        grad = float(g) * (sigmoid(s) - u) / bsz
        return (grad.astype(lesion_logits.data.dtype, copy=False),)

    return _result(np.float64(value), (lesion_logits,), bwd)


def location_loss(location_logits: Tensor, v) -> Tensor:
    """Batch-mean softmax cross-entropy; v holds 1-based class indices."""
    t = location_logits.data.astype(np.float64, copy=False)
    bsz, q = t.shape
    v = np.asarray(v)
    if v.shape != (bsz,):
        raise BadLabel(f"expected {bsz} location labels, got shape {v.shape}")
    if ((v < 1) | (v > q)).any():
        raise BadLabel(f"location labels must lie in 1..{q}")
    idx = v.astype(np.intp) - 1
    shifted = t - t.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + t.max(axis=1)
    value = (lse - t[np.arange(bsz), idx]).sum() / bsz

    def bwd(g):
        grad = softmax(t)
        grad[np.arange(bsz), idx] -= 1.0
        grad = float(g) * grad / bsz
        return (grad.astype(location_logits.data.dtype, copy=False),)

    return _result(np.float64(value), (location_logits,), bwd)


def task_loss(task: str, lesion_logits: Tensor, location_logits: Tensor, u, v) -> Tensor:
    """The loss node of one task of TASKS: lesion_loss or location_loss."""
    if task == "lesion":
        return lesion_loss(lesion_logits, u)
    return location_loss(location_logits, v)


def joint_loss(lesion_logits: Tensor, location_logits: Tensor, u, v,
               mode: str = "mtl", aux_weight: float = 1.0):
    """The training objective of one mode; returns (LossBreakdown, loss node).

    It builds the loss of each task in TASKS[mode]: mtl optimises lesion +
    aux_weight * location loss, a single-task mode its own loss (the other
    field None).
    """
    if mode not in TASKS:
        raise BadConfig(f"unknown objective mode {mode!r}")
    nodes = {t: task_loss(t, lesion_logits, location_logits, u, v) for t in TASKS[mode]}
    les, loc = nodes.get("lesion"), nodes.get("location")
    if les is None or loc is None:
        node = les if loc is None else loc
    else:
        node = T.add(les, T.scale(loc, aux_weight))
    breakdown = LossBreakdown(
        lesion_loss=None if les is None else float(les.data),
        location_loss=None if loc is None else float(loc.data),
        total=float(node.data),
    )
    return breakdown, node
