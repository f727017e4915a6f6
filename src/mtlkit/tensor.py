"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery for a small convolutional dual-head network: the op
set is matmul, conv2d (which adds its per-channel bias), maxpool2d,
global_avg_pool, relu, add, scale, bias_add (2-D), flatten, plus scalar
reductions (tsum, sum_squares). Tensors
form an implicit DAG through parent links; ``backward`` walks it in
reverse topological order and accumulates gradients additively, so using
a tensor twice yields the sum of both path gradients.

Gradient contract: ``_backward(g)`` returns one gradient per parent, in
``_parents`` order (None where none is needed), and never writes into a
gradient. ``backward`` sums what reaches a node out of place, frees it
once the node's rule has run and writes ``.grad`` only on leaves (adding
to one already there), so one graph may be walked from several roots.

Conventions fixed for determinism:
  * everything is float64, row-major;
  * relu's subgradient at exactly 0 is 0;
  * maxpool ties go to the first element of the window in row-major
    order (window element n = i*k + j, the lowest n wins), and the
    whole output gradient of the window lands on that element;
  * broadcasting is limited to bias_add over the feature axis of a 2-D
    input and conv2d's bias over the output channels.

Layout: conv2d keeps its im2col matrix as (B, C*kh*kw, Ho*Wo), pixels
contiguous, so the forward pass is one batched matmul, with the bias added
in place, whose result is already NCHW, and neither pass copies a
transpose. The input gradient has no col2im scatter: it is the im2col
(stride 1) of the output gradient, dilated by the stride and framed by
kh-1 / kw-1 zeros, times the flipped kernel with its channel axes swapped,
read at the padding offset so the result is already the unpadded
(B, C, H, W) gradient. maxpool2d stacks the k*k strided views of each
window into a leading axis.
"""

from __future__ import annotations

import numpy as np

from .errors import NonScalarRoot, ShapeMismatch


class Tensor:
    """A dense float64 array plus, on a leaf, a gradient that may be shared."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def backward(root: Tensor) -> None:
    """Add d root / d leaf to the ``.grad`` of every leaf ``root`` depends on.

    ``root`` must be scalar-shaped. Nodes are visited in reverse
    topological order, so every gradient is complete before it is
    consumed by the node's backward rule.
    """
    if root.size != 1:
        raise NonScalarRoot(f"backward root has {root.size} elements")
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is not None and p.requires_grad:
                key = id(p)
                grads[key] = pg if key not in grads else grads[key] + pg


# ---------------------------------------------------------------------------
# elementwise / structural ops


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    out = np.where(mask, x.data, 0.0)

    def bwd(g):
        return (g * mask,)

    return _result(out, (x,), bwd)


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.shape != y.shape:
        raise ShapeMismatch(x.shape, y.shape, "add")

    def bwd(g):
        return g, g

    return _result(x.data + y.data, (x, y), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _result(x.data * c, (x,), bwd)


def flatten(x: Tensor) -> Tensor:
    if x.ndim < 2:
        raise ShapeMismatch("ndim >= 2", x.shape, "flatten")
    b = x.shape[0]
    orig = x.shape

    def bwd(g):
        return (g.reshape(orig),)

    return _result(x.data.reshape(b, -1), (x,), bwd)


def tsum(x: Tensor) -> Tensor:
    def bwd(g):
        return (np.full(x.shape, float(g)),)

    return _result(np.float64(x.data.sum()), (x,), bwd)


def sum_squares(x: Tensor) -> Tensor:
    def bwd(g):
        return (2.0 * float(g) * x.data,)

    return _result(np.float64((x.data * x.data).sum()), (x,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(x: Tensor, w: Tensor) -> Tensor:
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"({x.shape[0]}, K) @ (K, n)", (x.shape, w.shape), "matmul")

    def bwd(g):
        return g @ w.data.T, x.data.T @ g

    return _result(x.data @ w.data, (x, w), bwd)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias over the feature axis of a 2-D (B, n) input."""
    if x.ndim != 2 or b.shape != x.shape[1:]:
        raise ShapeMismatch("(B, n) input and (n,) bias", (x.shape, b.shape), "bias_add")

    def bwd(g):
        return g, g.sum(axis=0)

    return _result(x.data + b.data, (x, b), bwd)


# ---------------------------------------------------------------------------
# convolution / pooling


def _im2col(xp, kh, kw, stride, ho, wo, off=0):
    """im2col matrix (B, C*kh*kw, Ho*Wo) of xp, pixels contiguous: row
    c*kh*kw + i*kw + j, column r*Wo + s holds xp[:, c, off + i + stride*r,
    off + j + stride*s], tap (i, j) of channel c at output pixel (r, s)."""
    bsz, c = xp.shape[:2]
    cols = np.empty((bsz, c, kh, kw, ho, wo))
    for i in range(kh):
        for j in range(kw):
            y, x = off + i, off + j
            cols[:, :, i, j] = xp[:, :, y : y + stride * ho : stride, x : x + stride * wo : stride]
    return cols.reshape(bsz, c * kh * kw, ho * wo)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of a B,C,H,W batch with O,C,kh,kw filters,
    plus a per-output-channel bias of shape (O,)."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch("4-D input and weight", (x.shape, w.shape), "conv2d")
    bsz, cin, h, wd = x.shape
    cout, cw, kh, kw = w.shape
    if cw != cin:
        raise ShapeMismatch(cin, cw, "conv2d channels")
    if b.shape != (cout,):
        raise ShapeMismatch((cout,), b.shape, "conv2d bias")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if hp < kh or wp < kw:
        raise ShapeMismatch(f"image >= kernel {kh}x{kw}", (hp, wp), "conv2d")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if padding:
        xp = np.zeros((bsz, cin, hp, wp))
        xp[:, :, padding : padding + h, padding : padding + wd] = x.data
    else:
        xp = x.data

    cols = _im2col(xp, kh, kw, stride, ho, wo)  # cached for the weight gradient
    wmat = w.data.reshape(cout, -1)
    out = np.matmul(wmat, cols)
    out += b.data[:, None]

    def bwd(g):
        g3 = g.reshape(bsz, cout, ho * wo)
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        gb = g.sum(axis=(0, 2, 3))
        if not x.requires_grad:
            return None, gw, gb
        # the input gradient: see Layout in the module docstring
        gd = np.zeros((bsz, cout, hp + kh - 1, wp + kw - 1))
        gd[:, :, kh - 1 : kh - 1 + stride * ho : stride,
           kw - 1 : kw - 1 + stride * wo : stride] = g
        wflip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        gcols = _im2col(gd, kh, kw, 1, h, wd, off=padding)
        return np.matmul(wflip, gcols).reshape(bsz, cin, h, wd), gw, gb

    return _result(out.reshape(bsz, cout, ho, wo), (x, w, b), bwd)


def maxpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pooling; requires exact tiling."""
    if x.ndim != 4:
        raise ShapeMismatch("4-D input", x.shape, "maxpool2d")
    bsz, c, h, wd = x.shape
    if h % k or wd % k:
        raise ShapeMismatch(f"H, W divisible by {k}", (h, wd), "maxpool2d")
    ho, wo = h // k, wd // k
    tiles = x.data.reshape(bsz, c, ho, k, wo, k)
    # (k*k, B, C, Ho, Wo): window element n = i*k + j is tiles[:, :, :, i, :, j]
    win = np.stack([tiles[:, :, :, i, :, j] for i in range(k) for j in range(k)])
    # idx equals win.argmax(axis=0) without the transpose copy argmax makes
    # for a leading axis: the first element equal to the max, or the first
    # NaN when the max is NaN. The output is the element at idx, so a -0.0
    # tied with 0.0 keeps its sign.
    top = win.max(axis=0)
    idx = np.zeros(top.shape, np.intp)
    found = np.zeros(top.shape, bool)
    for v in win[:-1]:
        found |= (v == top) | (v != v)
        idx += ~found
    flat = win.reshape(k * k, -1)
    out = flat[idx.reshape(-1), np.arange(flat.shape[1])].reshape(top.shape)

    def bwd(g):
        gx = np.empty((bsz, c, ho, k, wo, k))
        for n in range(k * k):
            gx[:, :, :, n // k, :, n % k] = np.where(idx == n, g, 0.0)
        return (gx.reshape(bsz, c, h, wd),)

    return _result(out, (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean over H, W: (B, C, H, W) -> (B, C)."""
    if x.ndim != 4:
        raise ShapeMismatch("4-D input", x.shape, "global_avg_pool")
    _, _, h, wd = x.shape
    area = h * wd

    def bwd(g):
        return (np.broadcast_to(g[:, :, None, None] / area, x.shape),)

    return _result(x.data.mean(axis=(2, 3)), (x,), bwd)
