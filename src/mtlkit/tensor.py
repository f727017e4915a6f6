"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery for a small convolutional dual-head network: the op
set is matmul, conv2d, maxpool2d, global_avg_pool, relu, add, scale,
bias_add, flatten, plus scalar reductions (tsum, sum_squares). Tensors
form an implicit DAG through parent links; ``backward`` walks it in
reverse topological order and accumulates gradients additively, so using
a tensor twice yields the sum of both path gradients.

Conventions fixed for determinism:
  * everything is float64, row-major;
  * relu's subgradient at exactly 0 is 0;
  * maxpool ties go to the first element of the window in row-major
    order (window element n = i*k + j, the lowest n wins), and the
    whole output gradient of the window lands on that element;
  * broadcasting is limited to bias_add over the channel/feature axis.

Layout: conv2d keeps its im2col matrix as (B, C*kh*kw, Ho*Wo), pixels
contiguous, so the forward pass is one batched matmul whose result is
already NCHW, and neither pass copies a transpose. maxpool2d stacks the
k*k strided views of each window into a leading axis.
"""

from __future__ import annotations

import numpy as np

from .errors import NonScalarRoot, ShapeMismatch


class Tensor:
    """A dense float64 array plus a lazily allocated gradient."""

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

    def zero_grad(self):
        self.grad = None

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


def _accumulate(t: Tensor, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def backward(root: Tensor) -> None:
    """Populate grads of everything ``root`` depends on.

    ``root`` must be scalar-shaped. Nodes are visited in reverse
    topological order, so every gradient is complete before it is
    consumed by the parents' backward rules.
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
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    out = np.where(mask, x.data, 0.0)

    def bwd(g):
        _accumulate(x, g * mask)

    return _result(out, (x,), bwd)


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.shape != y.shape:
        raise ShapeMismatch(x.shape, y.shape, "add")

    def bwd(g):
        _accumulate(x, g)
        _accumulate(y, g)

    return _result(x.data + y.data, (x, y), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        _accumulate(x, g * c)

    return _result(x.data * c, (x,), bwd)


def flatten(x: Tensor) -> Tensor:
    if x.ndim < 2:
        raise ShapeMismatch("ndim >= 2", x.shape, "flatten")
    b = x.shape[0]
    orig = x.shape

    def bwd(g):
        _accumulate(x, g.reshape(orig))

    return _result(x.data.reshape(b, -1), (x,), bwd)


def tsum(x: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(x, np.full(x.shape, float(g)))

    return _result(np.float64(x.data.sum()), (x,), bwd)


def sum_squares(x: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(x, 2.0 * float(g) * x.data)

    return _result(np.float64((x.data * x.data).sum()), (x,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(x: Tensor, w: Tensor) -> Tensor:
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"({x.shape[0]}, K) @ (K, n)", (x.shape, w.shape), "matmul")

    def bwd(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)

    return _result(x.data @ w.data, (x, w), bwd)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias over the feature axis (2-D x) or channel axis (4-D x)."""
    if b.ndim != 1:
        raise ShapeMismatch("1-D bias", b.shape, "bias_add")
    if x.ndim == 2:
        if x.shape[1] != b.shape[0]:
            raise ShapeMismatch(x.shape[1], b.shape[0], "bias_add")
        out = x.data + b.data

        def bwd(g):
            _accumulate(x, g)
            _accumulate(b, g.sum(axis=0))

    elif x.ndim == 4:
        if x.shape[1] != b.shape[0]:
            raise ShapeMismatch(x.shape[1], b.shape[0], "bias_add")
        out = x.data + b.data[None, :, None, None]

        def bwd(g):
            _accumulate(x, g)
            _accumulate(b, g.sum(axis=(0, 2, 3)))

    else:
        raise ShapeMismatch("2-D or 4-D input", x.shape, "bias_add")
    return _result(out, (x, b), bwd)


# ---------------------------------------------------------------------------
# convolution / pooling


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of a B,C,H,W batch with O,C,kh,kw filters."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch("4-D input and weight", (x.shape, w.shape), "conv2d")
    bsz, cin, h, wd = x.shape
    cout, cw, kh, kw = w.shape
    if cw != cin:
        raise ShapeMismatch(cin, cw, "conv2d channels")
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    hp, wp = h + 2 * padding, wd + 2 * padding
    if hp < kh or wp < kw:
        raise ShapeMismatch(f"image >= kernel {kh}x{kw}", (hp, wp), "conv2d")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    # im2col matrix (B, C*kh*kw, Ho*Wo), pixels contiguous, cached for the
    # backward pass: row c*kh*kw + i*kw + j holds tap (i, j) of channel c
    # at every output pixel
    cols = np.empty((bsz, cin, kh, kw, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols = cols.reshape(bsz, cin * kh * kw, ho * wo)
    wmat = w.data.reshape(cout, -1)
    out = np.matmul(wmat, cols).reshape(bsz, cout, ho, wo)

    def bwd(g):
        g3 = g.reshape(bsz, cout, ho * wo)
        _accumulate(w, np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
        if x.requires_grad or x._parents:
            gcols = np.matmul(wmat.T, g3).reshape(bsz, cin, kh, kw, ho, wo)
            gxp = np.zeros((bsz, cin, hp, wp))
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[
                        :, :, i, j
                    ]
            if padding:
                gxp = gxp[:, :, padding : hp - padding, padding : wp - padding]
            _accumulate(x, gxp)

    return _result(out, (x, w), bwd)


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
        _accumulate(x, gx.reshape(bsz, c, h, wd))

    return _result(out, (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean over H, W: (B, C, H, W) -> (B, C)."""
    if x.ndim != 4:
        raise ShapeMismatch("4-D input", x.shape, "global_avg_pool")
    _, _, h, wd = x.shape
    area = h * wd

    def bwd(g):
        _accumulate(x, np.broadcast_to(g[:, :, None, None] / area, x.shape).copy())

    return _result(x.data.mean(axis=(2, 3)), (x,), bwd)
