"""Dense float32/float64 tensors with reverse-mode automatic differentiation.

Just enough machinery for a small convolutional dual-head network: the op
set is matmul, conv2d (same-padded, with its per-channel bias), maxpool2d,
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
A rule may read its parents' ``.data`` (conv2d rebuilds its im2col matrix
from x's, matmul and sum_squares read x's), so nothing may write into a
tensor's data in place between its forward and backward passes; SGD
rebinds a parameter's ``.data`` and never writes into it.

Inference contract: ops inside ``with no_grad():`` return results with no
parents, no backward rule and requires_grad False, so no mask or input
outlives its op; exiting, even by raising, restores the prior mode.

Precision contract: a Tensor holds float32 data as float32 and widens
anything else to float64. Each op computes in the dtype of its activation
input, casting its parameter operands (the w and b of conv2d, matmul and
bias_add) to it for the call; the scalar reductions return a float64 value.
Every backward rule returns each gradient in its parent's dtype, so a
float32 batch runs forward and backward in float32 while float64 leaves
still receive float64 ``.grad``. A float64 batch still runs in float64,
but no mtlkit forward sends one: training steps, ``DualHeadNet.infer``
and ``analysis.attention`` all cast their batch to float32.

Conventions fixed for determinism:
  * arrays are row-major;
  * relu's subgradient at exactly 0 is 0;
  * relu's output is ``np.fmax(x, 0.0) + 0.0``, byte for byte
    ``np.where(x > 0, x, 0.0)``: fmax sends NaN to 0, keeps +-inf, and may
    keep a -0.0, which the +0.0 turns into +0.0;
  * maxpool ties go to the first element of the window in row-major
    order (window element n = i*k + j, the lowest n wins), and the
    whole output gradient of the window lands on that element;
  * broadcasting is limited to bias_add over the feature axis of a 2-D
    input and conv2d's bias over the output channels.

Layout: conv2d lays out its im2col matrix as (B, C*kh*kw, H*W), pixels
contiguous, so the forward pass is one batched matmul, with the bias added
in place, whose result is already NCHW, and neither pass copies a
transpose. The graph keeps no matrix: the forward pass drops it after its
matmul, and the backward pass rebuilds the same bytes for the weight
gradient from the x the graph already holds, trading one more im2col per
backward for C*kh*kw times x's memory per conv (the rematerialisation of
Chen et al., 2016, "Training Deep Nets with Sublinear Memory Cost").
conv2d is same-padded only (stride 1, odd kh and kw, output H x W). It pads
only the two ends of the flattened image, so one strided view over it holds
every tap and one copy fills the matrix; rows above and below the image read
the zero ends, and only the columns whose shift wraps a row are zeroed after.
Its input gradient is the same im2col of the output gradient times the
flipped kernel with its channel axes swapped: the unpadded (B, C, H, W)
gradient with no col2im scatter. maxpool2d finds each window's winner on
a stack of the k*k strided window views, then turns it into a flat position
in x through a cached per-shape table: the forward pass is one ``take`` and
the backward pass one scatter into zeros.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import NonScalarRoot, ShapeMismatch

_grad_enabled = True  # False inside no_grad()

class Tensor:
    """A dense float32 or float64 array plus, on a leaf, a gradient that may be shared."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
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


@contextmanager
def no_grad():
    """Record no graph inside the block (the inference contract above)."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
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
    # The mask is taken here, not from out inside bwd: that gave the same
    # bytes, but its short-lived array made glibc trim and regrow the heap,
    # and a perfbench train_val unit took 3-8x as many page faults.
    mask = x.data > 0.0
    out = np.fmax(x.data, 0.0)
    out += 0.0  # -0.0 -> +0.0; with fmax's NaN -> 0 this is np.where(x > 0, x, 0.0)

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
        return (np.full(x.shape, float(g), x.data.dtype),)

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

    wc = w.data.astype(x.data.dtype, copy=False)

    def bwd(g):
        return g @ wc.T, (x.data.T @ g).astype(w.data.dtype, copy=False)

    return _result(x.data @ wc, (x, w), bwd)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias over the feature axis of a 2-D (B, n) input."""
    if x.ndim != 2 or b.shape != x.shape[1:]:
        raise ShapeMismatch("(B, n) input and (n,) bias", (x.shape, b.shape), "bias_add")

    def bwd(g):
        return g, g.sum(axis=0).astype(b.data.dtype, copy=False)

    return _result(x.data + b.data.astype(x.data.dtype, copy=False), (x, b), bwd)


# ---------------------------------------------------------------------------
# convolution / pooling


def _im2col_same(x, kh, kw):
    """C-contiguous im2col matrix (B, C*kh*kw, H*W) of x zero-padded by
    ph = (kh-1)/2 rows and pw = (kw-1)/2 columns (odd kh, kw): row c*kh*kw +
    i*kw + j, column r*W + s holds x[:, c, r + i - ph, s + j - pw], or 0 outside
    the image. Tap (i, j) is the H*W window at i*W + j of the flat image padded
    with m = ph*W + pw zeros at each end, so one strided view copies every tap
    and rows outside the image read those zeros; only wrapped columns are zeroed."""
    bsz, c, h, wd = x.shape
    ph, pw, n = kh // 2, kw // 2, h * wd
    m = ph * wd + pw
    flat = np.zeros((bsz, c, n + 2 * m), x.dtype)
    flat[:, :, m : m + n] = x.reshape(bsz, c, n)
    s0, s1, s2 = flat.strides
    cols = np.ndarray((bsz, c, kh, kw, n), x.dtype, flat, 0, (s0, s1, wd * s2, s2, s2)).copy()
    taps = cols.reshape(bsz, c, kh, kw, h, wd)
    for j in range(kw):  # output columns s with s + j - pw outside [0, W)
        if j < pw:
            taps[:, :, :, j, :, : pw - j] = 0.0
        elif j > pw:
            taps[:, :, :, j, :, max(wd + pw - j, 0) :] = 0.0
    return cols.reshape(bsz, c * kh * kw, n)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded 2-D cross-correlation of a B,C,H,W batch with O,C,kh,kw
    filters (odd kh and kw) at stride 1, plus a per-output-channel bias of
    shape (O,): the input is zero-padded by kh//2 rows and kw//2 columns, so
    the output is B,O,H,W."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch("4-D input and weight", (x.shape, w.shape), "conv2d")
    bsz, cin, h, wd = x.shape
    cout, cw, kh, kw = w.shape
    if cw != cin:
        raise ShapeMismatch(cin, cw, "conv2d channels")
    if b.shape != (cout,):
        raise ShapeMismatch((cout,), b.shape, "conv2d bias")
    if not kh % 2 == kw % 2 == 1:
        raise ShapeMismatch("an odd kernel height and width", (kh, kw), "conv2d")
    xd = x.data
    wc = w.data.astype(xd.dtype, copy=False)
    out = np.matmul(wc.reshape(cout, -1), _im2col_same(xd, kh, kw))
    out += b.data.astype(xd.dtype, copy=False)[:, None]

    def bwd(g):
        g3 = g.reshape(bsz, cout, h * wd)
        cols = _im2col_same(xd, kh, kw)  # rebuilt, not kept from the forward pass
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        del cols  # so the input gradient's matrix may take its block
        gw = gw.astype(w.data.dtype, copy=False)
        gb = g.sum(axis=(0, 2, 3)).astype(b.data.dtype, copy=False)
        if not x.requires_grad:
            return None, gw, gb
        # the input gradient: see Layout in the module docstring
        gcols = _im2col_same(g.astype(xd.dtype, copy=False), kh, kw)
        wflip = wc[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        return np.matmul(wflip, gcols).reshape(bsz, cin, h, wd), gw, gb

    return _result(out.reshape(bsz, cout, h, wd), (x, w, b), bwd)


@lru_cache(maxsize=64)
def _pool_table(shape, k):
    """Flat positions in a C-contiguous array of ``shape`` (B, C, H, W):
    (base, offs), where base (B, C, H/k, W/k) holds each k x k window's first
    element and offs[n] the step from it to window element n = i*k + j.
    Cached and read-only, since every call of a shape shares the arrays."""
    bsz, c, h, wd = shape
    base = (np.arange(bsz * c).reshape(bsz, c, 1, 1) * (h * wd)
            + np.arange(0, h * wd, k * wd).reshape(-1, 1) + np.arange(0, wd, k))
    offs = np.array([i * wd + j for i in range(k) for j in range(k)])
    base.flags.writeable = offs.flags.writeable = False
    return base, offs


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
    base, offs = _pool_table(x.shape, k)
    pos = base + offs[idx]  # flat position of each window's element idx in x
    out = x.data.take(pos)

    def bwd(g):
        gx = np.zeros(x.size, x.data.dtype)
        gx[pos] = g
        return (gx.reshape(x.shape),)

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
