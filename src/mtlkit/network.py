"""Shared convolutional trunk with two sibling fully-connected heads.

The trunk is a scaled-down residual stack: conv -> relu -> maxpool ->
residual blocks -> global average pool. The pooled feature vector feeds
both the multi-label "lesion" head and the single-label "location" head,
so gradients from either task shape the shared representation.

Checkpoint layout (little-endian):
    magic "MTLK", u32 version=1, u32 param count,
    per param: u32 ndim, u32 dims..., f64 values,
    u32 momentum-buffer count, buffers in the same per-param encoding,
    u32 blob length, JSON training-state blob: the net's config, P, Q and
    seed plus the caller's fields (train writes optimizer, epoch, mode and
    augment).
The parameters are stored in param_table order. The momentum buffers are
none, or one per parameter that the state's mode trains (every parameter
when the state names no mode), in the same order.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from . import tensor as T
from .data import check_ranges, need, read
from .errors import BadConfig, CheckpointError, ShapeMismatch
from .objective import TASKS

_MAGIC = b"MTLK"
_VERSION = 1


@dataclass
class NetConfig:
    in_channels: int = need(">= 1", 3)
    width: int = need(">= 1", 8)     # trunk channel count == pooled feature length K
    blocks: int = need(">= 0", 2)    # residual blocks after the stem
    head_w_mult: float = need(">= 0", 10.0)  # a head's lr multipliers; 0 freezes it
    head_b_mult: float = need(">= 0", 20.0)


@dataclass
class Param:
    name: str
    tensor: T.Tensor
    lr_mult: float = 1.0
    task: str | None = None   # the head's task; None for the trunk


def param_table(config: NetConfig, P: int, Q: int):
    """(name, shape, lr_mult, task) of each parameter of DualHeadNet(config,
    P, Q) in order: the trunk (task None), then the lesion and location
    heads. A generator, so a caller can stop before a huge blocks count."""
    w, c = config.width, config.in_channels
    yield "conv1_w", (w, c, 3, 3), 1.0, None
    yield "conv1_b", (w,), 1.0, None
    for i in range(config.blocks):
        yield f"block{i}_w1", (w, w, 3, 3), 1.0, None
        yield f"block{i}_b1", (w,), 1.0, None
        yield f"block{i}_w2", (w, w, 3, 3), 1.0, None
        yield f"block{i}_b2", (w,), 1.0, None
    for task, n in (("lesion", P), ("location", Q)):
        yield f"{task}_w", (w, n), config.head_w_mult, task
        yield f"{task}_b", (n,), config.head_b_mult, task


def _init(rng, shape):
    """Glorot-uniform for a weight, whose fans count a conv's 3x3 taps; zeros for a bias."""
    if len(shape) == 1:
        return np.zeros(shape)
    a = math.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
    return rng.uniform(-a, a, size=shape)


class DualHeadNet:
    """Shared trunk plus lesion (multi-label) and location (multi-class) heads.

    Each parameter of param_table is also an attribute, net.lesion_w say."""

    def __init__(self, config: NetConfig, P: int, Q: int, seed: int):
        if P < 1:
            raise BadConfig(f"P must be >= 1, got {P}")
        if Q < 2:
            raise BadConfig(f"Q must be >= 2 (softmax over one class is degenerate), got {Q}")
        check_ranges(config, "net.")
        self.config = config
        self.P = P
        self.Q = Q
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._params = [Param(name, T.Tensor(_init(rng, shape), requires_grad=True), mult, task)
                        for name, shape, mult, task in param_table(config, P, Q)]
        for p in self._params:
            setattr(self, p.name, p.tensor)

    @property
    def feature_dim(self) -> int:
        return self.config.width

    def parameters(self, tasks=("lesion", "location")) -> list[Param]:
        """Named parameters with learning-rate multipliers: the trunk, then
        the head of each task in tasks (objective.TASKS[mode] for a mode)."""
        return [p for p in self._params if p.task is None or p.task in tasks]

    def set_parameters(self, arrays):
        """Set every parameter, in table order, to the matching array."""
        for p, arr in zip(self.parameters(), arrays, strict=True):
            p.tensor.data = arr

    def forward(self, batch):
        """Run the trunk and both heads.

        Returns (lesion_logits BxP, location_logits BxQ, features BxK,
        conv_maps BxKxhxw). features is the spatial mean of conv_maps.
        """
        x = batch if isinstance(batch, T.Tensor) else T.Tensor(batch)
        if x.ndim != 4 or x.shape[1] != self.config.in_channels:
            raise ShapeMismatch(f"(B, {self.config.in_channels}, H, W)", x.shape, "forward")
        trunk = (p.tensor for p in self.parameters(()))
        h = T.relu(T.conv2d(x, next(trunk), next(trunk)))
        h = T.maxpool2d(h, 2)
        for w1, b1, w2, b2 in zip(trunk, trunk, trunk, trunk):  # the blocks, four at a time
            y = T.relu(T.conv2d(h, w1, b1))
            y = T.conv2d(y, w2, b2)
            h = T.relu(T.add(y, h))
        conv_maps = h
        features = T.global_avg_pool(conv_maps)
        lesion_logits = T.bias_add(T.matmul(features, self.lesion_w), self.lesion_b)
        location_logits = T.bias_add(T.matmul(features, self.location_w), self.location_b)
        return lesion_logits, location_logits, features, conv_maps

    def infer(self, images, batch_size: int = 20):
        """(lesion, location, features) float64 arrays; images are drawn
        batch_size per forward.

        The one choice of forward precision: each chunk is stacked as float32,
        so every op runs in float32 as in a training step, and the outputs
        are widened back to float64, which is exact."""
        it, outs = iter(images), []
        with T.no_grad():
            while chunk := list(islice(it, batch_size)):
                outs.append([t.data for t in self.forward(np.stack(chunk, dtype=np.float32))[:3]])
        return tuple(np.concatenate(col, dtype=np.float64) for col in zip(*outs))


# ---------------------------------------------------------------------------
# checkpoint serialization


def _write_array(buf: bytearray, arr: np.ndarray):
    buf += struct.pack("<I", arr.ndim)
    for d in arr.shape:
        buf += struct.pack("<I", d)
    buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _read_array(data: bytes, off: int):
    (ndim,) = struct.unpack_from("<I", data, off)
    off += 4
    dims = struct.unpack_from(f"<{ndim}I", data, off)
    off += 4 * ndim
    n = int(np.prod(dims)) if ndim else 1
    arr = np.frombuffer(data, dtype="<f8", count=n, offset=off).reshape(dims).copy()
    off += 8 * n
    return arr, off


def save_checkpoint(path, net: DualHeadNet, momentum_buffers=None, state=None):
    """Write net parameters plus optional optimizer buffers and state blob."""
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<I", _VERSION)
    params = net.parameters()
    buf += struct.pack("<I", len(params))
    for p in params:
        _write_array(buf, p.tensor.data)
    bufs = momentum_buffers or []
    buf += struct.pack("<I", len(bufs))
    for b in bufs:
        _write_array(buf, b)
    blob = dict(state or {})
    blob["config"] = asdict(net.config)
    blob["P"] = net.P
    blob["Q"] = net.Q
    blob["seed"] = net.seed
    raw = json.dumps(blob, sort_keys=True).encode()
    buf += struct.pack("<I", len(raw))
    buf += raw
    # write a sibling and rename it over path, so a crash mid-write never
    # leaves a truncated checkpoint where a good one was
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(bytes(buf))
    os.replace(tmp, path)


def load_checkpoint(path):
    """Rebuild the net from a checkpoint; returns (net, momentum_buffers, state),
    where the state's mode is "mtl" when the file names none."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e.strerror}") from None
    if data[:4] != _MAGIC:
        raise CheckpointError(f"bad magic in {path}")
    try:
        (version,) = struct.unpack_from("<I", data, 4)
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (n_params,) = struct.unpack_from("<I", data, 8)
        off = 12
        arrays = []
        for _ in range(n_params):
            arr, off = _read_array(data, off)
            arrays.append(arr)
        (n_bufs,) = struct.unpack_from("<I", data, off)
        off += 4
        buffers = []
        for _ in range(n_bufs):
            arr, off = _read_array(data, off)
            buffers.append(arr)
        (blob_len,) = struct.unpack_from("<I", data, off)
        off += 4
        state = json.loads(data[off : off + blob_len].decode())
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"{path} is truncated or corrupt: {e}") from None
    if not isinstance(state, dict):
        raise CheckpointError(f"{path}: state blob must be an object, got {type(state).__name__}")
    missing = [k for k in ("config", "P", "Q", "seed") if k not in state]
    if missing:
        raise CheckpointError(f"{path}: state blob lacks {', '.join(missing)}")
    mode = state.setdefault("mode", "mtl")   # a state without one is read as an mtl run's
    if not isinstance(mode, str) or mode not in TASKS:
        raise CheckpointError(f"{path}: unknown mode {mode!r}, not one of {tuple(TASKS)}")
    try:
        config = read(NetConfig, state.pop("config"), "config")
        P, Q = state.pop("P"), state.pop("Q")
        # check the shapes before building: a huge P or width would allocate
        # first; the table is read one entry past the arrays and no further
        table = list(islice(param_table(config, P, Q), len(arrays) + 1))
        if [a.shape for a in arrays] != [shape for _, shape, _, _ in table]:
            raise CheckpointError(f"{path}: stored parameter shapes do not match the "
                                  f"net config, P={P!r} and Q={Q!r}")
        # inference runs in float32, where a larger parameter would overflow silently
        for (name, *_), a in zip(table, arrays):
            if not np.all(np.abs(a) <= np.finfo(np.float32).max):
                raise CheckpointError(f"{path}: parameter {name} is not finite or exceeds "
                                      f"float32's range")
        if buffers:
            # one per parameter the stored mode trains; every parameter without a mode
            trained = [(name, shape) for name, shape, _, task in table
                       if task in (None, *TASKS[mode])]
            if [b.shape for b in buffers] != [shape for _, shape in trained]:
                raise CheckpointError(f"{path}: stored momentum buffers do not match the "
                                      f"parameters that mode {mode!r} trains")
            for (name, _), b in zip(trained, buffers):
                if not np.isfinite(b).all():
                    raise CheckpointError(f"{path}: the momentum buffer of {name} is not finite")
        net = DualHeadNet(config, P, Q, state.pop("seed"))
    except (BadConfig, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad net config or dimensions: {e}") from None
    net.set_parameters(arrays)
    return net, buffers, state
