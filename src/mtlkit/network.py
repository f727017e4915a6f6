"""Shared convolutional trunk with two sibling fully-connected heads.

The trunk is a scaled-down residual stack: conv -> relu -> maxpool ->
residual blocks -> global average pool. The pooled feature vector feeds
both the multi-label "lesion" head and the single-label "location" head,
so gradients from either task shape the shared representation.

Checkpoint layout (little-endian):
    magic "MTLK", u32 version=1, u32 param count,
    per param: u32 ndim, u32 dims..., f64 values,
    u32 momentum-buffer count, buffers in the same per-param encoding,
    u32 blob length, JSON training-state blob (net config, lr, epoch,
    plateau counters).
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
from .errors import BadConfig, CheckpointError, ShapeMismatch

_MAGIC = b"MTLK"
_VERSION = 1


@dataclass
class NetConfig:
    in_channels: int = 3
    width: int = 8          # trunk channel count == pooled feature length K
    blocks: int = 2         # residual blocks after the stem
    head_w_mult: float = 10.0
    head_b_mult: float = 20.0


@dataclass
class Param:
    name: str
    tensor: T.Tensor
    lr_mult: float = 1.0


def _glorot(rng, shape, fan_in, fan_out):
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


class DualHeadNet:
    """Shared trunk plus lesion (multi-label) and location (multi-class) heads."""

    def __init__(self, config: NetConfig, P: int, Q: int, seed: int):
        if P < 1:
            raise BadConfig(f"P must be >= 1, got {P}")
        if Q < 2:
            raise BadConfig(f"Q must be >= 2 (softmax over one class is degenerate), got {Q}")
        if config.in_channels < 1 or config.width < 1 or config.blocks < 0:
            raise BadConfig(f"inconsistent net config: {asdict(config)}")
        self.config = config
        self.P = P
        self.Q = Q
        self.seed = seed

        rng = np.random.default_rng(seed)
        w = config.width
        c = config.in_channels
        self.conv1_w = T.Tensor(_glorot(rng, (w, c, 3, 3), c * 9, w * 9), requires_grad=True)
        self.conv1_b = T.Tensor(np.zeros(w), requires_grad=True)
        self.blocks = []
        for _ in range(config.blocks):
            blk = tuple(
                T.Tensor(_glorot(rng, (w, w, 3, 3), w * 9, w * 9), requires_grad=True)
                if i % 2 == 0
                else T.Tensor(np.zeros(w), requires_grad=True)
                for i in range(4)  # w1, b1, w2, b2
            )
            self.blocks.append(blk)
        k = w
        self.lesion_w = T.Tensor(_glorot(rng, (k, P), k, P), requires_grad=True)
        self.lesion_b = T.Tensor(np.zeros(P), requires_grad=True)
        self.location_w = T.Tensor(_glorot(rng, (k, Q), k, Q), requires_grad=True)
        self.location_b = T.Tensor(np.zeros(Q), requires_grad=True)

    @property
    def feature_dim(self) -> int:
        return self.config.width

    def parameters(self, tasks=("lesion", "location")) -> list[Param]:
        """Named parameters with learning-rate multipliers: the trunk, then
        the head of each task in tasks (objective.TASKS[mode] for a mode)."""
        ps = [Param("conv1_w", self.conv1_w), Param("conv1_b", self.conv1_b)]
        for i, (w1, b1, w2, b2) in enumerate(self.blocks):
            ps += [
                Param(f"block{i}_w1", w1),
                Param(f"block{i}_b1", b1),
                Param(f"block{i}_w2", w2),
                Param(f"block{i}_b2", b2),
            ]
        for task in tasks:
            ps += [Param(f"{task}_w", getattr(self, f"{task}_w"), self.config.head_w_mult),
                   Param(f"{task}_b", getattr(self, f"{task}_b"), self.config.head_b_mult)]
        return ps

    def forward(self, batch):
        """Run the trunk and both heads.

        Returns (lesion_logits BxP, location_logits BxQ, features BxK,
        conv_maps BxKxhxw). features is the spatial mean of conv_maps.
        """
        x = batch if isinstance(batch, T.Tensor) else T.Tensor(batch)
        if x.ndim != 4 or x.shape[1] != self.config.in_channels:
            raise ShapeMismatch(f"(B, {self.config.in_channels}, H, W)", x.shape, "forward")
        h = T.relu(T.conv2d(x, self.conv1_w, self.conv1_b, padding=1))
        h = T.maxpool2d(h, 2)
        for w1, b1, w2, b2 in self.blocks:
            y = T.relu(T.conv2d(h, w1, b1, padding=1))
            y = T.conv2d(y, w2, b2, padding=1)
            h = T.relu(T.add(y, h))
        conv_maps = h
        features = T.global_avg_pool(conv_maps)
        lesion_logits = T.bias_add(T.matmul(features, self.lesion_w), self.lesion_b)
        location_logits = T.bias_add(T.matmul(features, self.location_w), self.location_b)
        return lesion_logits, location_logits, features, conv_maps

    def infer(self, images, batch_size: int = 20):
        """(lesion, location, features) arrays; images are drawn batch_size per forward."""
        it, outs = iter(images), []
        with T.no_grad():
            while chunk := list(islice(it, batch_size)):
                outs.append([t.data for t in self.forward(np.stack(chunk))[:3]])
        return tuple(np.concatenate(col) for col in zip(*outs))


# ---------------------------------------------------------------------------
# checkpoint serialization


def _param_shapes(config: NetConfig, P: int, Q: int) -> list[tuple]:
    """Shapes of DualHeadNet(config, P, Q).parameters(), in order, without building it."""
    w, c = config.width, config.in_channels
    trunk = [(w, c, 3, 3), (w,)] + [(w, w, 3, 3), (w,)] * (2 * config.blocks)
    return trunk + [(w, P), (P,), (w, Q), (Q,)]


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
    """Rebuild the net from a checkpoint; returns (net, momentum_buffers, state)."""
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
    try:
        config, P, Q = NetConfig(**state.pop("config")), state.pop("P"), state.pop("Q")
        # check the shapes before building: a huge P or width would allocate first
        if (len(arrays) != 4 * config.blocks + 6
                or [a.shape for a in arrays] != _param_shapes(config, P, Q)):
            raise CheckpointError(f"{path}: stored parameter shapes do not match the "
                                  f"net config, P={P!r} and Q={Q!r}")
        net = DualHeadNet(config, P, Q, state.pop("seed"))
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad net config or dimensions: {e}") from None
    for p, arr in zip(net.parameters(), arrays):
        p.tensor.data = arr
    return net, buffers, state
