"""Spans around the public functions of each mtlkit module, for the traced run.

The tracer wraps library functions from outside the library; nothing under
``src/`` knows about it. A function is wrapped under every name an mtlkit
module binds it to, because ``training.py`` binds ``backward``, ``augment``
and ``eval_transform`` at import and ``analysis.py`` binds ``eval_transform``:
wrapping only the defining module would record zero calls for those. The
backward rule of an op is timed by wrapping the ``_backward`` closure of each
Tensor the op returns, so ``tensor.backward`` minus its child spans is the
graph walk alone.

Each span adds its duration to its own busy time and to the child time of
the span that called it; self time is busy time minus child time.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

TENSOR_OPS = ("conv2d", "maxpool2d", "relu", "add", "scale", "flatten", "matmul",
              "bias_add", "global_avg_pool", "tsum", "sum_squares")
OTHER_OPS = tuple(op for op in TENSOR_OPS if op not in ("conv2d", "maxpool2d"))

# (module, function) pairs wrapped as spans named "<module>.<function>"
FUNCTIONS = (
    ("tensor", "backward"),
    ("network", "save_checkpoint"), ("network", "load_checkpoint"),
    ("objective", "joint_loss"), ("objective", "lesion_loss"), ("objective", "location_loss"),
    ("data", "load_manifest"), ("data", "read_ppm"), ("data", "augment"),
    ("data", "eval_transform"), ("data", "ten_crop"), ("data", "resize_bilinear"),
    ("metrics", "map_class"), ("metrics", "map_image"), ("metrics", "top_k_accuracy"),
    ("metrics", "average_precision"),
    ("training", "train"), ("training", "evaluate_scores"), ("training", "cross_validate"),
    ("analysis", "build_index"), ("analysis", "query_feature"), ("analysis", "retrieve"),
    ("analysis", "attention"),
)
# (module, class, method) triples wrapped as spans named "<module>.<method>"
METHODS = (("network", "DualHeadNet", "forward"), ("optim", "SGD", "step"))


class Tracer:
    """Context manager: wraps the library on entry and restores it on exit."""

    def __init__(self):
        self.busy = defaultdict(float)    # span name -> seconds, children included
        self.self_s = defaultdict(float)  # span name -> seconds, children excluded
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)  # computed from shapes and sizes, not timed
        self.eval_ids = set()             # distinct samples passed to eval_transform
        self._stack = []                  # open spans: [name, child seconds]
        self._patches = []                # (owner, attribute, original)

    def __enter__(self):
        mods = {name.split(".")[1]: mod for name, mod in sys.modules.items()
                if name.startswith("mtlkit.")}
        for op in TENSOR_OPS:
            after = self._after_conv2d if op == "conv2d" else self._after_op(op)
            self._wrap_everywhere(mods, mods["tensor"], op, f"tensor.{op}", after)
        hooks = {
            "network.save_checkpoint": self._after_save_checkpoint,
            "data.eval_transform": self._after_eval_transform,
            "objective.lesion_loss": self._after_loss("objective.lesion_loss"),
            "objective.location_loss": self._after_loss("objective.location_loss"),
        }
        for mod, fn in FUNCTIONS:
            name = f"{mod}.{fn}"
            self._wrap_everywhere(mods, mods[mod], fn, name, hooks.get(name))
        for mod, cls, meth in METHODS:
            owner = getattr(mods[mod], cls)
            after = self._after_forward if meth == "forward" else None
            self._patch(owner, meth, self._span(f"{mod}.{meth}", getattr(owner, meth), after))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_everywhere(self, mods, home, attr, name, after):
        fn = getattr(home, attr)
        wrapper = self._span(name, fn, after)
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, key, wrapper)

    def _span(self, name, fn, after=None):
        stack, busy, self_s, calls = self._stack, self.busy, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                busy[name] += dt
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    # -- bookkeeping run after a span closes ---------------------------------

    def _time_backward(self, out, name, after=None):
        if out._backward is not None:
            out._backward = self._span(name, out._backward, after)

    def _after_op(self, op, bwd_after=None):
        def after(out, *args, **kwargs):
            if self._stack and self._stack[-1][0] == "network.forward":
                self.counts["ops_in_forward"] += 1
            self._time_backward(out, f"tensor.{op}.bwd", bwd_after)
        return after

    def _after_conv2d(self, out, x, w, *args, **kwargs):
        bsz = x.shape[0]
        cout, cin, kh, kw = w.shape
        ho, wo = out.shape[2:]
        flop = 2 * bsz * ho * wo * cout * cin * kh * kw
        self.counts["conv2d.flop"] += flop
        self.counts["conv2d.im2col_bytes"] += bsz * ho * wo * cin * kh * kw * x.data.itemsize

        def bwd_after(_, g):
            # weight gradient always; input gradient only when x needs one
            self.counts["conv2d.flop"] += flop * (2 if x.requires_grad or x._parents else 1)

        self._after_op("conv2d", bwd_after)(out, x, w, *args, **kwargs)

    def _after_loss(self, name):
        return lambda out, *args, **kwargs: self._time_backward(out, f"{name}.bwd")

    def _after_forward(self, out, net, batch):
        self.counts["forward.batch"] += batch.shape[0]

    def _after_save_checkpoint(self, out, path, *args, **kwargs):
        self.counts["checkpoint.bytes"] += os.path.getsize(path)

    def _after_eval_transform(self, out, sample, *args, **kwargs):
        self.eval_ids.add(sample.id)


def _ratio(num, den):
    return num / den if den else 0.0


def unit_layers(tr: Tracer) -> dict:
    """Per-layer metrics of one traced unit, keyed by BENCHMARK.json name."""
    b, s, c, n = tr.busy, tr.self_s, tr.calls, tr.counts
    return {
        "tensor.conv2d.fwd_s": b["tensor.conv2d"],
        "tensor.conv2d.bwd_s": b["tensor.conv2d.bwd"],
        "tensor.conv2d.calls": c["tensor.conv2d"],
        "tensor.conv2d.gflop": n["conv2d.flop"] / 1e9,
        "tensor.conv2d.im2col_mb": n["conv2d.im2col_bytes"] / 1e6,
        "tensor.maxpool2d.fwd_s": b["tensor.maxpool2d"],
        "tensor.maxpool2d.bwd_s": b["tensor.maxpool2d.bwd"],
        "tensor.other.fwd_s": sum(b[f"tensor.{op}"] for op in OTHER_OPS),
        "tensor.other.bwd_s": sum(b[f"tensor.{op}.bwd"] for op in OTHER_OPS),
        "tensor.backward.walk_s": s["tensor.backward"],
        "tensor.ops_per_forward": _ratio(n["ops_in_forward"], c["network.forward"]),
        "network.forward_s": b["network.forward"],
        "network.forward.calls": c["network.forward"],
        "network.forward.batch_mean": _ratio(n["forward.batch"], c["network.forward"]),
        "network.save_checkpoint_s": b["network.save_checkpoint"],
        "network.save_checkpoint.calls": c["network.save_checkpoint"],
        "network.checkpoint_bytes": n["checkpoint.bytes"],
        "objective.joint_loss.self_s": s["objective.joint_loss"],
        "objective.lesion_loss_s": b["objective.lesion_loss"] + b["objective.lesion_loss.bwd"],
        "objective.location_loss_s":
            b["objective.location_loss"] + b["objective.location_loss.bwd"],
        "optim.step_s": b["optim.step"],
        "optim.step.calls": c["optim.step"],
        "data.augment_s": b["data.augment"],
        "data.augment.calls": c["data.augment"],
        "data.resize_bilinear_s": b["data.resize_bilinear"],
        "data.eval_transform_s": b["data.eval_transform"],
        "data.eval_transform.calls": c["data.eval_transform"],
        "data.eval_transform.per_sample": _ratio(c["data.eval_transform"], len(tr.eval_ids)),
        "data.ten_crop_s": b["data.ten_crop"],
        "metrics.map_class_s": b["metrics.map_class"],
        "metrics.map_image_s": b["metrics.map_image"],
        "metrics.top_k_accuracy_s": b["metrics.top_k_accuracy"],
        "metrics.average_precision.calls": c["metrics.average_precision"],
        "training.train_s": b["training.train"],
        "training.train.self_s": s["training.train"],
        "training.evaluate_scores_s": b["training.evaluate_scores"],
        "training.cross_validate.self_s": s["training.cross_validate"],
        "analysis.build_index_s": b["analysis.build_index"],
        "analysis.query_feature_s": b["analysis.query_feature"],
        "analysis.retrieve_s": b["analysis.retrieve"],
    }


def setup_layers(tr: Tracer) -> dict:
    """Per-layer metrics of one traced set-up."""
    return {
        "data.load_manifest_s": tr.busy["data.load_manifest"],
        "data.read_ppm_s": tr.busy["data.read_ppm"],
        "network.load_checkpoint_s": tr.busy["network.load_checkpoint"],
    }
