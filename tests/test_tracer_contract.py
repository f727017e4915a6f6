"""The benchmark's tracer wraps library functions by name: pin the names it
needs and the calls its per-layer rows read, so a rename or a rerouted call
fails here and not only in a benchmark run."""

import importlib
import importlib.util
import os

import pytest

import mtlkit.analysis  # with training, loads every module the tracer wraps
import mtlkit.training
from mtlkit.data import AugmentConfig, SynthSpec, planted_correlation, synthesize
from mtlkit.network import DualHeadNet, NetConfig

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    for mod, fn in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"mtlkit.{mod}"), fn)), (mod, fn)
    for mod, cls, meth in tracer.METHODS:
        owner = getattr(importlib.import_module(f"mtlkit.{mod}"), cls)
        assert callable(getattr(owner, meth)), (mod, cls, meth)
    for op in tracer.TENSOR_OPS:
        assert callable(getattr(mtlkit.tensor, op)), op


def test_every_view_is_traced_through_the_one_resampler(tracer):
    ds = synthesize(SynthSpec(P=3, Q=3, N=24, R=planted_correlation(3, 3, 0.9),
                              image_size=(3, 12, 12), seed=0))
    aug = AugmentConfig(jitter_min=10, jitter_max=12, crop=8, eval_scale=10)
    cfg = mtlkit.training.TrainConfig(epochs=1, batch_size=8, lr=0.01, augment=aug,
                                      net=NetConfig(width=4, blocks=1))
    net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=0)
    resize = mtlkit.data.resize_bilinear
    with tracer.Tracer() as tr:
        _, _, fitted = mtlkit.training.train(net, ds.samples[:18], ds.samples[18:], cfg)
        mtlkit.training.evaluate_scores(net, ds.samples[:5], fitted)
        mtlkit.training.evaluate_scores(net, ds.samples[:5], fitted, use_ten_crop=True)
        mtlkit.analysis.build_index(net, ds, fitted)
    calls = tr.calls
    assert calls["data.augment"] == 3                  # 18 training samples, batch 8
    assert calls["data.ten_crop"] == 5
    assert calls["data.eval_transform"] == 6 + 5 + 24  # val set once, scoring, index
    # augment, eval_transform and ten_crop each resample through one call
    assert calls["data.resize_bilinear"] == (calls["data.augment"] + calls["data.ten_crop"]
                                             + calls["data.eval_transform"])
    assert tr.eval_ids == {s.id for s in ds.samples}
    assert mtlkit.data.resize_bilinear is resize   # restored on exit
