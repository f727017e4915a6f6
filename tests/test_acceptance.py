"""End-to-end acceptance checks for the whole toolkit.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) so a full run gives a nine-line scorecard. The multi-task
benefit check trains 100 small models and dominates the runtime; run

    pytest tests/test_acceptance.py -v

with a few minutes to spare.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import check_gradients, finite_difference, max_rel_err
from mtlkit import metrics, objective
from mtlkit import tensor as T
from mtlkit.data import (
    AugmentConfig,
    Dataset,
    Sample,
    SynthSpec,
    planted_correlation,
    synthesize,
    ten_crop,
)
from mtlkit.network import DualHeadNet, NetConfig, load_checkpoint, save_checkpoint
from mtlkit.optim import SGD, PlateauConfig
from mtlkit.tensor import Tensor
from mtlkit.training import TrainConfig, cross_validate, train
from mtlkit.analysis import FeatureIndex, attention, retrieve


def _verdict(capsys, number, name, ok):
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness(capsys):
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0

    def check(build, params):
        nonlocal worst
        worst = max(worst, check_gradients(build, params, tol=1e-4))

    x = Tensor(rng.normal(size=(2, 3)) + 0.3, requires_grad=True)   # keep off the kink
    check(lambda: T.tsum(T.relu(x)), [x])
    y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    check(lambda: T.tsum(T.add(x, y)), [x, y])
    check(lambda: T.tsum(T.scale(x, -1.7)), [x])
    check(lambda: T.sum_squares(T.flatten(x)), [x])
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    check(lambda: T.sum_squares(T.bias_add(T.matmul(x, w), b)), [x, w, b])

    img = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    kern = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
    cb = Tensor(rng.normal(size=4), requires_grad=True)
    check(lambda: T.sum_squares(T.conv2d(img, kern, cb)), [img, kern, cb])
    # distinct values per window keep the max selection stable under the step
    pool_in = Tensor(rng.permutation(2 * 2 * 6 * 6).reshape(2, 2, 6, 6) * 0.13,
                     requires_grad=True)
    check(lambda: T.sum_squares(T.maxpool2d(pool_in, 2)), [pool_in])
    check(lambda: T.sum_squares(T.global_avg_pool(img)), [img])

    net = DualHeadNet(NetConfig(width=4, blocks=1), P=3, Q=4, seed=0)
    batch = rng.random((4, 3, 8, 8))
    u = (rng.random((4, 3)) < 0.4).astype(float)
    u[:, 0] = 1.0
    v = rng.integers(1, 5, size=4)
    params = [p.tensor for p in net.parameters()]

    def full():
        les_logits, loc_logits, _, _ = net.forward(batch)
        _, node = objective.joint_loss(les_logits, loc_logits, u, v)
        return node

    worst = max(worst, check_gradients(full, params, tol=1e-4))
    elapsed = time.time() - start
    _verdict(capsys, 1, "gradient correctness",
             worst < 1e-4 and elapsed < 60)


# ---------------------------------------------------------------------------
# 2. loss closed forms


def test_criterion_2_loss_closed_forms(capsys):
    les = objective.lesion_loss(Tensor(np.array([[0.0, 0.0]])), np.array([[1.0, 0.0]]))
    ok = abs(float(les.data) - 2 * np.log(2)) < 1e-9

    loc = objective.location_loss(Tensor(np.zeros((1, 4))), np.array([2]))
    ok &= abs(float(loc.data) - np.log(4)) < 1e-9

    z = np.random.default_rng(3).normal(size=(5, 4)) * 3
    sm = objective.softmax(z)
    ok &= np.abs(sm.sum(axis=1) - 1).max() < 1e-12
    ok &= np.abs(objective.softmax(z + 100.0) - sm).max() < 1e-12

    big = np.full((1, 3), 1e4)
    ok &= np.isfinite(float(objective.lesion_loss(Tensor(big), np.ones((1, 3))).data))
    ok &= np.isfinite(float(objective.location_loss(Tensor(-big), np.array([1])).data))
    _verdict(capsys, 2, "loss closed forms", ok)


# ---------------------------------------------------------------------------
# 3. metric oracle equivalence


def _brute_ap(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = ap = 0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            ap += hits / rank
    return ap / max(labels.sum(), 1)


def test_criterion_3_metric_oracles(capsys):
    start = time.time()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 33))
        p = int(rng.integers(2, 9))
        scores = rng.integers(-50, 51, size=(n, p)) / 10.0
        u = (rng.random((n, p)) < 0.35).astype(float)
        for i in range(n):                 # every image carries >= 1 lesion
            if u[i].sum() == 0:
                u[i, rng.integers(p)] = 1.0
        sm = metrics.ScoreMatrix(scores, [f"s{i}" for i in range(n)], "lesion")
        m_class, _, _ = metrics.map_class(sm, u)
        cols = [j for j in range(p) if u[:, j].sum() > 0]
        brute_class = np.mean([_brute_ap(scores[:, j], u[:, j]) for j in cols])
        m_image, _ = metrics.map_image(sm, u)
        rows = [i for i in range(n) if u[i].sum() > 0]
        brute_image = np.mean([_brute_ap(scores[i], u[i]) for i in rows])
        ok &= abs(m_class - brute_class) < 1e-12
        ok &= abs(m_image - brute_image) < 1e-12

    # hand fixtures: 3 images, 2 classes
    scores = np.array([[0.9, 0.2], [0.6, 0.8], [0.3, 0.5]])
    u = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sm = metrics.ScoreMatrix(scores, ["a", "b", "c"], "lesion")
    # class 0: positives at ranks 1, 3 -> (1 + 2/3) / 2; class 1: ranks 1, 2 -> 1
    fix_class, _, _ = metrics.map_class(sm, u)
    ok &= abs(fix_class - (5 / 6 + 1.0) / 2) < 1e-12
    # one-column fixture: positives ranked 1st and 3rd -> 5/6 = 0.833333
    col = metrics.ScoreMatrix(np.array([[0.9], [0.8], [0.7], [0.6]]),
                              list("abcd"), "lesion")
    m_col, _, _ = metrics.map_class(col, np.array([[1.0], [0.0], [1.0], [0.0]]))
    ok &= abs(m_col - 5 / 6) < 1e-12
    ok &= round(5 / 6, 6) == 0.833333
    # image fixture: positives ranked 2nd and 3rd -> (1/2 + 2/3) / 2 = 7/12
    single = metrics.ScoreMatrix(np.array([[0.2, 0.9, 0.5]]), ["a"], "lesion")
    m_img, _ = metrics.map_image(single, np.array([[1.0, 0.0, 1.0]]))
    ok &= abs(m_img - 7 / 12) < 1e-12
    ok &= round(7 / 12, 6) == 0.583333
    ok &= time.time() - start < 10
    _verdict(capsys, 3, "metric oracle equivalence", ok)


# ---------------------------------------------------------------------------
# 4. correlation recovery


def test_criterion_4_correlation_recovery(capsys):
    start = time.time()
    planted = planted_correlation(6, 5, 0.9)
    ds = synthesize(SynthSpec(P=6, Q=5, N=2000, R=planted, seed=0))
    corr = metrics.correlation_matrix(ds)
    ok = np.abs(corr.R - planted).max() < 0.05
    ok &= np.abs(corr.R.sum(axis=1) - 1).max() < 1e-12
    ok &= time.time() - start < 30
    _verdict(capsys, 4, "correlation recovery", ok)


# ---------------------------------------------------------------------------
# 5. multi-task benefit (the expensive one)


@pytest.mark.slow
def test_criterion_5_mtl_benefit(capsys):
    start = time.time()
    planted = planted_correlation(6, 5, 0.9)
    ds = synthesize(SynthSpec(P=6, Q=5, N=2000, R=planted, seed=0))
    deltas = []
    for seed in range(10):
        cfg = TrainConfig(epochs=3, lr=0.01, seed=seed)
        joint = cross_validate(ds, cfg)["aggregate"]["map_class"]
        solo = cross_validate(ds, replace(cfg, mode="lesion_only"))
        deltas.append(joint - solo["aggregate"]["map_class"])
    positives = sum(d > 0 for d in deltas)
    mean_delta = float(np.mean(deltas))
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"  mtl-benefit deltas: mean {mean_delta:+.4f}, "
              f"{positives}/10 positive, {elapsed:.0f}s; seeds 0-9: "
              + ", ".join(f"{d:+.4f}" for d in deltas))
    _verdict(capsys, 5, "multi-task benefit",
             mean_delta > 0 and positives >= 8 and elapsed < 1200)


# ---------------------------------------------------------------------------
# 6. optimizer trace


def test_criterion_6_optimizer_trace(capsys):
    w = Tensor(np.array([1.0]), requires_grad=True)
    from mtlkit.network import Param

    opt = SGD([Param("w", w, 1.0)], lr=0.1, momentum=0.9, weight_decay=0.0)
    trace = [float(w.data[0])]
    for _ in range(2):
        w.grad = np.array([0.5])
        opt.step()
        trace.append(float(w.data[0]))
    ok = trace == [1.0, 0.95, 0.855]

    opt2 = SGD([Param("w", w, 1.0)], lr=0.1, momentum=0.9,
               plateau=PlateauConfig(patience=2, factor=0.1))
    lrs = [opt2.plateau_update(1.0) for _ in range(3)]
    # first call sets the best; the next two stagnant calls exhaust
    # patience and the second of them triggers the 10x cut
    ok &= lrs[:2] == [0.1, 0.1] and abs(lrs[2] - 0.01) < 1e-15
    _verdict(capsys, 6, "optimizer trace", ok)


# ---------------------------------------------------------------------------
# 7. ensemble mechanics


def test_criterion_7_ensemble_mechanics(capsys):
    rng = np.random.default_rng(5)
    a = metrics.ScoreMatrix(rng.random((4, 3)), list("wxyz"), "lesion")
    b = metrics.ScoreMatrix(rng.random((4, 3)), list("wxyz"), "lesion")
    ok = np.array_equal(metrics.ensemble_max(a, a).scores, a.scores)
    ok &= np.array_equal(metrics.ensemble_max(a, b).scores,
                         metrics.ensemble_max(b, a).scores)
    combined = metrics.ensemble_max(a, b).scores
    ok &= (combined >= a.scores).all() and (combined >= b.scores).all()
    fix_a = metrics.ScoreMatrix(np.array([[0.2, 0.8]]), ["i"], "lesion")
    fix_b = metrics.ScoreMatrix(np.array([[0.5, 0.1]]), ["i"], "lesion")
    ok &= np.array_equal(metrics.ensemble_max(fix_a, fix_b).scores,
                         np.array([[0.5, 0.8]]))
    _verdict(capsys, 7, "ensemble mechanics", ok)


# ---------------------------------------------------------------------------
# 8. determinism & serialization


def test_criterion_8_determinism(capsys, tmp_path):
    ds = synthesize(SynthSpec(P=3, Q=3, N=24, R=planted_correlation(3, 3, 0.9),
                              image_size=(3, 12, 12), seed=0))
    aug = AugmentConfig(jitter_min=10, jitter_max=12, crop=8, eval_scale=10)
    cfg = TrainConfig(epochs=2, batch_size=8, lr=0.01, seed=0,
                      net=NetConfig(width=4, blocks=1), augment=aug)
    runs = []
    for tag in ("a", "b"):
        net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=cfg.seed)
        log, opt, _ = train(net, ds.samples[:18], ds.samples[18:], cfg)
        path = str(tmp_path / f"{tag}.ckpt")
        save_checkpoint(path, net, opt.buffers, {"optimizer": opt.state()})
        runs.append((json.dumps(log, sort_keys=True), open(path, "rb").read(), path))
    ok = runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1]

    net2, _, _ = load_checkpoint(runs[0][2])
    save_checkpoint(str(tmp_path / "c.ckpt"), net2, {}, {"optimizer": {}})
    reloaded, _, _ = load_checkpoint(str(tmp_path / "c.ckpt"))
    orig, _, _ = load_checkpoint(runs[0][2])
    ok &= all(np.array_equal(p.tensor.data, q.tensor.data)
              for p, q in zip(orig.parameters(), reloaded.parameters()))

    img = np.arange(3 * 8 * 8, dtype=np.float64).reshape(3, 8, 8) / 200.0
    sample = Sample(img, np.array([1.0]), 1, "s")
    tc_aug = AugmentConfig(jitter_min=8, jitter_max=8, crop=4, eval_scale=8,
                           channel_means=np.zeros(3))
    crops = ten_crop(sample, tc_aug)
    crops2 = ten_crop(sample, tc_aug)
    ok &= len(crops) == 10
    ok &= all(np.array_equal(x, y) for x, y in zip(crops, crops2))
    # corners of an 8x8 image under 4x4 crops: offsets (0,0) (0,4) (4,0)
    # (4,4) and center (2,2), then the horizontal flips in the same order
    offsets = [(0, 0), (0, 4), (4, 0), (4, 4), (2, 2)]
    for crop, (dy, dx) in zip(crops[:5], offsets):
        ok &= np.array_equal(crop, img[:, dy:dy + 4, dx:dx + 4])
    for crop, (dy, dx) in zip(crops[5:], offsets):
        ok &= np.array_equal(crop, img[:, dy:dy + 4, dx:dx + 4][:, :, ::-1])
    _verdict(capsys, 8, "determinism and serialization", ok)


# ---------------------------------------------------------------------------
# 9. retrieval / attention fixtures


def test_criterion_9_retrieval_attention(capsys):
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(5, 4))
    index = FeatureIndex(feats, [f"s{i}" for i in range(5)])
    out = retrieve(index, feats[2], 1)
    ok = out[0] == ("s2", 0.0)

    toy = FeatureIndex(np.array([[0.0, 0.0], [3.0, 4.0]]), ["a", "b"])
    dists = [d for _, d in retrieve(toy, np.array([0.0, 0.0]), 2)]
    ok &= dists == [0.0, 5.0]

    net = DualHeadNet(NetConfig(width=4, blocks=1), 2, 3, seed=0)
    net.lesion_w.data[:] = 0.0
    amap = attention(net, rng.random((3, 8, 8)), "lesion", 0)
    ok &= np.array_equal(amap.map, np.full_like(amap.map, 0.5))

    one = DualHeadNet(NetConfig(width=1, blocks=0), 2, 3, seed=0)
    one.lesion_w.data[:] = 1.0
    img = rng.random((3, 8, 8))
    amap = attention(one, img, "lesion", 1)
    _, _, _, maps = one.forward(img[None].astype(np.float32))  # attention's float32 forward
    raw = maps.data[0, 0].astype(np.float64)
    expected = (raw - raw.min()) / (raw.max() - raw.min())
    ok &= np.abs(amap.map - expected).max() < 1e-12
    _verdict(capsys, 9, "retrieval and attention fixtures", ok)
