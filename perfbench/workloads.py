"""The benchmark's workloads: inputs, set-up, and one timed unit each.

All workloads use the synthetic generator (P=6, Q=5, 3x32x32 images,
``planted_correlation(6, 5, 0.9)``) and the default ``NetConfig`` (width 8,
2 blocks) with batch 20, and drive the library functions the CLI commands
call. Nothing here imports numpy or mtlkit at module level: ``setup`` times
the import of the library.

Why these three:
  cv_pair        the paper's experiment (criterion 5): cross_validate in
                 mtl then lesion_only mode. Dominated by conv2d forward and
                 backward, augment and SGD.step; no validation set, so fold
                 parallelism shows here and validation caching does not.
  train_val      one train call with a 10% validation split and a best-
                 checkpoint hook, as `mtlkit train` runs it. Each epoch
                 repeats eval_transform in _validation_loss and
                 evaluate_scores, so merging or caching that pass shows
                 here; fold parallelism cannot.
  eval_retrieve  forward-only at batch 10 (ten-crop) and batch 1 (queries):
                 per-op dispatch and im2col copies dominate, not BLAS.
                 Backward, optim and augment never run.
"""

from __future__ import annotations

import os
from dataclasses import asdict, replace
from time import perf_counter

P, Q, STRENGTH = 6, 5, 0.9
LR = 0.01
EPOCHS = 3

# The criterion-5 pair (5 folds, 3 epochs, lr 0.01) takes ~80 s at N=2000,
# longer than a run may last. At N=100 one pair takes ~5 s with the same
# per-batch shapes (every training fold is 4 full batches, every test fold
# one), so a run times it several times.
CV_N = 100
CV_FOLDS = 5
TV_N = 600
TV_VAL_FRACTION = 0.1
# eval_retrieve: a short model trained while the inputs are made, ten-crop
# scoring in requests of 10 samples, an index large enough that the
# per-query sort shows, and >= 1000 closed-loop queries (one client) cycling
# over the query set.
ER_INDEX_N = 1000
ER_QUERY_N = 100
ER_QUERIES = 1000
ER_SCORE_BATCH = 10
ER_TRAIN_EPOCHS = 2
ER_K = 5
QUERY_SEED_OFFSET = 1_000_003

WORKLOADS = ("cv_pair", "train_val", "eval_retrieve")


def derived_seeds(workload: str, seed: int) -> dict:
    """Every seed the workload derives from its --seed, for the environment block."""
    seeds = {"data": seed, "train": seed}
    if workload == "eval_retrieve":
        seeds["queries"] = seed + QUERY_SEED_OFFSET
    return seeds


def _synth(n, seed):
    from mtlkit.data import SynthSpec, planted_correlation, synthesize

    return synthesize(SynthSpec(P=P, Q=Q, N=n, R=planted_correlation(P, Q, STRENGTH),
                                seed=seed))


def _aug_state(aug) -> dict:
    return {**asdict(aug), "channel_means": [float(x) for x in aug.channel_means]}


def make_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's manifests (and model) under workdir; untimed."""
    from mtlkit import data, network, training

    if workload == "cv_pair":
        data.save_manifest(_synth(CV_N, seed), os.path.join(workdir, "data"))
    elif workload == "train_val":
        data.save_manifest(_synth(TV_N, seed), os.path.join(workdir, "data"))
    else:
        index = _synth(ER_INDEX_N, seed)
        data.save_manifest(index, os.path.join(workdir, "index"))
        data.save_manifest(_synth(ER_QUERY_N, seed + QUERY_SEED_OFFSET),
                           os.path.join(workdir, "queries"))
        cfg = training.TrainConfig(epochs=ER_TRAIN_EPOCHS, lr=LR, seed=seed)
        net = network.DualHeadNet(cfg.net, index.P, index.Q, seed=seed)
        _, opt, aug = training.train(net, index.samples, None, cfg)
        network.save_checkpoint(os.path.join(workdir, "model.ckpt"), net, opt.buffers,
                                {"augment": _aug_state(aug)})


def setup(workload: str, workdir: str):
    """Import the library and load the inputs; returns (seconds, inputs)."""
    t0 = perf_counter()
    import numpy as np
    from mtlkit import analysis, data, metrics, network, training  # noqa: F401

    def manifest(name):
        return data.load_manifest(os.path.join(workdir, name, "manifest.jsonl"))

    if workload == "eval_retrieve":
        net, _, state = network.load_checkpoint(os.path.join(workdir, "model.ckpt"))
        aug = dict(state["augment"])
        aug["channel_means"] = np.asarray(aug["channel_means"])
        inputs = {"index": manifest("index"), "queries": manifest("queries"), "net": net,
                  "aug": data.AugmentConfig(**aug)}
    else:
        inputs = {"data": manifest("data")}
    return perf_counter() - t0, inputs


class Checks:
    """Counts operations and output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def scores(self, les, loc) -> None:
        import numpy as np

        self.check(np.isfinite(les.scores).all() and np.isfinite(loc.scores).all(),
                   "scores are finite")
        self.check(np.abs(loc.scores.sum(axis=1) - 1.0).max() <= 1e-9,
                   "each location row sums to 1 within 1e-9")

    def map_range(self, *values) -> None:
        for value in values:
            self.check(0.0 <= value <= 1.0, f"mAP {value!r} lies in [0, 1]")


class ScoreProbe:
    """Times every training.evaluate_scores call and keeps its output.

    cross_validate and train look evaluate_scores up in the training module,
    so replacing that one name reaches every scoring call.
    """

    def __enter__(self):
        from mtlkit import training

        self.rates = []    # samples per second of each call
        self.outputs = []
        self._original = original = training.evaluate_scores

        def probe(net, samples, *args, **kwargs):
            t0 = perf_counter()
            out = original(net, samples, *args, **kwargs)
            self.rates.append(len(samples) / (perf_counter() - t0))
            self.outputs.append(out)
            return out

        training.evaluate_scores = probe
        return self

    def __exit__(self, *exc):
        from mtlkit import training

        training.evaluate_scores = self._original


def _labels(samples):
    import numpy as np

    return np.stack([s.u for s in samples]), np.array([s.v for s in samples])


def cv_pair(inputs, seed, workdir, checks):
    from mtlkit import training

    ds = inputs["data"]
    cfg = training.TrainConfig(epochs=EPOCHS, lr=LR, seed=seed, n_folds=CV_FOLDS)
    ids = sorted(s.id for s in ds.samples)
    arms = {}
    with ScoreProbe() as probe:
        t0 = perf_counter()
        for mode in ("mtl", "lesion_only"):
            first = len(probe.outputs)
            arms[mode] = training.cross_validate(ds, replace(cfg, mode=mode))
            scored = sorted(i for les, _ in probe.outputs[first:] for i in les.ids)
            checks.check(scored == ids, f"{mode}: every CV sample is scored exactly once")
        wall = perf_counter() - t0
    checks.ops(2 * CV_FOLDS + len(probe.outputs))  # fits and scoring calls
    for les, loc in probe.outputs:
        checks.scores(les, loc)
    for report in arms.values():
        for fold in report["folds"]:
            checks.map_range(fold["map_class"], fold["map_image"])
    mtl = arms["mtl"]["aggregate"]
    return {
        "wall_s": wall,
        "train_images": 2 * EPOCHS * (CV_FOLDS - 1) * len(ds),
        "train_s": wall,
        "eval_rates": probe.rates,
        "map_class": mtl["map_class"],
        "top1": mtl["top1"],
        "mtl_gain": mtl["map_class"] - arms["lesion_only"]["aggregate"]["map_class"],
    }


def train_val(inputs, seed, workdir, checks):
    import numpy as np
    from mtlkit import metrics, network, training

    ds = inputs["data"]
    cfg = training.TrainConfig(epochs=EPOCHS, lr=LR, seed=seed)
    perm = np.random.default_rng(seed).permutation(len(ds))
    n_val = int(round(len(ds) * TV_VAL_FRACTION))
    val = [ds.samples[i] for i in perm[:n_val]]
    train_samples = [ds.samples[i] for i in perm[n_val:]]
    best_path = os.path.join(workdir, "best.ckpt")
    best = {"val_loss": None}
    with ScoreProbe() as probe:
        t0 = perf_counter()
        net = network.DualHeadNet(cfg.net, ds.P, ds.Q, seed=seed)

        def on_epoch(record, opt, aug):
            vl = record["val_loss"]
            if best["val_loss"] is None or vl < best["val_loss"]:
                best["val_loss"] = vl
                network.save_checkpoint(best_path, net, opt.buffers,
                                        {"optimizer": opt.state(), "epoch": record["epoch"],
                                         "mode": cfg.mode, "augment": _aug_state(aug)})

        _, _, aug = training.train(net, train_samples, val, cfg, on_epoch=on_epoch)
        train_s = perf_counter() - t0
        les, loc = training.evaluate_scores(net, val, aug, cfg.batch_size)
        u, v = _labels(val)
        m_class = metrics.map_class(les, u)[0]
        m_image = metrics.map_image(les, u)[0]
        top1 = metrics.top_k_accuracy(loc, v, 1)
        wall = perf_counter() - t0
    checks.ops(1 + len(probe.outputs))
    for les_i, loc_i in probe.outputs:
        checks.scores(les_i, loc_i)
    checks.map_range(m_class, m_image)
    return {
        "wall_s": wall,
        "train_images": EPOCHS * len(train_samples),
        "train_s": train_s,
        "eval_rates": probe.rates,
        "map_class": m_class,
        "top1": top1,
    }


def eval_retrieve(inputs, seed, workdir, checks):
    import numpy as np
    from mtlkit import analysis, data, metrics, training

    net, aug = inputs["net"], inputs["aug"]
    index_ds, queries = inputs["index"], inputs["queries"].samples
    index_lesions = {s.id: set(np.flatnonzero(s.u)) for s in index_ds.samples}
    latencies = []
    matches = 0
    with ScoreProbe() as probe:
        t0 = perf_counter()
        # scoring requests of ER_SCORE_BATCH samples each, one result matrix
        parts = [training.evaluate_scores(net, queries[i:i + ER_SCORE_BATCH], aug,
                                          use_ten_crop=True)
                 for i in range(0, len(queries), ER_SCORE_BATCH)]
        les, loc = (metrics.ScoreMatrix(np.concatenate([p[j].scores for p in parts]),
                                        [sid for p in parts for sid in p[j].ids], kind)
                    for j, kind in enumerate(("lesion", "location")))
        u, v = _labels(queries)
        m_class = metrics.map_class(les, u)[0]
        m_image = metrics.map_image(les, u)[0]
        top1 = metrics.top_k_accuracy(loc, v, 1)
        index = analysis.build_index(net, index_ds, aug)
        for i in range(ER_QUERIES):
            sample = queries[i % len(queries)]
            q0 = perf_counter()
            hits = analysis.retrieve(index, analysis.query_feature(net, sample, aug), ER_K)
            latencies.append(perf_counter() - q0)
            dists = [d for _, d in hits]
            checks.check(len({sid for sid, _ in hits}) == len(hits) == ER_K
                         and dists == sorted(dists),
                         "retrieve returns k distinct ids in ascending distance")
            mine = set(np.flatnonzero(sample.u))
            matches += sum(bool(index_lesions[sid] & mine) for sid, _ in hits)
        first = queries[0]
        analysis.attention(net, data.eval_transform(first, aug), "lesion",
                           int(np.flatnonzero(first.u)[0]))
        wall = perf_counter() - t0
    checks.ops(len(probe.outputs) + ER_QUERIES + 1)
    for les_i, loc_i in probe.outputs:
        checks.scores(les_i, loc_i)
    checks.map_range(m_class, m_image)
    return {
        "wall_s": wall,
        "eval_rates": probe.rates,
        "query_s": latencies,
        "map_class": m_class,
        "top1": top1,
        "match_rate": matches / (ER_QUERIES * ER_K),
    }


UNITS = {"cv_pair": cv_pair, "train_val": train_val, "eval_retrieve": eval_retrieve}

# Spans that must record calls in a traced run of each workload.
EXPECTED_SPANS = {
    "cv_pair": ("tensor.conv2d", "tensor.conv2d.bwd", "tensor.backward", "network.forward",
                "objective.joint_loss", "objective.lesion_loss", "objective.location_loss",
                "optim.step", "data.augment", "data.resize_bilinear", "data.eval_transform",
                "metrics.map_class", "metrics.average_precision", "training.train",
                "training.evaluate_scores", "training.cross_validate",
                "data.load_manifest", "data.read_ppm"),
    "train_val": ("tensor.conv2d", "tensor.conv2d.bwd", "tensor.backward", "network.forward",
                  "network.save_checkpoint", "objective.joint_loss", "optim.step",
                  "data.augment", "data.resize_bilinear", "data.eval_transform",
                  "metrics.map_class", "metrics.map_image", "metrics.top_k_accuracy",
                  "training.train", "training.evaluate_scores",
                  "data.load_manifest", "data.read_ppm"),
    "eval_retrieve": ("tensor.conv2d", "network.forward", "data.ten_crop",
                      "data.eval_transform", "data.resize_bilinear", "metrics.map_class",
                      "metrics.map_image", "metrics.top_k_accuracy",
                      "training.evaluate_scores", "analysis.build_index",
                      "analysis.query_feature", "analysis.retrieve", "analysis.attention",
                      "data.load_manifest", "data.read_ppm", "network.load_checkpoint"),
}
