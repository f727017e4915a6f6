"""Training loop, dataset scoring, and cross-validation orchestration.

All randomness (shuffling, augmentation) flows from a single seeded
generator, so a (config, seed) pair reproduces training exactly.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import metrics, objective
from .data import AugmentConfig, Dataset, assign_folds, augment, channel_means, eval_transform, ten_crop
from .errors import BadConfig, EmptyDataset, NonFiniteLoss, WorkerDied
from .network import DualHeadNet, NetConfig
from .optim import SGD, PlateauConfig
from .tensor import Tensor, backward

# mode -> the heads it trains (the DualHeadNet.parameters selector)
MODES = {"mtl": "both", "lesion_only": "lesion", "location_only": "location"}


@dataclass
class TrainConfig:
    mode: str = "mtl"
    epochs: int = 6
    batch_size: int = 20
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    aux_weight: float = 1.0
    pretrain_epochs: int = 0      # location-only warmup standing in for transfer init
    seed: int = 0
    net: NetConfig = field(default_factory=NetConfig)
    plateau: PlateauConfig = field(default_factory=PlateauConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    n_folds: int = 5
    use_ten_crop: bool = False


def _check_config(cfg):
    if cfg.mode not in MODES:
        raise BadConfig(f"mode must be one of {tuple(MODES)}, got {cfg.mode!r}")
    if cfg.weight_decay < 0 or cfg.lr <= 0 or cfg.batch_size < 1:
        raise BadConfig(f"need weight_decay >= 0, lr > 0 and batch_size >= 1; got "
                        f"{cfg.weight_decay}, {cfg.lr} and {cfg.batch_size}")


def _train_epoch(net, samples, rng, aug, opt, cfg, epoch):
    """One shuffled pass of SGD steps on cfg.mode's objective; returns the
    sample-weighted epoch means of the LossBreakdown fields as train_*;
    a non-finite loss raises NonFiniteLoss at ``epoch`` ("epoch 3")."""
    order = rng.permutation(len(samples))
    sums = {}
    for step, start in enumerate(range(0, len(samples), cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        imgs = np.stack([augment(samples[i], rng, aug) for i in idx])
        u = np.stack([samples[i].u for i in idx])
        v = np.array([samples[i].v for i in idx])
        les_logits, loc_logits, _, _ = net.forward(imgs)
        bd, node = objective.joint_loss(les_logits, loc_logits, u, v, cfg.mode, cfg.aux_weight)
        if not np.isfinite(bd.total):
            raise NonFiniteLoss(f"{cfg.mode} training loss is {bd.total} at {epoch}, step {step}")
        backward(node)
        opt.step()
        for k, val in asdict(bd).items():
            if val is not None:
                sums[k] = sums.get(k, 0.0) + val * len(idx)
    return {f"train_{k}": total / len(samples) for k, total in sums.items()}


def _score_matrices(ids, les_scores, loc_scores):
    return (
        metrics.ScoreMatrix(np.asarray(les_scores), ids, "lesion"),
        metrics.ScoreMatrix(np.asarray(loc_scores), ids, "location"),
    )


def evaluate_scores(net: DualHeadNet, samples, aug: AugmentConfig,
                    batch_size: int = 20, use_ten_crop: bool = False):
    """Score a sample list; returns (lesion ScoreMatrix, location ScoreMatrix).

    Lesion scores are sigmoid activations, location scores softmax. With
    use_ten_crop the post-activation scores are averaged over the 10 crops.
    A forward holds whole samples' views: one view alone (a gemv) rounds differently.
    """
    if not samples:
        raise EmptyDataset("no samples to score")
    n, k = len(samples), 10 if use_ten_crop else 1
    views = (v for s in samples for v in (ten_crop(s, aug) if use_ten_crop
                                          else [eval_transform(s, aug)]))
    les, loc, _ = net.infer(views, max(batch_size // k, 1) * k)
    return _score_matrices([s.id for s in samples],
                           objective.sigmoid(les).reshape(n, k, -1).mean(axis=1),
                           objective.softmax(loc).reshape(n, k, -1).mean(axis=1))


def train(net: DualHeadNet, train_samples, val_samples, cfg: TrainConfig, on_epoch=None):
    """Train in place; returns (log records, optimizer, fitted AugmentConfig).

    Records hold the epoch means of the optimised objective (train_*), the
    decay (wd/2) * sum ||theta||^2 SGD applies, and, with val_samples, the
    main-task val_loss that drives the plateau schedule. The val set is
    eval-transformed once per call and forwarded once per epoch.

    The returned AugmentConfig carries the training-fold channel means and
    must be reused for any later scoring of this net.
    """
    _check_config(cfg)
    if not train_samples:
        raise EmptyDataset("no training samples")
    rng = np.random.default_rng(cfg.seed)
    aug = replace(cfg.augment,
                  channel_means=tuple(float(m) for m in channel_means(train_samples)))
    opt = SGD(net.parameters(MODES[cfg.mode]), lr=cfg.lr, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay, plateau=cfg.plateau)
    log = []

    if val_samples:
        val_imgs = np.stack([eval_transform(s, aug) for s in val_samples])
        u_val = np.stack([s.u for s in val_samples])
        v_val = np.array([s.v for s in val_samples])

    if cfg.pretrain_epochs > 0 and cfg.mode == "mtl":
        warm_cfg = replace(cfg, mode="location_only")
        warm_opt = SGD(net.parameters("location"), lr=cfg.lr, momentum=cfg.momentum,
                       weight_decay=cfg.weight_decay, plateau=cfg.plateau)
        for i in range(cfg.pretrain_epochs):
            _train_epoch(net, train_samples, rng, aug, warm_opt, warm_cfg, f"pretrain epoch {i}")

    for epoch in range(cfg.epochs):
        record = {"epoch": epoch,
                  **_train_epoch(net, train_samples, rng, aug, opt, cfg, f"epoch {epoch}")}
        record["decay"] = 0.5 * cfg.weight_decay * sum(
            float((p.tensor.data ** 2).sum()) for p in opt.params)
        if val_samples:
            les, loc, _ = net.infer(val_imgs, cfg.batch_size)
            bd, _ = objective.joint_loss(Tensor(les), Tensor(loc), u_val, v_val, cfg.mode)
            val_loss = bd.location_loss if cfg.mode == "location_only" else bd.lesion_loss
            record["val_loss"] = val_loss
            les_sm, loc_sm = _score_matrices([s.id for s in val_samples],
                                             objective.sigmoid(les), objective.softmax(loc))
            if cfg.mode != "location_only":
                record["val_map_image"] = metrics.map_image(les_sm, u_val)[0]
            if cfg.mode != "lesion_only":
                record["val_top1"] = metrics.top_k_accuracy(loc_sm, v_val, 1)
            record["lr"] = opt.plateau_update(val_loss)
        else:
            record["lr"] = opt.lr
        log.append(record)
        if on_epoch is not None:
            on_epoch(record, opt, aug)
    return log, opt, aug


def fold_metrics(net, test_samples, aug, cfg: TrainConfig):
    """Evaluation report for one held-out sample set."""
    les_sm, loc_sm = evaluate_scores(net, test_samples, aug, cfg.batch_size,
                                     use_ten_crop=cfg.use_ten_crop)
    u = np.stack([s.u for s in test_samples])
    v = np.array([s.v for s in test_samples])
    report = {}
    if cfg.mode != "location_only":
        m_class, per_class, excluded = metrics.map_class(les_sm, u)
        m_image, _ = metrics.map_image(les_sm, u)
        report["map_class"] = m_class
        report["map_image"] = m_image
        report["per_class_ap"] = per_class
        report["excluded_classes"] = excluded
    if cfg.mode != "lesion_only":
        report["top1"] = metrics.top_k_accuracy(loc_sm, v, 1)
        report["top3"] = metrics.top_k_accuracy(loc_sm, v, min(3, loc_sm.scores.shape[1]))
    return report, les_sm, loc_sm


def _usable_cpus():
    """CPUs this process may run on; 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_folds(ds, cfg, folds):
    """Train each fold's net in turn; returns {fold: (parameter arrays, fitted
    AugmentConfig) or the fold's exception}, stopping at the first failure."""
    fitted = {}
    for f in folds:
        try:
            fold_cfg = replace(cfg, seed=cfg.seed + f)
            net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=fold_cfg.seed)
            train_samples = [s for s, g in zip(ds.samples, ds.folds) if g != f]
            _, _, aug = train(net, train_samples, None, fold_cfg)
            fitted[f] = ([p.tensor.data for p in net.parameters()], aug)
        except Exception as e:
            fitted[f] = e
            break
    return fitted


def _fit_in_child(w, ds, cfg, folds):
    """Forked child: pickle _fit_folds' result into pipe fd w and leave
    through os._exit, never unwinding into the caller's stack or flushing
    its stdio; the exit status is 0 only once the result is written."""
    status = 1
    try:
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(_fit_folds(ds, cfg, folds), pipe)
        status = 0
    finally:
        os._exit(status)


def _child_result(data, code, folds):
    """A child's unpickled result, or WorkerDied at its first fold if it
    ended (exit code ``code``) without writing one."""
    if code == 0:
        return pickle.loads(data)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    return {folds[0]: WorkerDied(f"the process training fold{'s' * (len(folds) > 1)} "
                                 f"{', '.join(map(str, folds))} ended without a result ({how})")}


def cross_validate(ds: Dataset, cfg: TrainConfig):
    """K-fold cross-validation; per-fold seeds are cfg.seed + fold index.

    Each fold trains a fresh net on the remaining folds and evaluates on
    the held-out one, so every sample is scored exactly once. The folds
    are dealt round-robin to n = min(folds, usable CPUs) processes: this
    one and n - 1 forked children, which send back parameters and fitted
    AugmentConfigs. This process scores every fold in fold order, so the
    report equals the serial one bit for bit, and a failure raises the
    lowest-numbered failing fold's exception, as the serial loop would.
    """
    _check_config(cfg)
    if ds.folds is None:
        ds = assign_folds(ds, cfg.n_folds, cfg.seed)
    fold_ids = sorted(set(int(f) for f in ds.folds))
    n = min(len(fold_ids), _usable_cpus())
    children = {}   # pid -> (read end of its pipe, its folds), until reaped
    try:
        for rank in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _fit_in_child(w, ds, cfg, fold_ids[rank::n])
            os.close(w)
            children[pid] = (os.fdopen(r, "rb"), fold_ids[rank::n])
        fitted = _fit_folds(ds, cfg, fold_ids[::n])
        # no fold precedes the first, so its failure needs no child's result
        if not isinstance(fitted[fold_ids[0]], Exception):
            for pid, (pipe, folds) in list(children.items()):
                with pipe:
                    data = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                fitted.update(_child_result(data, code, folds))
        failed = [f for f in fold_ids if isinstance(fitted.get(f), Exception)]
        if failed:
            raise fitted[failed[0]]
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    fold_reports = []
    for f in fold_ids:
        arrays, aug = fitted[f]
        net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=cfg.seed + f)
        for p, arr in zip(net.parameters(), arrays):
            p.tensor.data = arr
        report, _, _ = fold_metrics(net, [s for s, g in zip(ds.samples, ds.folds) if g == f],
                                    aug, cfg)
        report["fold"] = f
        fold_reports.append(report)
    aggregate = {}
    numeric = [k for k in fold_reports[0] if isinstance(fold_reports[0][k], float)]
    for k in numeric:
        aggregate[k] = float(np.mean([r[k] for r in fold_reports]))
    return {"mode": cfg.mode, "seed": cfg.seed, "folds": fold_reports, "aggregate": aggregate}
