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
from .data import (AugmentConfig, Dataset, assign_folds, augment, channel_means, check_ranges,
                   eval_transform, labels, need, ten_crop)
from .errors import BadConfig, EmptyDataset, NonFiniteLoss, WorkerDied
from .network import DualHeadNet, NetConfig
from .optim import SGD, PlateauConfig
from .tensor import Tensor, backward


@dataclass
class TrainConfig:
    mode: str = "mtl"
    epochs: int = need(">= 0", 6)
    batch_size: int = need(">= 1", 20)
    lr: float = need("> 0", 1e-3)
    momentum: float = need("in [0, 1)", 0.9)
    weight_decay: float = need(">= 0", 1e-4)
    aux_weight: float = need(">= 0", 1.0)
    pretrain_epochs: int = need(">= 0", 0)   # location-only warmup standing in for transfer init
    seed: int = need(">= 0", 0)   # np.random.default_rng takes no negative seed
    net: NetConfig = field(default_factory=NetConfig)
    plateau: PlateauConfig = field(default_factory=PlateauConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    n_folds: int = need(">= 2", 5)
    use_ten_crop: bool = False


def _check_config(cfg):
    if cfg.mode not in objective.TASKS:
        raise BadConfig(f"mode must be one of {tuple(objective.TASKS)}, got {cfg.mode!r}")
    check_ranges(cfg)
    check_augment(cfg.augment)


def check_augment(aug: AugmentConfig):
    """Raise BadConfig unless aug's fields hold their ranges, jitter_min <=
    jitter_max, crop is even, as the stem's 2x2 max-pool halves it, and both
    scales reach the crop: jitter_min >= crop, so every training draw fits
    it, and eval_scale >= crop."""
    check_ranges(aug, "augment.")
    if aug.jitter_min > aug.jitter_max:
        raise BadConfig(f"need augment.jitter_min <= augment.jitter_max, got "
                        f"{aug.jitter_min} > {aug.jitter_max}")
    if aug.crop % 2:
        raise BadConfig(f"need an even augment.crop, which the stem's 2x2 max-pool halves, "
                        f"got {aug.crop}")
    if aug.jitter_min < aug.crop or aug.eval_scale < aug.crop:
        raise BadConfig(f"need augment.jitter_min and augment.eval_scale >= augment.crop, got "
                        f"{aug.jitter_min} and {aug.eval_scale} for crop {aug.crop}")


def _train_epoch(net, samples, rng, aug, opt, cfg, epoch):
    """One shuffled pass of SGD steps on cfg.mode's objective; returns the
    sample-weighted epoch means of the LossBreakdown fields as train_*;
    a non-finite loss raises NonFiniteLoss at ``epoch`` ("epoch 3")."""
    order = rng.permutation(len(samples))
    sums = {}
    for step, start in enumerate(range(0, len(samples), cfg.batch_size)):
        batch = [samples[i] for i in order[start : start + cfg.batch_size]]
        # the one choice of training precision: float32 steps, float64 master weights
        imgs = augment(batch, rng, aug).astype(np.float32)
        u, v = labels(batch)
        les_logits, loc_logits, _, _ = net.forward(imgs)
        bd, node = objective.joint_loss(les_logits, loc_logits, u, v, cfg.mode, cfg.aux_weight)
        if not np.isfinite(bd.total):
            raise NonFiniteLoss(f"{cfg.mode} training loss is {bd.total} at {epoch}, step {step}")
        backward(node)
        opt.step()
        for k, val in asdict(bd).items():
            if val is not None:
                sums[k] = sums.get(k, 0.0) + val * len(batch)
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
    The views are forwarded in float32 by net.infer, whose float64 logits the
    activations and the crop mean read.
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
    tasks = objective.TASKS[cfg.mode]
    opt = SGD(net.parameters(tasks), lr=cfg.lr, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay, plateau=cfg.plateau)
    log = []

    if val_samples:
        val_imgs = np.stack([eval_transform(s, aug) for s in val_samples])
        u_val, v_val = labels(val_samples)

    # a multi-task run first warms up on its auxiliary task alone
    if cfg.pretrain_epochs > 0 and len(tasks) > 1:
        warm_cfg = replace(cfg, mode="location_only")
        warm_opt = SGD(net.parameters(objective.TASKS[warm_cfg.mode]), lr=cfg.lr,
                       momentum=cfg.momentum, weight_decay=cfg.weight_decay, plateau=cfg.plateau)
        for i in range(cfg.pretrain_epochs):
            _train_epoch(net, train_samples, rng, aug, warm_opt, warm_cfg, f"pretrain epoch {i}")

    for epoch in range(cfg.epochs):
        record = {"epoch": epoch,
                  **_train_epoch(net, train_samples, rng, aug, opt, cfg, f"epoch {epoch}")}
        record["decay"] = 0.5 * cfg.weight_decay * sum(
            float((p.tensor.data ** 2).sum()) for p in opt.params)
        if val_samples:
            les, loc, _ = net.infer(val_imgs, cfg.batch_size)
            val_loss = float(objective.task_loss(tasks[0], Tensor(les), Tensor(loc),
                                                 u_val, v_val).data)
            record["val_loss"] = val_loss
            les_sm, loc_sm = _score_matrices([s.id for s in val_samples],
                                             objective.sigmoid(les), objective.softmax(loc))
            if "lesion" in tasks:
                record["val_map_image"] = metrics.map_image(les_sm, u_val)[0]
            if "location" in tasks:
                record["val_top1"] = metrics.top_k_accuracy(loc_sm, v_val, 1)
            record["lr"] = opt.plateau_update(val_loss)
        else:
            record["lr"] = opt.lr
        log.append(record)
        if on_epoch is not None:
            on_epoch(record, opt, aug)
    return log, opt, aug


def _usable_cpus():
    """CPUs this process may run on; 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_folds(fit, folds, stop=lambda f: False):
    """Run fit(f) for each fold f in turn until stop(f) is true; returns
    {fold: fit(fold)}, or {fold: exception} alone for the first fold that
    fails, so a failing child's result fits in its pipe."""
    fitted = {}
    for f in folds:
        if stop(f):
            break
        try:
            fitted[f] = fit(f)
        except Exception as e:
            return {f: e}
    return fitted


def _fit_in_child(w, fit, folds):
    """Forked child: pickle _fit_folds' result into pipe fd w and leave
    through os._exit, never unwinding into the caller's stack or flushing
    its stdio; the exit status is 0 only once the result is written."""
    status = 1
    try:
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(_fit_folds(fit, folds), pipe)
        status = 0
    finally:
        os._exit(status)


def _reap(children, fitted, wait=lambda folds: False):
    """Move into fitted the result of each child that has exited, or whose
    folds ``wait`` accepts (WorkerDied at its first fold if it wrote none),
    and reap it; a reaped child leaves children at once, so the cleanup
    never signals its pid."""
    for pid, (pipe, folds) in list(children.items()):
        if wait(folds):
            data = pipe.read()   # first: the child blocks until its result is read
            status = os.waitpid(pid, 0)[1]
        else:
            done, status = os.waitpid(pid, os.WNOHANG)
            if not done:
                continue
            data = b""           # an exited child's whole result waits in its pipe
        del children[pid]
        with pipe:
            data += pipe.read()
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            fitted.update(pickle.loads(data))
            continue
        how = f"(killed by signal {-code})" if code < 0 else f"(exit status {code})"
        owned = f"fold{'s' * (len(folds) > 1)} {', '.join(map(str, folds))}"
        fitted[folds[0]] = WorkerDied(f"the process training {owned} ended without a result {how}")


def _run_folds(fit, n_folds):
    """[fit(0), ..., fit(n_folds - 1)], the folds dealt round-robin to n =
    min(n_folds, usable CPUs) processes: this one fits folds 0, n, 2n, ...
    and n - 1 forked children the rest, pickling back what fit returns. A
    failure raises the lowest-numbered failing fold's exception, as a serial
    loop would. Before each fold of its own this process collects the
    children that have exited, and it stops once a lower fold has failed."""
    folds = list(range(n_folds))
    n = min(n_folds, _usable_cpus())
    fitted = {}     # fold -> fit(fold) or its exception
    children = {}   # pid -> (read end of its pipe, its folds), until reaped

    def failed_below(fold):
        return any(isinstance(r, Exception) and f < fold for f, r in fitted.items())

    def stop(fold):
        _reap(children, fitted)
        return failed_below(fold)

    try:
        for rank in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _fit_in_child(w, fit, folds[rank::n])
            os.close(w)
            children[pid] = (os.fdopen(r, "rb"), folds[rank::n])
        fitted.update(_fit_folds(fit, folds[::n], stop))
        # a child whose first fold follows a known failure cannot change the outcome
        _reap(children, fitted, wait=lambda folds: not failed_below(folds[0]))
        failed = [f for f in folds if isinstance(fitted.get(f), Exception)]
        if failed:
            raise fitted[failed[0]]
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [fitted[f] for f in folds]


def cross_validate(ds: Dataset, cfg: TrainConfig):
    """K-fold cross-validation over assign_folds(len(ds), cfg.n_folds, cfg.seed).

    Fold f trains a fresh net, seeded cfg.seed + f, on the other folds and
    is scored on its own, so every sample is scored once, on the tasks
    cfg.mode trains (metrics.task_report). _run_folds trains the folds; this
    process scores them in fold order, so the report is a serial run's, bit
    for bit.
    """
    _check_config(cfg)
    if cfg.n_folds > len(ds):
        raise BadConfig(f"need n_folds <= the {len(ds)} samples, got {cfg.n_folds}")
    split = assign_folds(len(ds), cfg.n_folds, cfg.seed)

    def fit(f):
        fold_cfg = replace(cfg, seed=cfg.seed + f)
        net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=fold_cfg.seed)
        _, _, aug = train(net, [s for s, g in zip(ds.samples, split) if g != f], None, fold_cfg)
        return net, aug

    fold_reports = []
    for f, (net, aug) in enumerate(_run_folds(fit, cfg.n_folds)):
        test = [s for s, g in zip(ds.samples, split) if g == f]
        scores = evaluate_scores(net, test, aug, cfg.batch_size, use_ten_crop=cfg.use_ten_crop)
        fold_reports.append({**metrics.task_report(objective.TASKS[cfg.mode], scores,
                                                   *labels(test)), "fold": f})
    aggregate = {k: float(np.mean([r[k] for r in fold_reports]))
                 for k, val in fold_reports[0].items() if isinstance(val, float)}
    return {"mode": cfg.mode, "seed": cfg.seed, "folds": fold_reports, "aggregate": aggregate}
