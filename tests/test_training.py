import json
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from mtlkit.data import (
    AugmentConfig,
    Dataset,
    Sample,
    SynthSpec,
    planted_correlation,
    synthesize,
)
from mtlkit.errors import BadConfig, EmptyDataset, NonFiniteLoss, WorkerDied
from mtlkit.network import DualHeadNet, NetConfig, load_checkpoint, save_checkpoint
from mtlkit.optim import PlateauConfig
from mtlkit.training import (
    TrainConfig,
    cross_validate,
    evaluate_scores,
    train,
)

TINY_AUG = AugmentConfig(jitter_min=10, jitter_max=12, crop=8, eval_scale=10)


def tiny_dataset(n=30, seed=0):
    spec = SynthSpec(P=3, Q=3, N=n, R=planted_correlation(3, 3, 0.9),
                     image_size=(3, 12, 12), seed=seed)
    return synthesize(spec)


def tiny_config(**overrides):
    base = dict(mode="mtl", epochs=2, batch_size=10, lr=0.01, seed=0,
                net=NetConfig(width=4, blocks=1), augment=TINY_AUG, n_folds=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_loss_decreases(self):
        ds = tiny_dataset(40)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        log, _, _ = train(net, ds.samples, None, tiny_config(epochs=4))
        assert log[-1]["train_total"] < log[0]["train_total"]

    def test_zero_epochs_leaves_net_untouched(self):
        ds = tiny_dataset(20)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        before = [p.tensor.data.copy() for p in net.parameters()]
        log, _, _ = train(net, ds.samples, None, tiny_config(epochs=0))
        assert log == []
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p.tensor.data, b)

    def test_deterministic_given_seed(self):
        ds = tiny_dataset(20)
        results = []
        for _ in range(2):
            net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
            log, _, _ = train(net, ds.samples[:15], ds.samples[15:], tiny_config())
            results.append((log, [p.tensor.data.copy() for p in net.parameters()]))
        assert results[0][0] == results[1][0]
        for a, b in zip(results[0][1], results[1][1]):
            assert np.array_equal(a, b)

    def test_lesion_only_log_has_no_location_loss(self):
        ds = tiny_dataset(20)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        log, _, _ = train(net, ds.samples[:15], ds.samples[15:],
                          tiny_config(mode="lesion_only", epochs=1))
        assert "train_location_loss" not in log[0]
        assert "val_top1" not in log[0]
        assert "val_map_image" in log[0]

    def test_lesion_only_freezes_location_head(self):
        ds = tiny_dataset(20)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        w0 = net.location_w.data.copy()
        train(net, ds.samples, None, tiny_config(mode="lesion_only", epochs=1))
        assert np.array_equal(net.location_w.data, w0)

    def test_bad_mode_rejected(self):
        ds = tiny_dataset(10)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        with pytest.raises(BadConfig):
            train(net, ds.samples, None, tiny_config(mode="both"))

    def test_returned_augment_carries_train_means(self):
        ds = tiny_dataset(20)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        _, _, aug = train(net, ds.samples[:15], None, tiny_config(epochs=1))
        expected = np.mean([s.image.mean(axis=(1, 2)) for s in ds.samples[:15]], axis=0)
        assert np.abs(aug.channel_means - expected).max() < 1e-12

    def test_val_metrics_logged_for_mtl(self):
        ds = tiny_dataset(20)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        log, _, _ = train(net, ds.samples[:15], ds.samples[15:], tiny_config(epochs=1))
        rec = log[0]
        assert {"val_loss", "val_map_image", "val_top1", "lr"} <= rec.keys()

    def test_pretrain_changes_outcome(self):
        ds = tiny_dataset(20)
        outs = []
        for warm in (0, 1):
            net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
            train(net, ds.samples, None, tiny_config(epochs=1, pretrain_epochs=warm))
            outs.append(net.location_w.data.copy())
        assert not np.array_equal(outs[0], outs[1])


class TestObjectiveAndValidation:
    """The logged objective is the optimised one; val runs one cached pass."""

    def test_train_total_is_mean_of_optimised_nodes(self, monkeypatch):
        from mtlkit import objective

        nodes = []
        original = objective.joint_loss

        def recording(les_logits, *args, **kwargs):
            bd, node = original(les_logits, *args, **kwargs)
            nodes.append((float(node.data), les_logits.shape[0]))
            return bd, node

        monkeypatch.setattr(objective, "joint_loss", recording)
        ds = tiny_dataset(25)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        log, _, _ = train(net, ds.samples, None,
                          tiny_config(epochs=1, aux_weight=0.5, weight_decay=1e-2))
        expected = sum(value * n for value, n in nodes) / sum(n for _, n in nodes)
        assert [n for _, n in nodes] == [10, 10, 5]
        assert log[0]["train_total"] == pytest.approx(expected, rel=1e-12)
        assert log[0]["train_total"] == pytest.approx(
            log[0]["train_lesion_loss"] + 0.5 * log[0]["train_location_loss"], rel=1e-12)

    @pytest.mark.parametrize("mode", ["mtl", "lesion_only", "location_only"])
    def test_val_loss_is_main_task_loss(self, mode):
        from mtlkit.data import eval_transform
        from mtlkit.objective import lesion_loss, location_loss
        from mtlkit.tensor import Tensor

        ds = tiny_dataset(25)
        train_samples, val = ds.samples[:18], ds.samples[18:]
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        seen = []

        def on_epoch(record, opt, aug):
            # the float32 batches of batch_size that the val pass forwards, widened
            imgs = np.stack([eval_transform(s, aug) for s in val]).astype(np.float32)
            outs = [net.forward(imgs[i : i + 4]) for i in range(0, len(val), 4)]
            les, loc = (Tensor(np.concatenate([o[j].data for o in outs], dtype=np.float64))
                        for j in (0, 1))
            if mode == "location_only":
                expected = location_loss(loc, [s.v for s in val]).item()
            else:
                expected = lesion_loss(les, np.stack([s.u for s in val])).item()
            seen.append((record["val_loss"], expected))

        train(net, train_samples, val,
              tiny_config(mode=mode, epochs=2, batch_size=4, weight_decay=1e-2),
              on_epoch=on_epoch)
        assert len(seen) == 2
        for got, expected in seen:
            assert got == pytest.approx(expected, rel=1e-12)

    def test_eval_transform_once_per_val_sample(self, monkeypatch):
        from collections import Counter

        from mtlkit import training

        calls = Counter()
        original = training.eval_transform

        def counting(sample, aug):
            calls[sample.id] += 1
            return original(sample, aug)

        monkeypatch.setattr(training, "eval_transform", counting)
        ds = tiny_dataset(20)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        train(net, ds.samples[:15], ds.samples[15:], tiny_config(epochs=3))
        assert calls == Counter({s.id: 1 for s in ds.samples[15:]})

    def test_val_pass_builds_only_the_main_task_loss(self, monkeypatch):
        from mtlkit import objective

        calls = []
        original = objective.location_loss

        def counting(logits, v):
            calls.append(logits.shape[0])
            return original(logits, v)

        monkeypatch.setattr(objective, "location_loss", counting)
        ds = tiny_dataset(20)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        train(net, ds.samples[:14], ds.samples[14:], tiny_config(epochs=2, batch_size=5))
        assert calls == [5, 5, 4] * 2  # the training steps' batches; none of the 6 val

    def test_val_metrics_and_decay_match_recomputation(self):
        from mtlkit.metrics import map_image, top_k_accuracy

        ds = tiny_dataset(25)
        train_samples, val = ds.samples[:18], ds.samples[18:]
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        cfg = tiny_config(epochs=2, batch_size=4, weight_decay=1e-2)
        checked = []

        def on_epoch(record, opt, aug):
            les, loc = evaluate_scores(net, val, aug, cfg.batch_size)
            assert record["val_map_image"] == map_image(les, np.stack([s.u for s in val]))[0]
            assert record["val_top1"] == top_k_accuracy(loc, np.array([s.v for s in val]), 1)
            decay = 0.5 * cfg.weight_decay * sum(float((p.tensor.data ** 2).sum())
                                                 for p in opt.params)
            assert record["decay"] == pytest.approx(decay, rel=1e-12)
            checked.append(record["epoch"])

        train(net, train_samples, val, cfg, on_epoch=on_epoch)
        assert checked == [0, 1]


class TestConfigAndEmptyInputs:
    @pytest.mark.parametrize("mode", ["mtl", "lesion_only", "location_only"])
    @pytest.mark.parametrize("bad", [
        dict(weight_decay=-1e-4), dict(lr=0.0), dict(lr=-0.1), dict(batch_size=0),
        dict(epochs=-3), dict(pretrain_epochs=-1), dict(momentum=1.0), dict(momentum=-0.1),
        dict(aux_weight=-1.0), dict(aux_weight=float("nan")), dict(n_folds=1),
        dict(plateau=PlateauConfig(factor=2.0)), dict(plateau=PlateauConfig(min_lr=float("nan"))),
        dict(plateau=PlateauConfig(factor=0.0)), dict(plateau=PlateauConfig(patience=-1)),
        dict(plateau=PlateauConfig(min_lr=-1.0)), dict(plateau=PlateauConfig(rel_threshold=1.0)),
        dict(plateau=PlateauConfig(rel_threshold=-0.1)),
    ])
    def test_bad_values_rejected_in_every_mode(self, mode, bad):
        ds = tiny_dataset(9)
        cfg = tiny_config(mode=mode, **bad)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        with pytest.raises(BadConfig):
            train(net, ds.samples, None, cfg)
        with pytest.raises(BadConfig):
            cross_validate(ds, cfg)

    def test_more_folds_than_samples_fails_before_any_fork(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("cross_validate forked"))
        with pytest.raises(BadConfig, match="n_folds <= the 9 samples, got 10"):
            cross_validate(tiny_dataset(9), tiny_config(n_folds=10))

    def test_empty_inputs_raise_empty_dataset(self):
        ds = tiny_dataset(6)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        with pytest.raises(EmptyDataset):
            train(net, [], ds.samples, tiny_config())
        with pytest.raises(EmptyDataset):
            evaluate_scores(net, [], TINY_AUG)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_pretraining_loss_names_the_pass(self):
        ds = tiny_dataset(20)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
        with pytest.raises(NonFiniteLoss, match="^location_only .* at pretrain epoch 0, step 1$"):
            train(net, ds.samples, None, tiny_config(lr=1e308, pretrain_epochs=1))


class TestSmoke:
    def test_default_hyperparameters_reduce_loss_by_epoch_5(self):
        ds = tiny_dataset(60)
        cfg = TrainConfig(seed=0, net=NetConfig(width=4, blocks=1), augment=TINY_AUG)
        net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=0)
        log, _, _ = train(net, ds.samples, None, cfg)
        assert log[5]["train_total"] < log[0]["train_total"]

    def test_memorizes_tiny_dataset(self):
        # overfit sanity check: 20 samples, deterministic full-frame crops. At
        # lr 0.01 training has converged by epoch 500 (loss ~0.006); lr 0.03 with
        # the 10x/20x head multipliers had not at 150 and sometimes collapsed.
        from mtlkit.metrics import map_image

        ds = tiny_dataset(20)
        aug = replace(TINY_AUG, jitter_min=10, jitter_max=10, crop=10, flip_prob=0.0)
        cfg = tiny_config(epochs=500, lr=0.01, net=NetConfig(width=8, blocks=1),
                          augment=aug)
        net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=0)
        _, _, fitted = train(net, ds.samples, None, cfg)
        les, _ = evaluate_scores(net, ds.samples, fitted)
        u = np.stack([s.u for s in ds.samples])
        assert map_image(les, u)[0] > 0.95


class TestEvaluateScores:
    def test_rows_are_probabilities(self):
        ds = tiny_dataset(12)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=1)
        les, loc = evaluate_scores(net, ds.samples, TINY_AUG)
        assert les.scores.min() >= 0 and les.scores.max() <= 1
        assert np.abs(loc.scores.sum(axis=1) - 1).max() < 1e-12

    def test_batch_size_invariance(self):
        ds = tiny_dataset(12)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=1)
        a, _ = evaluate_scores(net, ds.samples, TINY_AUG, batch_size=3)
        b, _ = evaluate_scores(net, ds.samples, TINY_AUG, batch_size=12)
        assert np.abs(a.scores - b.scores).max() < 1e-12

    def test_ten_crop_equals_center_crop_on_constant_images(self):
        # every crop of a constant image is identical, so crop averaging
        # cannot change the scores
        samples = [Sample(np.full((3, 10, 10), 0.1 * (i + 1)), np.array([1.0, 0, 0]),
                          1, f"s{i}") for i in range(4)]
        net = DualHeadNet(NetConfig(width=4, blocks=1), 3, 3, seed=1)
        aug = replace(TINY_AUG, jitter_min=10, jitter_max=10, crop=8,
                      channel_means=np.zeros(3))
        a, _ = evaluate_scores(net, samples, aug, use_ten_crop=False)
        b, _ = evaluate_scores(net, samples, aug, use_ten_crop=True)
        assert np.abs(a.scores - b.scores).max() < 1e-12

    @pytest.mark.parametrize("batch_size", [1, 7, 20])
    def test_ten_crop_is_mean_of_crop_scores(self, batch_size):
        from mtlkit.data import ten_crop
        from mtlkit.objective import sigmoid, softmax

        ds = tiny_dataset(5)
        net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=1)
        les, loc = evaluate_scores(net, ds.samples, TINY_AUG, batch_size, use_ten_crop=True)
        # bit-equal: a forward must hold whole samples' crops, never one crop alone;
        # the crops are forwarded in float32 and their logits widened to float64
        for i, s in enumerate(ds.samples):
            les_logits, loc_logits, _, _ = net.forward(
                np.stack(ten_crop(s, TINY_AUG)).astype(np.float32))
            les_wide, loc_wide = (t.data.astype(np.float64) for t in (les_logits, loc_logits))
            assert np.array_equal(les.scores[i], sigmoid(les_wide).mean(axis=0))
            assert np.array_equal(loc.scores[i], softmax(loc_wide).mean(axis=0))


def test_inference_builds_no_graph(monkeypatch):
    """Every eval forward (val, single, ten-crop, index, query, attention) runs
    under no_grad in float32, as training forwards do; training forwards keep
    their graph."""
    from mtlkit import analysis, training
    from mtlkit.data import eval_transform

    caller = ["train"]
    seen = []
    forward, train_epoch = DualHeadNet.forward, training._train_epoch

    def recording_forward(self, batch):
        out = forward(self, batch)
        seen.append((caller[0], out[0].requires_grad, out[0].data.dtype.name))
        return out

    def labelled_epoch(*args):
        caller[0] = "train"
        out = train_epoch(*args)
        caller[0] = "val"
        return out

    monkeypatch.setattr(DualHeadNet, "forward", recording_forward)
    monkeypatch.setattr(training, "_train_epoch", labelled_epoch)
    ds = tiny_dataset(20)
    net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
    _, _, aug = train(net, ds.samples[:15], ds.samples[15:], tiny_config(pretrain_epochs=1))
    calls = [("single", lambda: evaluate_scores(net, ds.samples, aug, 7)),
             ("ten_crop", lambda: evaluate_scores(net, ds.samples, aug, 7, use_ten_crop=True)),
             ("index", lambda: analysis.build_index(net, ds, aug, batch_size=6)),
             ("query", lambda: analysis.query_feature(net, ds.samples[0], aug)),
             ("attention", lambda: analysis.attention(net, eval_transform(ds.samples[0], aug),
                                                      "lesion", 0))]
    for name, call in calls:
        caller[0] = name
        call()
    by_caller = {}
    for name, *how in seen:
        by_caller.setdefault(name, set()).add(tuple(how))
    inference = {(False, "float32")}
    assert by_caller == {"train": {(True, "float32")}, "val": inference,
                         "single": inference, "ten_crop": inference, "index": inference,
                         "query": inference, "attention": inference}


@pytest.mark.parametrize("seed", range(3))
def test_float32_inference_matches_a_float64_forward(seed):
    # stated tolerance: 1e-5 of each output's largest entry; after two epochs
    # of training, seeds 0-4 measured 6.6e-8 to 1.3e-7
    from mtlkit.data import eval_transform
    from mtlkit.tensor import no_grad

    ds = tiny_dataset(30, seed=seed)
    cfg = tiny_config(net=NetConfig(width=8, blocks=2), seed=seed)
    net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=seed)
    _, _, aug = train(net, ds.samples, None, cfg)
    imgs = np.stack([eval_transform(s, aug) for s in ds.samples])
    with no_grad():
        wide = net.forward(imgs)[:3]
    for got, ref in zip(net.infer(imgs), wide):
        assert np.abs(got - ref.data).max() <= 1e-5 * np.abs(ref.data).max()


class TestCrossValidation:
    def test_every_sample_scored_once(self):
        ds = tiny_dataset(18)
        report = cross_validate(ds, tiny_config(epochs=1))
        assert len(report["folds"]) == 3
        assert set(report["aggregate"]) >= {"map_class", "map_image", "top1"}

    def test_deterministic(self):
        ds = tiny_dataset(18)
        a = cross_validate(ds, tiny_config(epochs=1))
        b = cross_validate(ds, tiny_config(epochs=1))
        assert a == b

    def test_aggregate_is_fold_mean(self):
        ds = tiny_dataset(18)
        report = cross_validate(ds, tiny_config(epochs=1))
        manual = np.mean([f["map_class"] for f in report["folds"]])
        assert report["aggregate"]["map_class"] == pytest.approx(manual, abs=1e-12)

    def test_lesion_only_report_omits_location_metrics(self):
        ds = tiny_dataset(18)
        report = cross_validate(ds, tiny_config(epochs=1, mode="lesion_only"))
        assert "top1" not in report["folds"][0]
        assert "map_class" in report["folds"][0]


def _fold_failing_train(monkeypatch, failing):
    """Patch training.train to raise NonFiniteLoss for the given folds (seed 0)."""
    from mtlkit import training

    real = training.train

    def failing_train(net, train_samples, val_samples, cfg, on_epoch=None):
        if cfg.seed in failing:
            raise NonFiniteLoss(f"fold {cfg.seed}")
        return real(net, train_samples, val_samples, cfg, on_epoch)

    monkeypatch.setattr(training, "train", failing_train)


class TestParallelFolds:
    @pytest.mark.parametrize("mode", ["mtl", "lesion_only", "location_only"])
    def test_reports_equal_at_every_cpu_count(self, monkeypatch, mode):
        from mtlkit import training

        # the reports are rank metrics, blind to a last-bit change in the weights
        real, weights = training.evaluate_scores, []

        def recording_evaluate_scores(net, *args, **kwargs):
            weights.append([p.tensor.data for p in net.parameters()])
            return real(net, *args, **kwargs)

        monkeypatch.setattr(training, "evaluate_scores", recording_evaluate_scores)
        ds = tiny_dataset(18)
        cfg = tiny_config(epochs=1, mode=mode, use_ten_crop=True, aux_weight=0.5)
        reports = []
        for cpus in (1, 2, 3, 16):
            monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
            reports.append(cross_validate(ds, cfg))
        assert all(r == reports[0] for r in reports[1:])
        assert len(weights) == 12
        for i in range(3, 12):
            assert all(np.array_equal(a, b) for a, b in zip(weights[i], weights[i % 3]))

    @pytest.mark.parametrize("failing, raised", [({1, 3}, 1), ({0}, 0), ({0, 1}, 0), ({2, 3}, 2),
                                                ({1, 2}, 1)])
    def test_lowest_failing_fold_raises_and_no_child_is_left(self, monkeypatch, failing, raised):
        from mtlkit import training

        # at two processes the caller trains folds 0 and 2, a child folds 1 and 3
        monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
        _fold_failing_train(monkeypatch, failing)
        ds = tiny_dataset(20)
        with pytest.raises(NonFiniteLoss, match=f"^fold {raised}$"):
            cross_validate(ds, tiny_config(epochs=1, n_folds=4))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_caller_stops_once_a_lower_child_fold_has_failed(self, monkeypatch):
        from mtlkit import training

        # at two processes the caller trains folds 0, 2 and 4, a child folds 1 and 3
        parent, real, trained = os.getpid(), training.train, []

        def train(net, train_samples, val_samples, cfg, on_epoch=None):
            if os.getpid() != parent and cfg.seed == 1:
                raise NonFiniteLoss("fold 1")
            if os.getpid() == parent:
                trained.append(cfg.seed)
                if cfg.seed == 0:   # end fold 0 only once the child has exited
                    try:
                        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
                    except ChildProcessError:
                        pass   # it exited before fold 0 began and stop(0) reaped it
            return real(net, train_samples, val_samples, cfg, on_epoch)

        monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(training, "train", train)
        ds = tiny_dataset(20)
        with pytest.raises(NonFiniteLoss, match="^fold 1$"):
            cross_validate(ds, tiny_config(epochs=1, n_folds=5))
        assert trained == [0]

    @pytest.mark.parametrize("folds", [2, 5])
    def test_child_ending_without_a_result_is_worker_died(self, monkeypatch, folds):
        from mtlkit import training

        parent, real = os.getpid(), training.train

        def dying_train(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(training, "train", dying_train)
        ds = tiny_dataset(20)
        owned = "fold 1" if folds == 2 else "folds 1, 3"
        with pytest.raises(WorkerDied, match=f"{owned} ended without a result "
                                             r"\(killed by signal 9\)$"):
            cross_validate(ds, tiny_config(epochs=1, n_folds=folds))


def test_checkpoint_resume_matches(tmp_path):
    # saving after training and reloading reproduces scores bit-for-bit
    ds = tiny_dataset(12)
    net = DualHeadNet(NetConfig(width=4, blocks=1), ds.P, ds.Q, seed=0)
    _, opt, aug = train(net, ds.samples, None, tiny_config(epochs=1))
    path = str(tmp_path / "net.ckpt")
    save_checkpoint(path, net, opt.buffers, {"optimizer": opt.state()})
    loaded, _, _ = load_checkpoint(path)
    a, _ = evaluate_scores(net, ds.samples, aug)
    b, _ = evaluate_scores(loaded, ds.samples, aug)
    assert np.array_equal(a.scores, b.scores)
