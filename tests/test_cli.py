"""End-to-end exercises of the command-line surface.

Everything runs on deliberately tiny datasets and nets so the whole
module stays under a few seconds.
"""

import json
import os
import struct

import numpy as np
import pytest

from mtlkit import training
from mtlkit.cli import main, train_config_from_dict
from mtlkit.data import load_manifest
from mtlkit.network import DualHeadNet, NetConfig, load_checkpoint, save_checkpoint
from mtlkit.objective import TASKS
from mtlkit.training import TrainConfig

SPEC = {
    "P": 3,
    "Q": 3,
    "N": 24,
    "correlation_strength": 0.9,
    "image_size": [3, 12, 12],
    "seed": 0,
}

TINY_TRAIN = {
    "mode": "mtl",
    "epochs": 1,
    "batch_size": 8,
    "lr": 0.01,
    "seed": 0,
    "val_fraction": 0.25,
    "net": {"width": 4, "blocks": 1},
    "augment": {"jitter_min": 10, "jitter_max": 12, "crop": 8, "eval_scale": 10},
    "n_folds": 3,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized dataset + one trained run shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    data_dir = root / "data"
    assert main(["synth", str(spec_path), str(data_dir)]) == 0
    manifest = str(data_dir / "manifest.jsonl")

    config = dict(TINY_TRAIN, manifest=manifest)
    cfg_path = root / "train.json"
    cfg_path.write_text(json.dumps(config))
    run_dir = root / "run"
    assert main(["train", str(cfg_path), "--out-dir", str(run_dir)]) == 0
    return {"root": root, "manifest": manifest, "cfg_path": str(cfg_path),
            "run_dir": str(run_dir), "ckpt": str(run_dir / "final.ckpt")}


class TestSynth:
    def test_outputs_loadable_manifest(self, workspace):
        ds = load_manifest(workspace["manifest"])
        assert len(ds) == SPEC["N"] and ds.P == 3 and ds.Q == 3

    def test_rerun_byte_identical(self, workspace, tmp_path):
        spec_path = workspace["root"] / "spec.json"
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", str(spec_path), str(a)])
        main(["synth", str(spec_path), str(b)])
        for root, _, files in os.walk(a):
            for name in files:
                path = os.path.join(root, name)
                twin = os.path.join(str(b), os.path.relpath(path, str(a)))
                assert open(path, "rb").read() == open(twin, "rb").read(), name

    def test_seed_flag_changes_data(self, workspace, tmp_path):
        spec_path = workspace["root"] / "spec.json"
        main(["synth", str(spec_path), str(tmp_path / "d2"), "--seed", "7"])
        a = load_manifest(workspace["manifest"])
        b = load_manifest(str(tmp_path / "d2" / "manifest.jsonl"))
        assert not np.array_equal(a.samples[0].image, b.samples[0].image)


class TestTrain:
    def test_artifacts_written(self, workspace):
        run = workspace["run_dir"]
        for name in ("final.ckpt", "best.ckpt", "log.jsonl", "config.json"):
            assert os.path.exists(os.path.join(run, name)), name
        records = [json.loads(line) for line in open(os.path.join(run, "log.jsonl"))]
        assert len(records) == TINY_TRAIN["epochs"]
        assert "val_loss" in records[0]

    def test_reruns_bit_identical(self, workspace, tmp_path):
        out = tmp_path / "rerun"
        assert main(["train", workspace["cfg_path"], "--out-dir", str(out)]) == 0
        original = open(os.path.join(workspace["run_dir"], "final.ckpt"), "rb").read()
        rerun = open(out / "final.ckpt", "rb").read()
        assert original == rerun
        assert (out / "log.jsonl").read_text() == open(
            os.path.join(workspace["run_dir"], "log.jsonl")).read()

    def test_mode_override(self, workspace, tmp_path, capsys):
        out = tmp_path / "les"
        assert main(["train", workspace["cfg_path"], "--out-dir", str(out),
                     "--mode", "lesion_only"]) == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["mode"] == "lesion_only"
        # its checkpoint holds momentum buffers for the trunk and lesion head only
        assert main(["eval", str(out / "final.ckpt"), workspace["manifest"]]) == 0


    @pytest.mark.parametrize("epochs, recorded", [(0, None), (2, 1)])
    def test_checkpoint_epoch_is_the_last_main_epoch(self, workspace, tmp_path, epochs,
                                                     recorded):
        # the location-only warm-up is not a main epoch: with none run, epoch is null
        from mtlkit.network import load_checkpoint

        cfg_path = tmp_path / "warm.json"
        cfg_path.write_text(json.dumps(dict(json.loads(open(workspace["cfg_path"]).read()),
                                            pretrain_epochs=1)))
        out = tmp_path / "run"
        assert main(["train", str(cfg_path), "--out-dir", str(out),
                     "--epochs", str(epochs)]) == 0
        assert load_checkpoint(str(out / "final.ckpt"))[2]["epoch"] == recorded
        if epochs == 0:  # no val_loss ever ran, so best.ckpt holds the final state
            assert load_checkpoint(str(out / "best.ckpt"))[2]["epoch"] is None


class TestEval:
    def test_report_and_scores(self, workspace, tmp_path):
        report_path = tmp_path / "report.json"
        prefix = str(tmp_path / "scores")
        assert main(["eval", workspace["ckpt"], workspace["manifest"],
                     "--report-out", str(report_path), "--scores-out", prefix]) == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["map_class"] <= 1.0
        assert 0.0 <= report["top1"] <= 1.0
        assert os.path.exists(prefix + "_lesion.csv")
        assert os.path.exists(prefix + "_location.csv")

    def test_ten_crop_flag(self, workspace, tmp_path):
        report_path = tmp_path / "tc.json"
        assert main(["eval", workspace["ckpt"], workspace["manifest"],
                     "--ten-crop", "--report-out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["ten_crop"] is True

    def test_dimension_mismatch_exits_nonzero(self, workspace, tmp_path, capsys):
        spec = dict(SPEC, P=4, N=6)
        spec_path = tmp_path / "spec4.json"
        spec_path.write_text(json.dumps(spec))
        main(["synth", str(spec_path), str(tmp_path / "d4")])
        capsys.readouterr()
        code = main(["eval", workspace["ckpt"], str(tmp_path / "d4" / "manifest.jsonl")])
        assert code == 1
        assert "DimensionMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("mode", sorted(TASKS))
def test_eval_reports_the_fields_cv_reports_for_the_checkpoint_mode(workspace, tmp_path, mode):
    run, cv = tmp_path / "run", tmp_path / "cv.json"
    assert main(["train", workspace["cfg_path"], "--mode", mode, "--out-dir", str(run)]) == 0
    assert main(["cv", workspace["cfg_path"], "--mode", mode, "--report-out", str(cv)]) == 0
    fold_keys = set(json.loads(cv.read_text())["folds"][0]) - {"fold"}
    assert ("top1" in fold_keys) == ("location" in TASKS[mode])
    assert ("map_class" in fold_keys) == ("lesion" in TASKS[mode])
    for flag in ([], ["--ten-crop"]):
        out = tmp_path / "eval.json"
        assert main(["eval", str(run / "final.ckpt"), workspace["manifest"], *flag,
                     "--report-out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == fold_keys | {"ten_crop"}


def test_eval_of_a_checkpoint_without_mode_reports_mtl_fields(workspace, tmp_path):
    bare = _with_state(workspace, tmp_path, _drop("mode"))
    reports = []
    for ckpt in (bare, workspace["ckpt"]):
        out = tmp_path / "eval.json"
        assert main(["eval", ckpt, workspace["manifest"], "--report-out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert "top1" in json.loads(reports[0]) and "map_class" in json.loads(reports[0])


def _checkpoint_of_mode(workspace, tmp_path, mode):
    """Path of the workspace net saved as a `mode` checkpoint, without buffers."""
    net, _, state = load_checkpoint(workspace["ckpt"])
    path = str(tmp_path / f"{mode}.ckpt")
    save_checkpoint(path, net, [], dict(state, mode=mode))
    return path


@pytest.mark.parametrize("mode", sorted(TASKS))
def test_eval_writes_the_scores_of_the_trained_heads_only(workspace, tmp_path, mode):
    ckpt, scores = _checkpoint_of_mode(workspace, tmp_path, mode), tmp_path / "scores"
    scores.mkdir()
    assert main(["eval", ckpt, workspace["manifest"], "--scores-out", str(scores / "s"),
                 "--report-out", str(tmp_path / "r.json")]) == 0
    assert sorted(os.listdir(scores)) == sorted(f"s_{task}.csv" for task in TASKS[mode])


@pytest.mark.parametrize("mode", sorted(TASKS))
@pytest.mark.parametrize("head", ["lesion", "location"])
def test_attention_maps_only_a_trained_head(workspace, tmp_path, capsys, mode, head):
    ckpt, out = _checkpoint_of_mode(workspace, tmp_path, mode), tmp_path / "maps"
    sid = load_manifest(workspace["manifest"]).samples[0].id
    capsys.readouterr()
    code = main(["attention", ckpt, workspace["manifest"], "--id", sid, "--head", head,
                 "--out-dir", str(out)])
    if head in TASKS[mode]:
        assert code == 0 and len(os.listdir(out)) == 2
    else:
        assert code == 1
        line = _single_error(capsys, "BadConfig")
        assert f"--head {head}" in line and mode in line
        assert not out.exists()


class TestEnsemble:
    def test_scores_roundtrip_through_ensemble(self, workspace, tmp_path, capsys):
        prefix = str(tmp_path / "s")
        main(["eval", workspace["ckpt"], workspace["manifest"], "--scores-out", prefix,
              "--report-out", str(tmp_path / "r.json")])
        capsys.readouterr()
        report_path = tmp_path / "ens.json"
        assert main(["ensemble", prefix + "_lesion.csv", prefix + "_lesion.csv",
                     "--labels", workspace["manifest"],
                     "--report-out", str(report_path)]) == 0
        ens = json.loads(report_path.read_text())
        solo = json.loads((tmp_path / "r.json").read_text())
        # max-ensembling a model with itself changes nothing, and both
        # commands build the lesion report the same way
        keys = ("map_class", "map_image", "per_class_ap", "excluded_classes")
        assert {k: ens[k] for k in keys} == {k: solo[k] for k in keys}

    def test_location_kind(self, workspace, tmp_path):
        prefix = str(tmp_path / "s")
        main(["eval", workspace["ckpt"], workspace["manifest"], "--scores-out", prefix,
              "--report-out", str(tmp_path / "r.json")])
        report_path = tmp_path / "loc.json"
        assert main(["ensemble", prefix + "_location.csv", prefix + "_location.csv",
                     "--labels", workspace["manifest"], "--kind", "location",
                     "--method", "mean", "--report-out", str(report_path)]) == 0
        ens = json.loads(report_path.read_text())
        solo = json.loads((tmp_path / "r.json").read_text())
        assert {k: ens[k] for k in ("top1", "top3")} == {k: solo[k] for k in ("top1", "top3")}


def test_cv_command(workspace, tmp_path):
    report_path = tmp_path / "cv.json"
    assert main(["cv", workspace["cfg_path"], "--epochs", "1",
                 "--report-out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["folds"]) == TINY_TRAIN["n_folds"]
    assert "map_class" in report["aggregate"]


def test_cv_report_bytes_do_not_depend_on_cpu_count(workspace, tmp_path, monkeypatch):
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        path = tmp_path / f"cv{cpus}.json"
        assert main(["cv", workspace["cfg_path"], "--report-out", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_cv_worker_death_fails_in_one_line(workspace, tmp_path, capsys, monkeypatch):
    parent, real = os.getpid(), training.train

    def dying_train(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "train", dying_train)
    capsys.readouterr()
    assert main(_argv("cv", workspace, tmp_path)) == 1
    line = _single_error(capsys, "WorkerDied")
    assert line.endswith("fold 1 ended without a result (exit status 3)")


def test_correlate_command(workspace, tmp_path):
    out = tmp_path / "corr.csv"
    assert main(["correlate", workspace["manifest"], "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 3    # header + one row per lesion
    row = [float(x) for x in lines[1].split(",")[1:]]
    assert sum(row) == pytest.approx(1.0)


def test_retrieve_command(workspace, tmp_path):
    report_path = tmp_path / "ret.json"
    assert main(["retrieve", workspace["ckpt"], workspace["manifest"], "--k", "3",
                 "--report-out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["k"] == 3
    assert len(report["queries"]) == SPEC["N"]
    # self-retrieval: each query's nearest neighbor is itself (the query
    # feature is recomputed singly, so allow float-summation noise)
    first = report["queries"][0]
    assert first["neighbors"][0]["id"] == first["query"]
    assert first["neighbors"][0]["distance"] < 1e-9


def test_retrieve_on_an_overflowing_checkpoint_fails_in_one_line(workspace, tmp_path, capsys):
    # 1e40 is past float32's range, so the forward's last residual sum is
    # +inf wherever the scaled bias is positive, and so is that channel's feature
    net, bufs, state = load_checkpoint(workspace["ckpt"])
    assert (net.block0_b2.data > 0).any()
    net.block0_b2.data = net.block0_b2.data * 1e40
    bad, report = str(tmp_path / "overflow.ckpt"), tmp_path / "ret.json"
    save_checkpoint(bad, net, bufs, state)
    capsys.readouterr()
    assert main(["retrieve", bad, workspace["manifest"], "--report-out", str(report)]) == 1
    assert "is not finite" in _single_error(capsys, "NonFiniteFeature")
    assert not report.exists()


def _scale_conv1_w(net, bufs):
    net.conv1_w.data = net.conv1_w.data * 1e40


def _nan_in_conv1_w(net, bufs):
    net.conv1_w.data[0, 0, 0, 0] = np.nan


def _nan_in_its_buffer(net, bufs):
    bufs[0][0, 0, 0, 0] = np.nan


@pytest.mark.parametrize("command", ["eval", "retrieve", "attention"])
@pytest.mark.parametrize("edit, what", [
    (_scale_conv1_w, "parameter conv1_w"), (_nan_in_conv1_w, "parameter conv1_w"),
    (_nan_in_its_buffer, "momentum buffer of conv1_w"),
], ids=["scaled-1e40", "nan", "buffer-nan"])
def test_overflowing_checkpoint_fails_in_one_line(workspace, tmp_path, capsys, command, edit,
                                                  what):
    # past float32's range a parameter overflows the float32 forward, whose relu
    # turns the NaN into 0, so every sample would get the same scores
    net, bufs, state = load_checkpoint(workspace["ckpt"])
    edit(net, bufs)
    bad = str(tmp_path / "bad.ckpt")
    save_checkpoint(bad, net, bufs, state)
    capsys.readouterr()
    assert main(_argv(command, workspace, tmp_path, ckpt=bad)) == 1
    line = _single_error(capsys, "CheckpointError")
    assert bad in line and f"{what} is not finite" in line


def test_attention_command(workspace, tmp_path):
    ds = load_manifest(workspace["manifest"])
    sid = ds.samples[0].id
    assert main(["attention", workspace["ckpt"], workspace["manifest"],
                 "--id", sid, "--out-dir", str(tmp_path)]) == 0
    files = os.listdir(tmp_path)
    assert any(f.endswith(".pgm") for f in files)
    assert any(f.endswith(".json") for f in files)


def test_unknown_sample_id_exits_nonzero(workspace, capsys):
    code = main(["attention", workspace["ckpt"], workspace["manifest"], "--id", "nope"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_config_from_dict_ignores_extras():
    cfg = train_config_from_dict({"epochs": 3, "manifest": "x.jsonl", "val_fraction": 0.2,
                                  "out_dir": "run"})
    assert isinstance(cfg, TrainConfig) and cfg.epochs == 3


def _single_error(capsys, type_name):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {type_name}: "), lines
    return lines[0]


@pytest.mark.parametrize("section", ["net", "plateau", "augment"])
def test_unknown_nested_config_key_is_bad_config(workspace, tmp_path, capsys, section):
    raw = json.loads(open(workspace["cfg_path"]).read())
    raw[section] = dict(raw.get(section, {}), widht=3)
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["train", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 1
    assert "widht" in _single_error(capsys, "BadConfig")


def test_empty_manifest_fails_in_one_line(workspace, tmp_path, capsys):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text(open(workspace["manifest"]).readline())
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps(dict(TINY_TRAIN, manifest=str(manifest))))
    capsys.readouterr()
    assert main(["train", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 1
    _single_error(capsys, "EmptyDataset")
    assert main(["eval", workspace["ckpt"], str(manifest)]) == 1
    _single_error(capsys, "EmptyDataset")


def test_truncated_checkpoint_fails_in_one_line(workspace, tmp_path, capsys):
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(open(workspace["ckpt"], "rb").read()[:200])
    capsys.readouterr()
    assert main(["eval", str(cut), workspace["manifest"]]) == 1
    _single_error(capsys, "CheckpointError")


def test_truncated_ppm_fails_in_one_line(workspace, tmp_path, capsys):
    import shutil

    data_dir = tmp_path / "data"
    shutil.copytree(os.path.dirname(workspace["manifest"]), data_dir)
    first = json.loads(open(data_dir / "manifest.jsonl").read().splitlines()[1])
    image = data_dir / first["image"]
    image.write_bytes(image.read_bytes()[:100])
    capsys.readouterr()
    assert main(["eval", workspace["ckpt"], str(data_dir / "manifest.jsonl")]) == 1
    _single_error(capsys, "ParseError")


def test_zero_size_ppm_fails_train_in_one_line(workspace, tmp_path, capsys):
    import shutil

    data_dir = tmp_path / "data"
    shutil.copytree(os.path.dirname(workspace["manifest"]), data_dir)
    first = json.loads(open(data_dir / "manifest.jsonl").read().splitlines()[1])
    (data_dir / first["image"]).write_bytes(b"P6 0 0 255\n")
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(dict(TINY_TRAIN, manifest=str(data_dir / "manifest.jsonl"))))
    capsys.readouterr()
    assert main(["train", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 1
    assert "zero-size image" in _single_error(capsys, "ParseError")


def _run_bad_config(workspace, tmp_path, capsys, edit, command="train"):
    raw = json.loads(open(workspace["cfg_path"]).read())
    edit(raw)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    capsys.readouterr()
    out = ["--out-dir", str(tmp_path / "run")] if command == "train" else []
    assert main([command, str(cfg_path), *out]) == 1
    assert not (tmp_path / "run").exists()
    return _single_error(capsys, "BadConfig")


@pytest.mark.parametrize("value", [-0.5, 1.0, 1.5, "0.1", None, True])
def test_val_fraction_outside_unit_interval_is_bad_config(workspace, tmp_path, capsys, value):
    line = _run_bad_config(workspace, tmp_path, capsys,
                           lambda raw: raw.update(val_fraction=value))
    assert "val_fraction" in line


@pytest.mark.parametrize("key, value", [
    ("net", None), ("plateau", [1]), ("augment", "x"), ("lr", "0.1"), ("epochs", 2.5),
    ("batch_size", True), ("mode", 3), ("use_ten_crop", 1), ("manifest", None),
    pytest.param("lr", 10**400, id="lr-int-past-float"),   # an int no float can hold
])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_wrongly_typed_config_value_is_bad_config(workspace, tmp_path, capsys, key, value,
                                                  command):
    line = _run_bad_config(workspace, tmp_path, capsys, lambda raw: raw.update({key: value}),
                           command)
    assert key in line


@pytest.mark.parametrize("section, key, value", [
    ("net", "width", "8"), ("net", "head_w_mult", None), ("plateau", "patience", 1.5),
    ("augment", "crop", 8.0), ("augment", "flip_prob", False),
    ("augment", "channel_means", "garbage"),
])
def test_wrongly_typed_nested_value_is_bad_config(workspace, tmp_path, capsys, section, key,
                                                  value):
    line = _run_bad_config(workspace, tmp_path, capsys,
                           lambda raw: raw.setdefault(section, {}).update({key: value}))
    assert f"{section}.{key}" in line


def _set(raw, key, value):
    """Set a top-level key, or a nested one named "section.key"."""
    *section, name = key.split(".")
    (raw.setdefault(section[0], {}) if section else raw)[name] = value


@pytest.mark.parametrize("key, value, need", [
    ("weight_decay", -1.0, "weight_decay >= 0"), ("epochs", -3, "epochs >= 0"),
    ("pretrain_epochs", -1, "pretrain_epochs >= 0"), ("momentum", 1.0, "momentum in [0, 1)"),
    ("momentum", -5.0, "momentum in [0, 1)"), ("aux_weight", -1.0, "aux_weight >= 0"),
    ("plateau.factor", 2.0, "plateau.factor in (0, 1]"),
    ("plateau.factor", 0.0, "plateau.factor in (0, 1]"),
    ("plateau.patience", -1, "plateau.patience >= 0"),
    ("plateau.min_lr", -1.0, "plateau.min_lr >= 0"),
    ("plateau.rel_threshold", 1.0, "plateau.rel_threshold in [0, 1)"),
    ("seed", -1, "seed >= 0"),
    # json.dumps writes NaN and Infinity, which json.load reads back
    ("lr", float("nan"), "lr > 0"), ("lr", 1e400, "lr > 0"),
    ("weight_decay", float("inf"), "weight_decay >= 0"),
    ("aux_weight", float("inf"), "aux_weight >= 0"),
    ("plateau.min_lr", float("inf"), "plateau.min_lr >= 0"),
    ("net.width", 0, "net.width >= 1"), ("net.head_w_mult", -1, "net.head_w_mult >= 0"),
    ("val_fraction", 1.5, "val_fraction in [0, 1)"),   # cv checks it too
])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_out_of_range_config_value_fails_before_any_output(workspace, tmp_path, capsys, key,
                                                           value, need, command):
    line = _run_bad_config(workspace, tmp_path, capsys, lambda raw: _set(raw, key, value),
                           command)
    assert need in line and str(value) in line


@pytest.mark.parametrize("value", [0, 1, -2, 25])
def test_n_folds_outside_two_to_n_is_bad_config(workspace, tmp_path, capsys, value):
    # the workspace's manifest holds 24 samples
    line = _run_bad_config(workspace, tmp_path, capsys,
                           lambda raw: raw.update(n_folds=value), "cv")
    assert "n_folds" in line and f"got {value}" in line


@pytest.mark.parametrize("command", ["train", "cv"])
def test_jitter_min_above_jitter_max_fails_before_any_output(workspace, tmp_path, capsys,
                                                             command):
    line = _run_bad_config(workspace, tmp_path, capsys,
                           lambda raw: raw["augment"].update(jitter_min=13), command)
    assert "jitter_min <= augment.jitter_max" in line and "13 > 12" in line


@pytest.mark.parametrize("key, value", [("eval_scale", 7), ("jitter_min", 7)])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_scale_below_the_crop_fails_before_any_output(workspace, tmp_path, capsys, key, value,
                                                      command):
    # without the check, train exits 0 and eval fails; cv trains every fold first
    line = _run_bad_config(workspace, tmp_path, capsys,
                           lambda raw: raw["augment"].update({key: value}), command)
    assert "augment.jitter_min and augment.eval_scale >= augment.crop" in line
    assert f"{value}" in line and "crop 8" in line


@pytest.mark.parametrize("key, value", [("crop", -2), ("crop", 0), ("flip_prob", 2.0),
                                        ("flip_prob", -0.5)])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_out_of_range_augment_value_fails_before_any_output(workspace, tmp_path, capsys, key,
                                                            value, command):
    line = _run_bad_config(workspace, tmp_path, capsys,
                           lambda raw: raw["augment"].update({key: value}), command)
    rule = {"crop": ">= 1", "flip_prob": "in [0, 1]"}[key]
    assert f"need augment.{key} {rule}, got {value}" in line


# without the checks, train makes its out_dir and cv forks before the first forward fails
@pytest.mark.parametrize("key, value", [("augment.crop", 9), ("net.in_channels", 1)])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_odd_crop_or_foreign_channel_count_fails_before_any_output(workspace, tmp_path, capsys,
                                                                   key, value, command):
    line = _run_bad_config(workspace, tmp_path, capsys, lambda raw: _set(raw, key, value),
                           command)
    assert key in line and str(value) in line


@pytest.mark.parametrize("command", ["train", "cv"])
def test_negative_epochs_flag_fails_before_any_output(workspace, tmp_path, capsys, command):
    capsys.readouterr()
    out = ["--out-dir", str(tmp_path / "run")] if command == "train" else []
    assert main([command, workspace["cfg_path"], *out, "--epochs", "-3"]) == 1
    assert not (tmp_path / "run").exists()
    assert "-3" in _single_error(capsys, "BadConfig")


@pytest.mark.parametrize("command", ["train", "cv", "synth"])
def test_negative_seed_flag_fails_before_any_output(workspace, tmp_path, capsys, command):
    if command == "synth":
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        argv, error = ["synth", str(spec_path), str(tmp_path / "run")], "BadSpec"
    else:
        out = ["--out-dir", str(tmp_path / "run")] if command == "train" else []
        argv, error = [command, workspace["cfg_path"], *out], "BadConfig"
    capsys.readouterr()
    assert main([*argv, "--seed", "-1"]) == 1
    assert not (tmp_path / "run").exists()
    assert "need seed >= 0, got -1" in _single_error(capsys, error)


@pytest.mark.parametrize("where", ["config-empty", "config-under-file", "flag-empty",
                                   "flag-under-file", "flag-is-file"])
def test_unusable_out_dir_is_bad_config(workspace, tmp_path, capsys, where):
    (tmp_path / "file").write_text("")
    under_file = str(tmp_path / "file" / "run")
    out_dir = {"config-empty": "", "config-under-file": under_file}.get(where,
                                                                       str(tmp_path / "run"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_TRAIN, manifest=workspace["manifest"],
                                        out_dir=out_dir)))
    flag = {"flag-empty": "", "flag-under-file": under_file,
            "flag-is-file": str(tmp_path / "file")}
    argv = ["train", str(cfg_path), *(["--out-dir", flag[where]] if where in flag else [])]
    capsys.readouterr()
    assert main(argv) == 1
    assert not (tmp_path / "run").exists()  # an empty flag does not fall back to the config's
    assert "cannot create out_dir" in _single_error(capsys, "BadConfig")


def _output_argv(command, workspace, tmp_path, out):
    """argv of command writing its output (a file or directory) to out."""
    ckpt, manifest = workspace["ckpt"], workspace["manifest"]
    sid = load_manifest(manifest).samples[0].id
    if command == "ensemble":
        scores = _score_csv(workspace, tmp_path)
        return ["ensemble", scores, scores, "--labels", manifest, "--report-out", out]
    return {"synth": ["synth", str(workspace["root"] / "spec.json"), out],
            "eval-report": ["eval", ckpt, manifest, "--report-out", out],
            "eval-scores": ["eval", ckpt, manifest, "--scores-out", out],
            "cv": ["cv", workspace["cfg_path"], "--report-out", out],
            "correlate": ["correlate", manifest, "--out", out],
            "retrieve": ["retrieve", ckpt, manifest, "--report-out", out],
            "attention": ["attention", ckpt, manifest, "--id", sid, "--out-dir", out]}[command]


# train reports its own out_dir as a BadConfig (test_unusable_out_dir_is_bad_config)
@pytest.mark.parametrize("command", ["synth", "eval-report", "eval-scores", "cv", "ensemble",
                                     "correlate", "retrieve", "attention"])
def test_output_path_beneath_a_file_fails_in_one_line(workspace, tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    argv = _output_argv(command, workspace, tmp_path, str(tmp_path / "file" / "out"))
    capsys.readouterr()
    assert main(argv) == 1
    _single_error(capsys, "NotADirectoryError")


# synth's is test_empty_synth_out_dir_is_bad_config_and_writes_nothing; train reports an
# empty out_dir as one it cannot create (test_unusable_out_dir_is_bad_config)
@pytest.mark.parametrize("command", ["eval-report", "eval-scores", "cv", "ensemble", "correlate",
                                     "retrieve", "attention"])
def test_empty_output_path_is_bad_config_and_writes_nothing(workspace, tmp_path, capsys,
                                                            monkeypatch, command):
    argv = _output_argv(command, workspace, tmp_path, "")
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(argv) == 1
    assert "needs a non-empty --" in _single_error(capsys, "BadConfig")
    assert sorted(os.listdir(tmp_path)) == before


def test_empty_synth_out_dir_is_bad_config_and_writes_nothing(workspace, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", str(workspace["root"] / "spec.json"), ""]) == 1
    assert "non-empty out_dir" in _single_error(capsys, "BadConfig")
    assert os.listdir(tmp_path) == []


def _one_channel_checkpoint(workspace, tmp_path):
    """The workspace checkpoint's state on a fresh net of one input channel."""
    net, _, state = load_checkpoint(workspace["ckpt"])
    state["augment"]["channel_means"] = state["augment"]["channel_means"][:1]
    path = str(tmp_path / "gray.ckpt")
    save_checkpoint(path, DualHeadNet(NetConfig(in_channels=1, width=4, blocks=1), net.P,
                                      net.Q, seed=0), None, state)
    return path


@pytest.mark.parametrize("case, error", [
    ("retrieve-k-0", "BadK"), ("attention-class-99", "BadClass"),
    ("eval-one-channel", "ShapeMismatch"), ("retrieve-one-channel", "ShapeMismatch")])
def test_bad_k_class_index_or_channel_count_fails_in_one_line(workspace, tmp_path, capsys,
                                                              case, error):
    ckpt, manifest = workspace["ckpt"], workspace["manifest"]
    sid = load_manifest(manifest).samples[0].id
    if case.endswith("one-channel"):
        ckpt = _one_channel_checkpoint(workspace, tmp_path)
    argv = {"retrieve-k-0": ["retrieve", ckpt, manifest, "--k", "0"],
            "attention-class-99": ["attention", ckpt, manifest, "--id", sid,
                                   "--class-index", "99", "--out-dir", str(tmp_path / "att")],
            "eval-one-channel": ["eval", ckpt, manifest],
            "retrieve-one-channel": ["retrieve", ckpt, manifest]}[case]
    capsys.readouterr()
    assert main(argv) == 1
    _single_error(capsys, error)


def test_non_object_config_is_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2]")
    assert main(["train", str(cfg_path)]) == 1
    _single_error(capsys, "BadConfig")


def test_float_fields_accept_ints():
    cfg = train_config_from_dict({"lr": 1, "net": {"head_w_mult": 5}, "plateau": {"factor": 0}})
    assert cfg.lr == 1 and cfg.net.head_w_mult == 5 and cfg.plateau.factor == 0


@pytest.mark.parametrize("command", ["train", "cv", "synth"])
# an int of more than 4300 digits is a ValueError to json.load
@pytest.mark.parametrize("content", [None, '{"manifest": ', "\xff\xfe", pytest.param(
    '{"lr": 1' + "0" * 5000 + "}", id="int-of-5001-digits")])
def test_unreadable_config_file_is_bad_config(tmp_path, capsys, command, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content.encode("latin-1"))
    args = [command, str(path)] + ([str(tmp_path / "out")] if command == "synth" else [])
    assert main(args) == 1
    assert str(path) in _single_error(capsys, "BadConfig")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "cv"])
def test_unknown_top_level_config_key_is_bad_config(workspace, tmp_path, capsys, command):
    line = _run_bad_config(workspace, tmp_path, capsys,
                           lambda raw: raw.update(learning_rate=0.1), command)
    assert "learning_rate" in line


def _argv(command, workspace, tmp_path, manifest=None, ckpt=None):
    """argv running command on manifest and ckpt (default: the workspace's)."""
    manifest = manifest or workspace["manifest"]
    ckpt = ckpt or workspace["ckpt"]
    if command in ("train", "cv"):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(TINY_TRAIN, manifest=manifest)))
        out = ["--out-dir", str(tmp_path / "run")] if command == "train" else []
        return [command, str(cfg_path), *out]
    if command == "ensemble":
        prefix = str(tmp_path / "s")
        assert main(["eval", workspace["ckpt"], workspace["manifest"],
                     "--scores-out", prefix, "--report-out", str(tmp_path / "r.json")]) == 0
        return ["ensemble", prefix + "_lesion.csv", prefix + "_lesion.csv", "--labels", manifest]
    if command == "correlate":
        return ["correlate", manifest]
    if command == "retrieve-queries":
        return ["retrieve", ckpt, workspace["manifest"], "--queries", manifest]
    sid = load_manifest(workspace["manifest"]).samples[0].id
    extra = {"eval": [], "retrieve": [], "attention": ["--id", sid, "--out-dir", str(tmp_path)]}
    return [command, ckpt, manifest, *extra[command]]


MANIFEST_COMMANDS = ["train", "cv", "eval", "ensemble", "correlate", "retrieve",
                     "retrieve-queries", "attention"]


_HEADER = '{"lesions": ["lesion0"], "locations": ["location0"]}\n'


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
@pytest.mark.parametrize("content, error", [
    (None, "ParseError"), ('{"lesions": 5, "locations": ["a"]}\n', "ParseError"),
    (_HEADER + "5\n", "ParseError"), ("\xff\xfe\n", "ParseError"),
    # an empty path names the manifest's own directory
    (_HEADER + '{"id": "a", "image": "", "lesions": ["lesion0"], "location": "location0"}\n',
     "MissingImage"),
], ids=["missing", "header-not-list", "record-not-object", "not-utf8", "image-empty"])
def test_bad_manifest_fails_in_one_line(workspace, tmp_path, capsys, command, content, error):
    manifest = tmp_path / "bad.jsonl"
    if content is not None:
        manifest.write_bytes(content.encode("latin-1"))
    argv = _argv(command, workspace, tmp_path, manifest=str(manifest))
    capsys.readouterr()
    assert main(argv) == 1
    line = _single_error(capsys, error)
    if content is None:
        assert str(manifest) in line


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
def test_duplicate_sample_id_fails_in_one_line(workspace, tmp_path, capsys, command):
    # two records share an id; absolute image paths keep the records loadable from tmp_path
    lines = open(workspace["manifest"]).read().splitlines()
    base = os.path.dirname(workspace["manifest"])
    recs = [json.loads(line) for line in lines[1:3]]
    for rec in recs:
        rec["image"] = os.path.join(base, rec["image"])
    recs[1]["id"] = recs[0]["id"]
    manifest = tmp_path / "dup.jsonl"
    manifest.write_text("\n".join([lines[0], *map(json.dumps, recs)]) + "\n")
    argv = _argv(command, workspace, tmp_path, manifest=str(manifest))
    capsys.readouterr()
    assert main(argv) == 1
    assert f"line 3: duplicate sample id {recs[0]['id']!r}" in _single_error(capsys, "ParseError")


@pytest.mark.parametrize("command", ["eval", "retrieve", "attention"])
def test_missing_checkpoint_fails_in_one_line(workspace, tmp_path, capsys, command):
    ckpt = str(tmp_path / "none.ckpt")
    capsys.readouterr()
    assert main(_argv(command, workspace, tmp_path, ckpt=ckpt)) == 1
    assert ckpt in _single_error(capsys, "CheckpointError")


@pytest.mark.parametrize("spec", [
    {"Q": 3, "N": 4}, [1, 2], dict(SPEC, image_size=5), dict(SPEC, image_size=[3, 0, 4]),
    dict(SPEC, Q=1), dict(SPEC, N="many"),
    # a misspelled key would give data of the default strength 0.9 without a word
    dict(SPEC, correlation_strenght=0.34), dict(SPEC, P=3.9), dict(SPEC, N=True),
    dict(SPEC, noise="0.1"), dict(SPEC, image_size=[3, "12", 12]),
    dict(SPEC, correlation_strength=10**400), dict(SPEC, correlation_strength=float("nan")),
    dict(SPEC, seed=-1), dict(SPEC, noise=float("nan")),
    dict(SPEC, lesion_amplitude=float("inf")),
], ids=["no-P", "list", "image-size-int", "image-size-zero", "one-location", "N-string",
        "strength-typo", "P-float", "N-bool", "noise-string", "image-size-string",
        "strength-huge-int", "strength-nan", "seed-negative", "noise-nan",
        "lesion-amplitude-inf"])
def test_bad_synth_spec_fails_in_one_line(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", str(spec_path), str(tmp_path / "out")]) == 1
    _single_error(capsys, "BadSpec")
    assert not (tmp_path / "out").exists()


# numpy's overflow warnings would repeat the error line; as errors they fail the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["train", "cv"])
def test_non_finite_loss_fails_in_one_line(workspace, tmp_path, capsys, command):
    argv = _argv(command, workspace, tmp_path)
    (tmp_path / "cfg.json").write_text(
        json.dumps(dict(TINY_TRAIN, manifest=workspace["manifest"], lr=1e308)))
    capsys.readouterr()
    assert main(argv) == 1
    line = _single_error(capsys, "NonFiniteLoss")
    assert line.endswith("mtl training loss is nan at epoch 0, step 1")


def _score_csv(workspace, tmp_path):
    """Path of the workspace model's lesion score CSV."""
    prefix = str(tmp_path / "s")
    assert main(["eval", workspace["ckpt"], workspace["manifest"], "--scores-out", prefix,
                 "--report-out", str(tmp_path / "r.json")]) == 0
    return prefix + "_lesion.csv"


@pytest.mark.parametrize("edit, line_no", [
    (None, 0), (lambda lines: [], 1), (lambda lines: lines[:1], 2),
    (lambda lines: lines[:2] + [lines[2].replace(",", ",abc,", 1).rsplit(",", 1)[0]], 3),
    (lambda lines: lines[:2] + [lines[2] + ",0.5"], 3),
    (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]], 3),
], ids=["missing", "empty", "header-only", "non-numeric", "long-row", "short-row"])
def test_bad_score_csv_fails_in_one_line(workspace, tmp_path, capsys, edit, line_no):
    good = _score_csv(workspace, tmp_path)
    bad = tmp_path / "bad.csv"
    if edit is not None:
        lines = open(good).read().splitlines()
        bad.write_text("".join(ln + "\n" for ln in edit(lines)))
    capsys.readouterr()
    for pair in ([str(bad), good], [good, str(bad)]):
        assert main(["ensemble", *pair, "--labels", workspace["manifest"]]) == 1
        line = _single_error(capsys, "ParseError")
        assert line.startswith(f"error: ParseError: line {line_no}: ") and str(bad) in line


def test_unlabelled_score_id_is_matrix_mismatch(workspace, tmp_path, capsys):
    good = _score_csv(workspace, tmp_path)
    lines = open(good).read().splitlines()
    lines[1] = "stranger," + lines[1].split(",", 1)[1]
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("".join(ln + "\n" for ln in lines))
    capsys.readouterr()
    assert main(["ensemble", str(renamed), str(renamed), "--labels", workspace["manifest"]]) == 1
    assert "'stranger'" in _single_error(capsys, "MatrixMismatch")


def _rewrite_csv(path, out, edit):
    """Write the score CSV at path to out with every row, header first, edited."""
    rows = [line.split(",") for line in open(path).read().splitlines()]
    out.write_text("".join(",".join(edit(row)) + "\n" for row in rows))
    return str(out)


def test_ensemble_rejects_reordered_columns(workspace, tmp_path, capsys):
    # the same scores with the first two classes swapped: same shape, same ids
    good = _score_csv(workspace, tmp_path)
    swapped = _rewrite_csv(good, tmp_path / "swapped.csv",
                           lambda row: [row[0], row[2], row[1], *row[3:]])
    capsys.readouterr()
    assert main(["ensemble", good, swapped, "--labels", workspace["manifest"]]) == 1
    assert "class columns differ" in _single_error(capsys, "MatrixMismatch")


@pytest.mark.parametrize("kind, edit", [
    ("lesion", lambda row: [row[0], "extra" if row[0] == "id" else row[1], *row[2:]]),
    ("location", lambda row: [*row, "extra" if row[0] == "id" else "0.0"]),
], ids=["lesion-renamed", "location-added"])
def test_ensemble_rejects_columns_unlike_the_manifest(workspace, tmp_path, capsys, kind, edit):
    # both CSVs agree, but one class name is not the manifest's
    _score_csv(workspace, tmp_path)
    odd = _rewrite_csv(str(tmp_path / f"s_{kind}.csv"), tmp_path / "odd.csv", edit)
    capsys.readouterr()
    assert main(["ensemble", odd, odd, "--labels", workspace["manifest"], "--kind", kind]) == 1
    line = _single_error(capsys, "MatrixMismatch")
    assert "'extra'" in line and workspace["manifest"] in line


def _with_state(workspace, tmp_path, edit):
    """Path of a copy of the workspace checkpoint whose state blob is edit(state)."""
    data = open(workspace["ckpt"], "rb").read()
    start = data.rindex(b'{"P": ')  # the JSON state blob ends the file
    assert struct.unpack("<I", data[start - 4 : start])[0] == len(data) - start
    raw = json.dumps(edit(json.loads(data[start:]))).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data[: start - 4] + struct.pack("<I", len(raw)) + raw)
    return str(bad)


def _drop(key):
    return lambda state: {k: v for k, v in state.items() if k != key}


def _nest(section, **extra):
    return lambda state: dict(state, **{section: dict(state[section], **extra)})


# the dimension edits would allocate terabytes if the net were built before the check
@pytest.mark.parametrize("edit", [
    lambda state: [1, 2], _drop("config"), _drop("P"), _drop("Q"), _drop("seed"),
    _nest("config", widht=3), _nest("augment", crop_size=8),
    lambda state: dict(state, P=2**40), lambda state: dict(state, Q=state["Q"] + 1),
    lambda state: dict(state, P="3"), _nest("config", width=2**20),
    _nest("config", blocks=2**40), _nest("config", blocks=2.0),
    lambda state: dict(state, seed=-1), _nest("config", blocks=True),
    _nest("config", head_w_mult="ten"),
    # the fitted augment state: scoring would run on wrongly scaled or centred inputs
    _drop("augment"), _nest("augment", channel_means=None),
    _nest("augment", channel_means=[0.1]), _nest("augment", channel_means=[0.1, 0.2]),
    _nest("augment", channel_means=["a", "b", "c"]), _nest("augment", crop="8"),
    _nest("augment", eval_scale=None), _nest("augment", crop=0),
    _nest("augment", flip_prob=2.0), _nest("augment", jitter_min=13),
    _nest("augment", eval_scale=7), _nest("augment", jitter_min=7),
    _nest("augment", crop=7), _nest("config", head_w_mult=float("nan")),
    # a mode outside TASKS: which heads to report and which buffers to expect is unknown
    lambda state: dict(state, mode="both"), lambda state: dict(state, mode=None),
], ids=["not-object", "no-config", "no-P", "no-Q", "no-seed", "config-unknown-key",
        "augment-unknown-key", "huge-P", "Q-off-by-one", "P-string", "huge-width",
        "huge-blocks", "float-blocks", "negative-seed", "bool-blocks", "string-head-w-mult",
        "no-augment", "means-null",
        "means-one", "means-two", "means-strings", "crop-string", "eval-scale-null",
        "crop-zero", "flip-prob-above-one", "jitter-min-above-max",
        "eval-scale-below-crop", "jitter-min-below-crop", "crop-odd", "nan-head-w-mult",
        "mode-unknown", "mode-null"])
def test_bad_checkpoint_state_fails_in_one_line(workspace, tmp_path, capsys, edit):
    bad = _with_state(workspace, tmp_path, edit)
    capsys.readouterr()
    assert main(["eval", bad, workspace["manifest"]]) == 1
    assert bad in _single_error(capsys, "CheckpointError")


@pytest.mark.parametrize("command", ["eval", "retrieve", "attention"])
def test_checkpoint_with_a_negative_crop_fails_in_one_line(workspace, tmp_path, capsys,
                                                           command):
    bad = _with_state(workspace, tmp_path, _nest("augment", crop=-3))
    capsys.readouterr()
    assert main(_argv(command, workspace, tmp_path, ckpt=bad)) == 1
    line = _single_error(capsys, "CheckpointError")
    assert bad in line and "augment.crop >= 1" in line


@pytest.mark.parametrize("command", ["eval", "retrieve", "attention"])
def test_unknown_mode_without_buffers_fails_in_one_line(workspace, tmp_path, capsys, command):
    bad = _checkpoint_of_mode(workspace, tmp_path, "lesion")
    capsys.readouterr()
    assert main(_argv(command, workspace, tmp_path, ckpt=bad)) == 1
    line = _single_error(capsys, "CheckpointError")
    assert bad in line and "unknown mode 'lesion'" in line
