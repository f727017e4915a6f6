"""Command-line surface: synth, train, eval, ensemble, cv, correlate,
retrieve, attention.

Experiments are described by a single JSON config file; a few common
flags (--seed, --epochs, --mode) override config fields. Every command
honors the seed, and all errors exit nonzero with one machine-parsable
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import analysis, metrics
from .data import (
    AugmentConfig,
    SynthSpec,
    eval_transform,
    labels,
    load_manifest,
    planted_correlation,
    save_manifest,
    synthesize,
)
from .errors import (
    BadConfig,
    BadSpec,
    CheckpointError,
    DimensionMismatch,
    MatrixMismatch,
    MtlkitError,
)
from .network import DualHeadNet, NetConfig, load_checkpoint, save_checkpoint
from .objective import TASKS
from .optim import PlateauConfig
from .training import (
    TrainConfig,
    _check_config,
    check_augment,
    cross_validate,
    evaluate_scores,
    train,
)


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise BadConfig(f"cannot read {path}: {e.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise BadConfig(f"{path} is not valid JSON: {e}") from None


# JSON types accepted for a field, keyed by the type of its default value;
# a float field takes an int too, and no numeric field takes a bool
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _check_value(key, value, kind):
    ok = _JSON_TYPES[kind]
    if not isinstance(value, ok) or (isinstance(value, bool) and bool not in ok):
        raise BadConfig(f"{key} must be {kind.__name__}, got {value!r}")


def _check_types(cls, d: dict, prefix: str = ""):
    """Type-check the scalar fields of dataclass cls present in d."""
    for f in fields(cls):
        if f.name in d and type(f.default) in _JSON_TYPES:
            _check_value(prefix + f.name, d[f.name], type(f.default))


def _sub_config(cls, d, section: str):
    if not isinstance(d, dict):
        raise BadConfig(f"{section} must be an object, got {d!r}")
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise BadConfig(f"unknown key(s) in {section!r}: {', '.join(unknown)}")
    _check_types(cls, d, section + ".")
    return cls(**d)


# top-level config keys that the train and cv commands read themselves
_CLI_KEYS = ("manifest", "val_fraction", "out_dir")
# TrainConfig fields that train and cv also take as flags, overriding the file
_OVERRIDES = {"seed": dict(type=int), "epochs": dict(type=int), "mode": dict(choices=tuple(TASKS))}


def train_config_from_dict(d: dict) -> TrainConfig:
    """An unknown key, top-level or nested, raises, and so does a known
    value of the wrong JSON type. The top-level _CLI_KEYS (manifest,
    val_fraction, out_dir) are allowed and left to the caller."""
    if not isinstance(d, dict):
        raise BadConfig(f"config must be an object, got {d!r}")
    unknown = sorted(set(d) - set(TrainConfig.__dataclass_fields__) - set(_CLI_KEYS))
    if unknown:
        raise BadConfig(f"unknown config key(s): {', '.join(unknown)}")
    d = {k: v for k, v in d.items() if k not in _CLI_KEYS}
    net = _sub_config(NetConfig, d.pop("net", {}), "net")
    plateau = _sub_config(PlateauConfig, d.pop("plateau", {}), "plateau")
    augment = _sub_config(AugmentConfig, d.pop("augment", {}), "augment")
    if augment.channel_means is not None:
        raise BadConfig(f"augment.channel_means is fitted by training and cannot be set, "
                        f"got {augment.channel_means!r}")
    _check_types(TrainConfig, d)
    return TrainConfig(net=net, plateau=plateau, augment=augment, **d)


def _run_config(args):
    """The raw config file and its checked TrainConfig with the _OVERRIDES flags
    applied, so a bad value fails before train creates its output directory."""
    raw = _load_json(args.config)
    cfg = train_config_from_dict(raw)
    if not isinstance(raw.get("manifest"), str):
        raise BadConfig(f"manifest must be a path string, got {raw.get('manifest')!r}")
    cfg = replace(cfg, **{k: getattr(args, k) for k in _OVERRIDES if getattr(args, k) is not None})
    _check_config(cfg)
    return raw, cfg


def _load_model(checkpoint, manifest):
    """The net, fitted AugmentConfig and mode of a checkpoint, and a
    manifest's dataset of matching dimensions."""
    net, _, state = load_checkpoint(checkpoint)
    if "augment" not in state:
        raise CheckpointError(f"{checkpoint}: state blob lacks augment")
    try:
        aug = _sub_config(AugmentConfig, state["augment"], "augment")
        means, c = aug.channel_means, net.config.in_channels
        if not isinstance(means, list) or len(means) != c:
            raise BadConfig(f"augment.channel_means must be {c} numbers, got {means!r}")
        for m in means:
            _check_value("augment.channel_means", m, float)
        check_augment(aug)
    except BadConfig as e:
        raise CheckpointError(f"{checkpoint}: bad augment state: {e}") from None
    ds = load_manifest(manifest)
    if net.P != ds.P or net.Q != ds.Q:
        raise DimensionMismatch(
            f"checkpoint has P={net.P}, Q={net.Q}; dataset has P={ds.P}, Q={ds.Q}"
        )
    return net, aug, state.get("mode", "mtl"), ds


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    spec_dict = _load_json(args.spec)
    if not isinstance(spec_dict, dict) or not {"P", "Q", "N"} <= set(spec_dict):
        raise BadSpec(f"{args.spec}: spec must be an object with P, Q and N")
    try:
        p, q = int(spec_dict["P"]), int(spec_dict["Q"])
        if "R" in spec_dict:
            r = np.asarray(spec_dict["R"], dtype=np.float64)
        else:
            r = planted_correlation(p, q, float(spec_dict.get("correlation_strength", 0.9)))
        spec = SynthSpec(
            P=p, Q=q, N=int(spec_dict["N"]), R=r,
            noise=float(spec_dict.get("noise", 0.08)),
            image_size=tuple(int(n) for n in spec_dict.get("image_size", (3, 32, 32))),
            seed=int(spec_dict.get("seed", 0)) if args.seed is None else args.seed,
            multi_rate=float(spec_dict.get("multi_rate", 0.3)),
            lesion_amplitude=float(spec_dict.get("lesion_amplitude", 0.10)),
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise BadSpec(f"{args.spec}: bad spec value: {e}") from None
    ds = synthesize(spec)
    manifest = save_manifest(ds, args.out_dir)
    print(manifest)
    return 0


def cmd_train(args):
    raw, cfg = _run_config(args)
    val_fraction = raw.get("val_fraction", 0.1)
    _check_value("val_fraction", val_fraction, float)
    if not 0 <= val_fraction < 1:
        raise BadConfig(f"val_fraction must lie in [0, 1), got {val_fraction!r}")
    out_dir = args.out_dir or raw.get("out_dir", ".")
    _check_value("out_dir", out_dir, str)
    ds = load_manifest(raw["manifest"])
    os.makedirs(out_dir, exist_ok=True)

    rng = np.random.default_rng(cfg.seed)
    n_val = int(round(len(ds) * val_fraction))
    perm = rng.permutation(len(ds))
    val_samples = [ds.samples[i] for i in perm[:n_val]]
    train_samples = [ds.samples[i] for i in perm[n_val:]]

    net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=cfg.seed)
    best = {"val_loss": None}
    best_path = os.path.join(out_dir, "best.ckpt")

    def on_epoch(record, opt, aug):
        vl = record.get("val_loss")
        if vl is not None and (best["val_loss"] is None or vl < best["val_loss"]):
            best["val_loss"] = vl
            save_checkpoint(best_path, net, opt.buffers,
                            {"optimizer": opt.state(), "epoch": record["epoch"],
                             "mode": cfg.mode, "augment": asdict(aug)})

    log, opt, aug = train(net, train_samples, val_samples, cfg, on_epoch=on_epoch)
    # the last main epoch that ran; None when only the warm-up (or nothing) ran
    state = {"optimizer": opt.state(), "epoch": log[-1]["epoch"] if log else None,
             "mode": cfg.mode, "augment": asdict(aug)}
    save_checkpoint(os.path.join(out_dir, "final.ckpt"), net, opt.buffers, state)
    if best["val_loss"] is None:
        save_checkpoint(best_path, net, opt.buffers, state)
    with open(os.path.join(out_dir, "log.jsonl"), "w") as f:
        for record in log:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        cfg_dict = {**raw, **{k: getattr(cfg, k) for k in _OVERRIDES}}
        json.dump(cfg_dict, f, indent=2, sort_keys=True)
    print(out_dir)
    return 0


def cmd_eval(args):
    net, aug, mode, ds = _load_model(args.checkpoint, args.manifest)
    les_sm, loc_sm = evaluate_scores(net, ds.samples, aug, use_ten_crop=args.ten_crop)
    report = metrics.task_report(TASKS[mode], (les_sm, loc_sm), *labels(ds.samples))
    _name_lesion_classes(report, ds.lesion_names)
    report["ten_crop"] = bool(args.ten_crop)
    if args.scores_out:  # the score CSV of each head the checkpoint's mode trained
        for task, sm, names in (("lesion", les_sm, ds.lesion_names),
                                ("location", loc_sm, ds.location_names)):
            if task in TASKS[mode]:
                metrics.write_scores(f"{args.scores_out}_{task}.csv", sm, names)
    _emit_report(report, args.report_out)
    return 0


def cmd_ensemble(args):
    a, names_a = metrics.read_scores(args.scores_a, args.kind)
    b, names_b = metrics.read_scores(args.scores_b, args.kind)
    if names_a != names_b:
        raise MatrixMismatch(f"class columns differ: {args.scores_a} has {names_a}, "
                             f"{args.scores_b} has {names_b}")
    combined = (metrics.ensemble_mean if args.method == "mean" else metrics.ensemble_max)(a, b)
    ds = load_manifest(args.labels)
    names = list(ds.lesion_names if args.kind == "lesion" else ds.location_names)
    if names_a != names:
        raise MatrixMismatch(f"class columns {names_a} differ from the {args.kind} names "
                             f"{names} of {args.labels}")
    by_id = {s.id: s for s in ds.samples}
    unlabelled = [i for i in combined.ids if i not in by_id]
    if unlabelled:
        raise MatrixMismatch(f"{len(unlabelled)} score id(s) absent from {args.labels}, "
                             f"first {unlabelled[0]!r}")
    report = {"method": args.method, "kind": args.kind,
              **metrics.task_report((args.kind,), (combined,),
                                    *labels([by_id[i] for i in combined.ids]))}
    _name_lesion_classes(report, names)
    _emit_report(report, args.report_out)
    return 0


def cmd_cv(args):
    raw, cfg = _run_config(args)
    ds = load_manifest(raw["manifest"])
    report = cross_validate(ds, cfg)
    _emit_report(report, args.report_out)
    return 0


def cmd_correlate(args):
    ds = load_manifest(args.manifest)
    corr = metrics.correlation_matrix(ds)
    lines = ["lesion," + ",".join(ds.location_names)]
    for name, row in zip(ds.lesion_names, corr.R):
        lines.append(name + "," + ",".join(repr(float(x)) for x in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_retrieve(args):
    net, aug, _, index_ds = _load_model(args.checkpoint, args.manifest)
    queries = load_manifest(args.queries) if args.queries else index_ds
    index = analysis.build_index(net, index_ds, aug)
    report = analysis.retrieval_report(net, index, index_ds, queries, args.k, aug)
    _emit_report(report, args.report_out)
    return 0


def cmd_attention(args):
    net, aug, mode, ds = _load_model(args.checkpoint, args.manifest)
    if args.head not in TASKS[mode]:
        raise BadConfig(f"--head {args.head}: {args.checkpoint} is a {mode} checkpoint, "
                        f"whose {args.head} head never trained")
    by_id = {s.id: s for s in ds.samples}
    if args.id not in by_id:
        raise BadSpec(f"sample id {args.id!r} not found in manifest")
    sample = by_id[args.id]
    if args.class_index is not None:
        class_index = args.class_index
    elif args.head == "lesion":
        class_index = int(np.flatnonzero(sample.u)[0])   # ground-truth primary lesion
    else:
        class_index = sample.v - 1
    img = eval_transform(sample, aug)
    amap = analysis.attention(net, img, args.head, class_index, upsample=True)
    analysis.export_attention(args.out_dir, f"{args.id}_{args.head}{class_index}", amap)
    print(args.out_dir)
    return 0


def _name_lesion_classes(report, names):
    """Key a report's per_class_ap, and list its excluded_classes, by class
    name; a report without the lesion task is left as it is."""
    if "per_class_ap" not in report:
        return
    report["per_class_ap"] = dict(zip(names, report["per_class_ap"]))
    report["excluded_classes"] = [names[i] for i in report["excluded_classes"]]


def _emit_report(report, path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mtlkit",
                                description="Dual-task lesion/location training toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    overrides = argparse.ArgumentParser(add_help=False)
    for name, kwargs in _OVERRIDES.items():
        overrides.add_argument(f"--{name}", default=None, **kwargs)

    s = sub.add_parser("synth", help="generate a synthetic correlated-label dataset")
    s.add_argument("spec", help="JSON spec file (P, Q, N, R or correlation_strength, ...)")
    s.add_argument("out_dir")
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("train", parents=[overrides], help="train a model from a JSON config")
    s.add_argument("config")
    s.add_argument("--out-dir", default=None)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    s.add_argument("checkpoint")
    s.add_argument("manifest")
    s.add_argument("--ten-crop", action="store_true")
    s.add_argument("--scores-out", default=None, help="prefix for score CSVs")
    s.add_argument("--report-out", default=None)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("ensemble", help="combine two score CSVs and re-evaluate")
    s.add_argument("scores_a")
    s.add_argument("scores_b")
    s.add_argument("--labels", required=True, help="manifest providing ground truth")
    s.add_argument("--kind", choices=("lesion", "location"), default="lesion")
    s.add_argument("--method", choices=("max", "mean"), default="max")
    s.add_argument("--report-out", default=None)
    s.set_defaults(func=cmd_ensemble)

    s = sub.add_parser("cv", parents=[overrides], help="k-fold cross-validation")
    s.add_argument("config")
    s.add_argument("--report-out", default=None)
    s.set_defaults(func=cmd_cv)

    s = sub.add_parser("correlate", help="lesion-by-location correlation matrix CSV")
    s.add_argument("manifest")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_correlate)

    s = sub.add_parser("retrieve", help="nearest-neighbor retrieval report")
    s.add_argument("checkpoint")
    s.add_argument("manifest", help="index dataset")
    s.add_argument("--queries", default=None, help="query manifest (default: index)")
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--report-out", default=None)
    s.set_defaults(func=cmd_retrieve)

    s = sub.add_parser("attention", help="export a class activation map")
    s.add_argument("checkpoint")
    s.add_argument("manifest")
    s.add_argument("--id", required=True)
    s.add_argument("--head", choices=("lesion", "location"), default="lesion")
    s.add_argument("--class-index", type=int, default=None,
                   help="default: the sample's ground-truth class")
    s.add_argument("--out-dir", default=".")
    s.set_defaults(func=cmd_attention)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a diverging run overflows long before its loss is checked; the
        # NonFiniteLoss (training), NaN-score (ScoreMatrix) and
        # NonFiniteFeature (retrieval) checks report it as one error line,
        # so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except MtlkitError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
