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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analysis, metrics
from .data import (
    AugmentConfig,
    SynthSpec,
    check_ranges,
    check_type,
    eval_transform,
    labels,
    load_manifest,
    need,
    planted_correlation,
    read,
    read_list,
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
from .network import DualHeadNet, load_checkpoint, save_checkpoint
from .objective import TASKS
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
    except ValueError as e:   # bad JSON, bad UTF-8 or an int of too many digits
        raise BadConfig(f"{path} is not valid JSON: {e}") from None


@dataclass
class RunKeys:
    """The top-level run config keys that train and cv read themselves; the
    others are TrainConfig's."""
    manifest: str
    val_fraction: float = need("in [0, 1)", 0.1)
    out_dir: str = "."


# TrainConfig fields that train and cv also take as flags, overriding the file
_OVERRIDES = {"seed": dict(type=int), "epochs": dict(type=int), "mode": dict(choices=tuple(TASKS))}


def train_config_from_dict(d) -> TrainConfig:
    """The TrainConfig of a run config object, by data.read; the RunKeys keys
    are left to the caller."""
    if isinstance(d, dict):
        d = {k: v for k, v in d.items() if k not in RunKeys.__dataclass_fields__}
    cfg = read(TrainConfig, d, "config")
    if cfg.augment.channel_means is not None:
        raise BadConfig(f"config.augment.channel_means is fitted by training and cannot be "
                        f"set, got {cfg.augment.channel_means!r}")
    return cfg


def synth_spec_from_dict(d) -> SynthSpec:
    """The SynthSpec of a spec object, by data.read. Instead of R, a spec may
    give correlation_strength (default 0.9) for planted_correlation's R.
    Every error is a BadSpec."""
    if not isinstance(d, dict):
        raise BadSpec(f"spec must be an object, got {d!r}")
    strength = d.get("correlation_strength", 0.9)
    try:
        check_type("spec.correlation_strength", strength, float)
        rest = {k: v for k, v in d.items() if k != "correlation_strength"}
        spec = read(SynthSpec, {"R": None, **rest}, "spec")
        if "image_size" in d:
            spec.image_size = tuple(read_list("spec.image_size", d["image_size"], int, 3))
        if "R" in d:
            rows = read_list("spec.R", d["R"], list, spec.P)
            spec.R = np.array([read_list("spec.R", row, float, spec.Q) for row in rows],
                              dtype=np.float64)
        else:
            spec.R = planted_correlation(spec.P, spec.Q, strength)
    except BadConfig as e:
        raise BadSpec(str(e)) from None
    return spec


def _run_inputs(args):
    """The raw config file, its RunKeys, its TrainConfig with the _OVERRIDES
    flags applied, and the manifest's dataset, checked so a bad value fails
    before train creates its output directory or cv forks."""
    raw = _load_json(args.config)
    cfg = train_config_from_dict(raw)
    keys = read(RunKeys, {k: v for k, v in raw.items() if k in RunKeys.__dataclass_fields__},
                "config")
    check_ranges(keys)
    cfg = replace(cfg, **{k: getattr(args, k) for k in _OVERRIDES if getattr(args, k) is not None})
    _check_config(cfg)
    ds = load_manifest(keys.manifest)
    odd = next((s for s in ds.samples if s.image.shape[0] != cfg.net.in_channels), None)
    if odd is not None:
        raise BadConfig(f"net.in_channels is {cfg.net.in_channels}, but image {odd.id!r} of "
                        f"{keys.manifest} has {odd.image.shape[0]} channels")
    return raw, keys, cfg, ds


def _load_model(checkpoint, manifest):
    """The net, fitted AugmentConfig and mode of a checkpoint, and a
    manifest's dataset of matching dimensions."""
    net, _, state = load_checkpoint(checkpoint)
    try:
        aug = read(AugmentConfig, state.get("augment"), "augment")
        read_list("augment.channel_means", aug.channel_means, float, net.config.in_channels)
        check_augment(aug)
    except BadConfig as e:
        raise CheckpointError(f"{checkpoint}: bad augment state: {e}") from None
    ds = load_manifest(manifest)
    if net.P != ds.P or net.Q != ds.Q:
        raise DimensionMismatch(
            f"checkpoint has P={net.P}, Q={net.Q}; dataset has P={ds.P}, Q={ds.Q}"
        )
    return net, aug, state["mode"], ds


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    spec = synth_spec_from_dict(_load_json(args.spec))
    if args.seed is not None:
        spec.seed = args.seed
    manifest = save_manifest(synthesize(spec), args.out_dir)
    print(manifest)
    return 0


def cmd_train(args):
    raw, keys, cfg, ds = _run_inputs(args)
    out_dir = keys.out_dir if args.out_dir is None else args.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:  # an empty path, or one beneath a regular file
        raise BadConfig(f"cannot create out_dir {out_dir!r}: {e.strerror}") from None

    rng = np.random.default_rng(cfg.seed)
    n_val = int(round(len(ds) * keys.val_fraction))
    perm = rng.permutation(len(ds))
    val_samples = [ds.samples[i] for i in perm[:n_val]]
    train_samples = [ds.samples[i] for i in perm[n_val:]]

    net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=cfg.seed)
    best = {"val_loss": None}
    best_path = os.path.join(out_dir, "best.ckpt")

    def save(path, opt, aug, epoch):
        save_checkpoint(path, net, opt.buffers, {"optimizer": opt.state(), "epoch": epoch,
                                                 "mode": cfg.mode, "augment": asdict(aug)})

    def on_epoch(record, opt, aug):
        vl = record.get("val_loss")
        if vl is not None and (best["val_loss"] is None or vl < best["val_loss"]):
            best["val_loss"] = vl
            save(best_path, opt, aug, record["epoch"])

    log, opt, aug = train(net, train_samples, val_samples, cfg, on_epoch=on_epoch)
    # the last main epoch that ran; None when only the warm-up (or nothing) ran
    epoch = log[-1]["epoch"] if log else None
    save(os.path.join(out_dir, "final.ckpt"), opt, aug, epoch)
    if best["val_loss"] is None:
        save(best_path, opt, aug, epoch)
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
    if args.scores_out is not None:  # the score CSV of each head the checkpoint's mode trained
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
    _, _, cfg, ds = _run_inputs(args)
    report = cross_validate(ds, cfg)
    _emit_report(report, args.report_out)
    return 0


def cmd_correlate(args):
    ds = load_manifest(args.manifest)
    corr = metrics.correlation_matrix(ds)
    lines = ["lesion," + ",".join(ds.location_names)]
    for name, row in zip(ds.lesion_names, corr.R):
        lines.append(name + "," + ",".join(repr(float(x)) for x in row))
    _write("\n".join(lines) + "\n", args.out)
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
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", path)


def _write(text, path):
    """Write text to the file path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


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
    s.set_defaults(func=cmd_synth, outputs=("out_dir",))

    s = sub.add_parser("train", parents=[overrides], help="train a model from a JSON config")
    s.add_argument("config")
    s.add_argument("--out-dir", default=None)
    # train reports an empty out_dir, from the config or --out-dir, as one it cannot create
    s.set_defaults(func=cmd_train, outputs=())

    s = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    s.add_argument("checkpoint")
    s.add_argument("manifest")
    s.add_argument("--ten-crop", action="store_true")
    s.add_argument("--scores-out", default=None, help="prefix for score CSVs")
    s.add_argument("--report-out", default=None)
    s.set_defaults(func=cmd_eval, outputs=("--scores-out", "--report-out"))

    s = sub.add_parser("ensemble", help="combine two score CSVs and re-evaluate")
    s.add_argument("scores_a")
    s.add_argument("scores_b")
    s.add_argument("--labels", required=True, help="manifest providing ground truth")
    s.add_argument("--kind", choices=("lesion", "location"), default="lesion")
    s.add_argument("--method", choices=("max", "mean"), default="max")
    s.add_argument("--report-out", default=None)
    s.set_defaults(func=cmd_ensemble, outputs=("--report-out",))

    s = sub.add_parser("cv", parents=[overrides], help="k-fold cross-validation")
    s.add_argument("config")
    s.add_argument("--report-out", default=None)
    s.set_defaults(func=cmd_cv, outputs=("--report-out",))

    s = sub.add_parser("correlate", help="lesion-by-location correlation matrix CSV")
    s.add_argument("manifest")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_correlate, outputs=("--out",))

    s = sub.add_parser("retrieve", help="nearest-neighbor retrieval report")
    s.add_argument("checkpoint")
    s.add_argument("manifest", help="index dataset")
    s.add_argument("--queries", default=None, help="query manifest (default: index)")
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--report-out", default=None)
    s.set_defaults(func=cmd_retrieve, outputs=("--report-out",))

    s = sub.add_parser("attention", help="export a class activation map")
    s.add_argument("checkpoint")
    s.add_argument("manifest")
    s.add_argument("--id", required=True)
    s.add_argument("--head", choices=("lesion", "location"), default="lesion")
    s.add_argument("--class-index", type=int, default=None,
                   help="default: the sample's ground-truth class")
    s.add_argument("--out-dir", default=".")
    s.set_defaults(func=cmd_attention, outputs=("--out-dir",))

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in args.outputs:   # the command's output paths, each flag as typed
            if getattr(args, flag.lstrip("-").replace("-", "_")) == "":   # names no file
                raise BadConfig(f"{args.command} needs a non-empty {flag}, got ''")
        # a diverging run overflows long before its loss is checked; the
        # NonFiniteLoss (training), NaN-score (ScoreMatrix) and
        # NonFiniteFeature (retrieval) checks report it as one error line,
        # so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    # each reader raises its own error for an input it cannot read, so an OSError
    # here is an output that cannot be written, or cv's os.fork or os.pipe failing
    except (MtlkitError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
