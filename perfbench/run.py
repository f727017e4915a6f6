"""mtlkit benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload cv_pair --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory, never from an
installed copy. Inputs are generated from --seed in a child process, under
``.perfbench_work/``, and removed at exit; the measured process only sets up
(imports and loads) and then repeats the workload's unit until the next unit
would end after --seconds. BLAS thread counts are inherited, never set.

Output, one JSON object per line on stdout: the environment, a report with
every metric this workload has (units included), and last the result the
metric names in BENCHMARK.json select: its end_to_end metrics with --trace 0,
its per_layer metrics with --trace 1. A traced run also runs untraced units
to measure the tracing overhead. The exit code is 0 only when every
operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from time import perf_counter

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 7
CHILD_TIMEOUT_S = 150
QUALITY_UNITS = {"map_class": "mAP", "mtl_gain": "mAP", "top1": "frac", "match_rate": "frac"}


class BenchError(Exception):
    pass


def _check_library():
    import mtlkit

    if not os.path.abspath(mtlkit.__file__).startswith(SRC + os.sep):
        raise BenchError(f"mtlkit imported from {mtlkit.__file__}, not from {SRC}")


def _child(phase, args, workdir) -> str:
    cmd = [sys.executable, os.path.abspath(__file__), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"{phase} step failed: {tail}")
    return proc.stdout


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seeds": workloads.derived_seeds(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _repeat(seconds, plain, traced=None):
    """Run units until the next is expected to end after `seconds`.

    With `traced`, alternates plain and traced units, at least one of each.
    """
    runs = {"plain": [], "traced": []}
    start = perf_counter()
    n = 0
    while True:
        if traced is not None and len(runs["traced"]) < len(runs["plain"]):
            runs["traced"].append(traced())
        else:
            runs["plain"].append(plain())
        n += 1
        elapsed = perf_counter() - start
        if traced is not None and not runs["traced"]:
            continue
        if elapsed * (n + 1) / n > seconds:
            return runs


def _median_of(results, key):
    return statistics.median(r[key] for r in results)


def _end_to_end(results, setups, checks):
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (_median_of(results, "wall_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "eval_img_per_s":
            (statistics.median(rate for r in results for rate in r["eval_rates"]), "1/s"),
    }
    if "train_images" in results[0]:
        m["train_img_per_s"] = (
            statistics.median(r["train_images"] / r["train_s"] for r in results), "1/s")
    if "query_s" in results[0]:
        lat = [1000.0 * t for r in results for t in r["query_s"]]
        cuts = statistics.quantiles(lat, n=100)
        m["query_ms_p50"] = (cuts[49], "ms")
        m["query_ms_p99"] = (cuts[98], "ms")
        m["query_samples"] = (len(lat), "count")
    for key in QUALITY_UNITS:
        if key in results[0]:
            values = [r[key] for r in results]
            checks.check(len(set(values)) == 1, f"{key} repeats exactly across units")
            m[key] = (values[0], QUALITY_UNITS[key])
    m["failed_frac"] = (checks.failed / checks.attempted, "frac")
    return m


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return {
        "tensor.conv2d.gflop": "GFLOP-computed",
        "tensor.conv2d.im2col_mb": "MB-computed",
        "tensor.ops_per_forward": "ops-computed",
        "network.forward.batch_mean": "samples",
        "network.checkpoint_bytes": "bytes",
        "data.eval_transform.per_sample": "ratio",
        "trace_overhead_frac": "frac",
    }[name]


def _per_layer(args, workdir, unit, checks):
    setups, tracers = [], []
    for _ in range(SETUP_REPS):
        with tracer.Tracer() as tr:
            workloads.setup(args.workload, workdir)
        setups.append(tracer.setup_layers(tr))
        tracers.append(tr)

    def traced_unit():
        with tracer.Tracer() as tr:
            result = unit()
        tracers.append(tr)
        return result, tracer.unit_layers(tr)

    runs = _repeat(args.seconds, unit, traced_unit)
    layers = [lay for _, lay in runs["traced"]]
    m = {key: statistics.median(lay[key] for lay in rows)
         for rows in (setups, layers) for key in rows[0]}
    m["traced_wall_s"] = statistics.median(r["wall_s"] for r, _ in runs["traced"])
    m["trace_overhead_frac"] = m["traced_wall_s"] / _median_of(runs["plain"], "wall_s") - 1.0
    for span in workloads.EXPECTED_SPANS[args.workload]:
        checks.check(any(tr.calls[span] for tr in tracers), f"layer {span} recorded calls")
    return {key: (value, _layer_unit(key)) for key, value in m.items()}, runs["plain"]


def _run(args, workdir):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from None
    setup_s, inputs = workloads.setup(args.workload, workdir)
    _check_library()
    checks = workloads.Checks()
    unit = partial(workloads.UNITS[args.workload], inputs, args.seed, workdir, checks)
    if args.trace:
        metrics, plain = _per_layer(args, workdir, unit, checks)
        selected = spec["per_layer"]
    else:
        setups = [setup_s] + [float(_child("setup", args, workdir))
                              for _ in range(SETUP_REPS - 1)]
        plain = _repeat(args.seconds, unit)["plain"]
        metrics = _end_to_end(plain, setups, checks)
        selected = spec["end_to_end"]

    result = {}
    for entry in selected:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"{args.workload} does not measure {name}")
        value, unit_name = metrics[name]
        if unit_name != entry["unit"]:
            raise BenchError(f"{name} is measured in {unit_name}, not {entry['unit']}")
        result[name] = {"value": value, "unit": unit_name}
    report = {
        "workload": args.workload,
        "units": len(plain),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": checks.failures,
    }
    print(json.dumps({"environment": _environment(args)}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result}), flush=True)
    return 0 if checks.failed == 0 else 1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes that make inputs and time a cold set-up
    p.add_argument("--phase", choices=("run", "inputs", "setup"), default="run",
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, SRC)
    try:
        if args.phase == "inputs":
            workloads.make_inputs(args.workload, args.seed, args.workdir)
            _check_library()
            return 0
        if args.phase == "setup":
            seconds, _ = workloads.setup(args.workload, args.workdir)
            _check_library()
            print(json.dumps(seconds))
            return 0
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
        try:
            _child("inputs", args, workdir)
            return _run(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(WORK)
            except OSError:
                pass  # another run still uses it
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
