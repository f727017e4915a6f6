"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --workloads cv_pair train_val eval_retrieve \
        --seeds 1-10 [--trace 1] [--out perfbench/baseline.json]

For every metric of the report line it prints the median and the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as
a share of the median, next to the metric's bound from BENCHMARK.json.
With --out it stores that summary, with every metric of the report line and
the environment of the first run, under "end_to_end" (--trace 0) or
"per_layer" (--trace 1) of the given JSON file, keeping the other key.
A traced summary also gives each per-layer time as a share of the traced
unit's wall time; nested layers overlap, so shares do not sum to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    status = 0
    for workload in args.workloads:
        reports = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(ROOT, spec["command"][1]),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 3:
                print(f"{workload} seed {seed}: exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
                status = 1
                continue
            summary.setdefault("environment", json.loads(lines[0])["environment"])
            reports.append(json.loads(lines[-2])["report"])
        if not reports:
            continue
        names = reports[0]["metrics"]
        rows = {n: _summary([r["metrics"][n]["value"] for r in reports]) for n in names}
        for n in names:
            rows[n]["unit"] = reports[0]["metrics"][n]["unit"]
        entry = {"runs": len(reports), "metrics": rows}
        if args.trace:
            wall = rows["traced_wall_s"]["median"]
            entry["share_of_traced_wall"] = {
                n: rows[n]["median"] / wall for n in names
                if rows[n]["unit"] == "s" and n != "traced_wall_s"
                and not n.startswith(("data.load_manifest", "data.read_ppm", "network.load"))}
        summary["workloads"][workload] = entry
        print(f"{workload}: {len(reports)} runs")
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound}  {'ok' if row['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {name:34s} median {row['median']:12.6g}  spread {row['spread']:7.4f}{flag}")
    if args.out:
        stored = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                stored = json.load(f)
        stored["per_layer" if args.trace else "end_to_end"] = summary
        with open(args.out, "w") as f:
            json.dump(stored, f, indent=1, sort_keys=True)
            f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
