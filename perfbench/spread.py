#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds N] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) on each
workload and prints, per metric, the median of the runs and the distance
between their first and third quartiles (statistics.quantiles with n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json (per-layer
metrics, --trace 1, have none). --out writes every run's values as JSON, so
two sets can be compared.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in benchmark["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        values = {}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{done.stderr}",
                      file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        runs[workload] = values
        print(f"{workload} ({args.runs} runs, longest {max(walls):.1f} s)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:24s} median {median:<14.6g} spread {spread:7.4f}"
                  f"  bound {bounds.get(name, '-')}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
