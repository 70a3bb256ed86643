#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of adalsh.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call builds the library and the driver (perfbench/CMakeLists.txt)
into .bench_build/, then runs one workload of perfbench/workloads.json (a
batch phase and a serve phase, one driver invocation each, sharing the run's
seconds) and prints, as its last stdout line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with --trace 0, the `per_layer` ones with --trace 1. A line
before it carries the run's metadata (git SHA, CPU model, nproc, SIMD picks).

A run is correct when every in-process check of the driver holds and every
pinned count matches the value recorded in perfbench/workloads.json exactly;
otherwise it prints its result with "correct": false and exits 1. A build
failure exits 2 without a result. perfbench/README.md documents the
workloads and every metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
SCRATCH_DIR = ROOT / ".bench_scratch"
BINARY = BUILD_DIR / "adalsh_perfbench"
# Wall-clock budget of one run's driver invocations, build excluded.
RUN_BUDGET_S = 165


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def manifest_metrics(benchmark, trace):
    """{name: unit} of the metrics a run prints: every end-to-end metric
    untraced, every per-layer metric traced."""
    return {m["name"]: m["unit"]
            for m in benchmark["per_layer" if trace else "end_to_end"]}


def workload_phases(config, name, smoke):
    """The workload's driver invocations as (phase, mode, params, expect)."""
    phases = []
    for phase in config["workloads"][name]:
        spec = config["phases"][phase]
        params = dict(spec["params"])
        expect = dict(spec["expect"])
        if smoke:
            params.update(spec["smoke"]["params"])
            expect = dict(spec["smoke"]["expect"])
        phases.append((phase, spec["mode"], params, expect))
    return phases


def build():
    """Configures and builds the driver incrementally; False on error."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "adalsh_perfbench"]]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step {step[:2]} failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step {' '.join(step[:3])} exited {done.returncode}")
            return False
    return True


def git_sha():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_driver(phase, mode, params, seed, seconds, trace, deadline):
    scratch = SCRATCH_DIR / f"{phase}-{os.getpid()}"
    args = [str(BINARY), f"--mode={mode}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={'true' if trace else 'false'}"]
    if mode == "serve":
        args.append(f"--scratch={scratch}")
    args += [f"--{key}={value}" for key, value in params.items()]
    timeout = deadline - time.monotonic()
    try:
        if timeout <= 0:
            raise subprocess.TimeoutExpired(args, 0)
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{phase}: driver exceeded the run's {RUN_BUDGET_S} s budget")
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if done.returncode != 0:
        log(f"{phase}: driver exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}")
        return None
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def evaluate(name, phases, outs, trace, benchmark):
    """Returns (correct, metrics, attempted, failed) of the workload,
    logging each failure.

    The phases' driver metrics have distinct names; two end-to-end metrics
    are derived from both: setup_s is the AdaptiveLsh constructor plus the
    DurableEngine restart, ops_ok_ratio covers every call of the run."""
    correct = True
    emitted = {}
    attempted = failed = 0
    for (phase, _, _, expect), out in zip(phases, outs):
        for check, ok in sorted(out["checks"].items()):
            if not ok:
                log(f"{name}/{phase}: check {check} failed")
                correct = False
        for count, value in sorted(expect.items()):
            got = out["counts"].get(count)
            if got != value:
                log(f"{name}/{phase}: count {count} is {got}, "
                    f"expected exactly {value}")
                correct = False
        emitted.update(out["metrics"])
        attempted += out["attempted"]
        failed += out["failed"]
    if "core.setup_s" in emitted and "engine.open_s" in emitted:
        emitted["setup_s"] = {"value": emitted["core.setup_s"]["value"] +
                              emitted["engine.open_s"]["value"], "unit": "s"}
    emitted["ops_ok_ratio"] = {"value": (attempted - failed) / attempted,
                               "unit": "ratio"}
    metrics = {}
    for metric, unit in manifest_metrics(benchmark, trace).items():
        value = emitted.get(metric)
        if value is None or value["unit"] != unit:
            log(f"{name}: metric {metric} missing or not in {unit}")
            correct = False
            continue
        metrics[metric] = {"value": value["value"], "unit": unit}
    return correct, metrics, attempted, failed


def run_workload(args):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((BENCH_DIR / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        log(f"unknown workload {args.workload!r}")
        return 2
    phases = workload_phases(config, args.workload, args.smoke)
    if args.corrupt_expected:
        corrupted = [e for _, _, _, e in phases if args.corrupt_expected in e]
        if not corrupted:
            log(f"no expected count {args.corrupt_expected!r} to corrupt")
            return 2
        for expect in corrupted:
            expect[args.corrupt_expected] += 1
    if not build():
        return 2
    # The phases run one after the other and share the run's seconds.
    deadline = time.monotonic() + RUN_BUDGET_S
    outs = []
    for phase, mode, params, _ in phases:
        out = run_driver(phase, mode, params, args.seed,
                         args.seconds / len(phases), args.trace == 1, deadline)
        if out is None:
            return 2
        outs.append(out)

    host = config["host"]
    meta = {"git_sha": git_sha(), "cpu_model": cpu_model(),
            "nproc": os.cpu_count(), "simd_dot": outs[0]["meta"]["simd_dot"],
            "simd_minhash": outs[0]["meta"]["simd_minhash"],
            "samples": {phase: {k: v for k, v in out["meta"].items()
                                if not k.startswith("simd_")}
                        for (phase, _, _, _), out in zip(phases, outs)}}
    for kernel in ("simd_dot", "simd_minhash"):
        picks = {out["meta"][kernel] for out in outs}
        if picks != {host[kernel]}:
            meta.setdefault("notes", []).append(
                f"{kernel} picked {sorted(picks)}, recorded {host[kernel]}")
    print(json.dumps({"meta": meta}))

    correct, metrics, attempted, failed = evaluate(
        args.workload, phases, outs, args.trace == 1, benchmark)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def last_result(command):
    """Runs one run.py command; returns (exit code, result line or None)."""
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def selftest():
    """Smoke-size run of every workload, traced and untraced: each named
    metric is emitted with its unit, and a corrupted expected count fails."""
    config = json.loads((BENCH_DIR / "workloads.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in benchmark["workloads"]} == set(
        config["workloads"]), "BENCHMARK.json and workloads.json disagree"
    failures = []
    for name in config["workloads"]:
        base = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", "1", "--seconds", "2", "--smoke"]
        for trace in (0, 1):
            code, result = last_result(base + ["--trace", str(trace)])
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{name} trace={trace}: not correct")
                continue
            units = manifest_metrics(benchmark, trace == 1)
            if set(result["metrics"]) != set(units):
                failures.append(f"{name} trace={trace}: metrics "
                                f"{sorted(set(result['metrics']) ^ set(units))}")
            for metric, value in result["metrics"].items():
                if value["unit"] != units.get(metric):
                    failures.append(f"{name}: {metric} in {value['unit']}")
        count = sorted(workload_phases(config, name, True)[0][3])[0]
        code, result = last_result(base + ["--trace", "0",
                                           "--corrupt-expected", count])
        if code != 1 or result is None or result["correct"]:
            failures.append(f"{name}: corrupted {count} was not caught")
        log(f"selftest {name}: done")
    for failure in failures:
        log(f"selftest FAILED: {failure}")
    if not failures:
        log("selftest passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-size inputs (self-test)")
    parser.add_argument("--corrupt-expected", metavar="COUNT",
                        help="add 1 to one expected count (self-test)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
