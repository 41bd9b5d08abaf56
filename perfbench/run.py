#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` program
twice from source with cargo (offline, release): a plain build, and one
with the work-stealing pool's counters on (`pool-metrics`) for traced
runs. Builds go under $CARGO_TARGET_DIR (default `.bench_build`).

--trace 0 runs the plain build once and reports the end-to-end metrics
named in BENCHMARK.json. --trace 1 runs the plain build, then the traced
build with spans on, and reports the per-layer metrics; a per-layer
metric that does not apply to the workload reads 0 and is listed under
`not_applicable` in the record. `bench.trace_overhead` is the share of
ops_per_s the traced run lost against the plain one.

The second-to-last line of standard output is a record of the run (seed,
inputs, commit, parallelism, steal, checks); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is non-zero, and no result is printed, when the program
cannot be built or a run does not finish.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run of one command must end well within the 180 s a run may take.
DEADLINE_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir, features):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"),
           "--target-dir", target_dir]
    if features:
        cmd += ["--features", features]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args, out_dir, traced, started):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out_dir]
    if traced:
        cmd.append("--trace")
    left = DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing")
    return json.loads(lines[-1])


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.monotonic()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        fail(f"unknown workload {args.workload!r}; one of {sorted(why)}")

    # Both builds on every run: the first run in a checkout pays for them,
    # later ones find them fresh, whichever --trace they ask for.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    plain_bin = build(os.path.join(target, "perfbench-plain"), None)
    traced_bin = build(os.path.join(target, "perfbench-traced"), "pool-metrics")
    out_dir = os.path.join(target, "perfbench-out")

    runs = [run(plain_bin, args, out_dir, False, started)]
    if args.trace:
        runs.append(run(traced_bin, args, out_dir, True, started))
    measured = runs[-1]

    if args.trace:
        plain_ops = runs[0]["metrics"]["ops_per_s"]
        traced_ops = runs[1]["metrics"]["ops_per_s"]
        measured["layers"]["bench.trace_overhead"] = 1.0 - traced_ops / plain_ops
        wanted, source = spec["per_layer"], measured["layers"]
    else:
        wanted, source = spec["end_to_end"], measured["metrics"]

    metrics, not_applicable = {}, []
    for m in wanted:
        value = source.get(m["name"])
        if value is None or not math.isfinite(value):
            if not args.trace:
                fail(f"{args.workload} did not measure {m['name']}")
            not_applicable.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    checks = [c for r in runs for c in r["checks"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "n": measured["n"],
        "params": measured["params"],
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "machine_parallelism": measured["machine_parallelism"],
        "pool_threads": measured["pool_threads"],
        "steal_s": [r["steal_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "failed_frac": failed / max(attempted, 1),
        "checks": checks,
        "absent": measured["absent"],
        "not_applicable": not_applicable,
        "spans_file": measured["spans_file"],
        "end_to_end": runs[0]["metrics"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
