#!/usr/bin/env python3
"""The repo benchmark: builds the simulator and its harness from source,
then runs workloads and prints their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form runs one workload: --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The second form runs every workload both ways and prints all metrics,
named "<workload>.<metric>".  See perfbench/README.md for the metrics,
the workloads and the simulator's known failures.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/ at
the repo root), so repeated runs only re-link what changed.  The exit
code is non-zero on a build failure or a harness error (an unchecked
result, or counts that did not repeat); device failures are reported,
not fatal.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("io_tiny", "formula_tiny", "bulk_paper")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the harness; return its path, or None."""
    out = build_dir()
    steps = []
    # Once generated, the build step re-runs CMake itself when needed.
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--parallel", jobs])
    # Compiler temporaries stay in the build tree, not the system /tmp.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_harness(binary, workload, seed, seconds, trace, extra=()):
    """Run the harness once; return (exit code, stdout lines, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, [], None
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"perfbench: {workload} printed no result line",
              file=sys.stderr)
        return done.returncode or 1, lines, None
    return done.returncode, lines, result


def run_one(binary, args):
    extra = []
    if args.trace == 1:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        extra = ["--spans-out",
                 os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    rc, lines, result = run_harness(binary, args.workload, args.seed,
                                    args.seconds, args.trace, extra)
    if result is None:
        return rc
    print("\n".join(lines))
    return rc


def run_all(binary, args):
    """Every workload, untraced then traced; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, lines, result = run_harness(binary, workload, args.seed,
                                            args.seconds, trace)
            if result is None:
                return rc
            print("\n".join(lines[:-1]))
            worst = worst or rc
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1))
    args = p.parse_args()
    if (args.workload is None) != (args.trace is None):
        p.error("--workload and --trace go together")
    binary = build()
    if binary is None:
        return 1
    if args.workload is None:
        return run_all(binary, args)
    return run_one(binary, args)


if __name__ == "__main__":
    sys.exit(main())
