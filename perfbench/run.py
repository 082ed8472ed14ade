#!/usr/bin/env python3
"""Benchmark entry point for csync.

Builds the workload program (perfbench/csbench.ml) from the sources of the
checkout this file sits in, runs one workload, and prints its
result as the last line of standard output:

    python3 perfbench/run.py --workload scale --seed 1 --seconds 50 --trace 0

The build uses dune with its shared cache off, so everything it writes
stays in the checkout's _build directory.  Any build or run failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale", "traced")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "csbench.exe")

# The first build of a fresh checkout compiles the whole library stack.
BUILD_TIMEOUT_S = 840
# A run measures for --seconds, plus set-up and one warm-up operation.
RUN_SLACK_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "./perfbench/csbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % proc.returncode)


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("csbench printed no JSON result")
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        fail("malformed result: %s" % line)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation attempted")
    kind = "per_layer" if trace else "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        expected = {m["name"] for m in json.load(f)[kind]}
    if set(result["metrics"]) != expected:
        fail("metrics %s, expected %s" % (sorted(result["metrics"]),
                                           sorted(expected)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + RUN_SLACK_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("csbench failed: %s" % e)
    if proc.returncode != 0:
        fail("csbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("csbench printed nothing")
    check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n")
                     else proc.stdout + "\n")


if __name__ == "__main__":
    main()
