#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

  python3 bench/e2e/run.py --workload hfr-ml-ncf --seed 7 --seconds 15 --trace 0

The build goes to .bench_build/bench_e2e at the checkout root (configured
once, then an incremental no-op). The binary's report line is echoed, and
the last line of stdout is the result object with exactly the metrics
BENCHMARK.json lists for the mode: its end_to_end metrics with --trace 0,
its per_layer metrics with --trace 1. Exits non-zero, without a result
line, when the sources or the build are missing, and with the binary's exit
code when one of its checks fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(2)


def call(cmd):
    # Build chatter goes to stderr: stdout ends with the result line.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if done.returncode != 0:
        fail("command failed ({}): {}".format(done.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "trainer.h")):
        fail("no library sources under {}/src".format(ROOT))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        call(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", BUILD, "--target", "bench_e2e",
          "--parallel", jobs])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.workload):
        ap.error("bad --workload")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: {}".format(e))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else
                                      "end_to_end"]]
    build()

    cmd = [BINARY, "--workload=" + args.workload,
           "--seed={}".format(args.seed),
           "--seconds={!r}".format(args.seconds),
           "--trace=" + ("true" if args.trace else "false")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out after {} s".format(RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("binary exited {} without a result".format(done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("unparseable result line: {}".format(e))
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the result: {}".format(", ".join(missing)))

    print(lines[0])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in wanted},
    }))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
