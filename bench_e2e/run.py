#!/usr/bin/env python3
"""Builds and runs the end-to-end SQL-TS benchmark (see README.md).

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The first call configures and
builds `e2e_bench` (Release) under $CARGO_TARGET_DIR, or `.bench_build`
when that is unset; later calls only re-check the build.  Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result.  `--workload all` runs every workload in turn and prints each
report.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["djia_batch", "market_queryset", "market_stream", "sqlc_skip",
             "sqlc_full"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "bench_e2e")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no SQL-TS source tree around " + HERE)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2e_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(out, "e2e_bench")
    if not os.path.isfile(binary):
        fail("build produced no " + binary)
    return binary


def run_one(binary, workload, args):
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        # stdout passes straight through: its last line is the result.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1987)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    sys.stdout.flush()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = run_one(binary, workload, args) or status
    sys.exit(status)


if __name__ == "__main__":
    main()
