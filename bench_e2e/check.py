#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 bench_e2e/check.py

Checks, with short runs:
  * the pinned counts on the default seed 1987 (djia_batch: 9,179 tests
    and 6 matches; sqlc_skip: 16 of 8,000 blocks read and 75 matches);
  * that on the held-out seed 7919 every workload's output oracles and
    trace-replay parity pass (a traced run also fails when the replay's
    time drifts from the public call's), and sqlc_skip still skips > 99%
    of blocks;
  * that each result line carries exactly the metrics BENCHMARK.json
    names, as finite numbers, and no end-to-end metric reads 0.
Exits 1 on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1987
HELD_OUT_SEED = 7919
# Long enough for several traced sqlc_full operations, whose median the
# trace-overhead gate compares.
SECONDS = 4

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    label = "%s seed=%d trace=%d" % (workload, seed, trace)
    expect(proc.returncode == 0 and len(lines) >= 2,
           label + " failed:\n" + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    expect(lines[-2].startswith("details: "), label + ": no details line")
    details = json.loads(lines[-2][len("details: "):])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           label + ": result keys " + str(sorted(result)))
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, label + ": " + lines[-1])
    expect(details["seed"] == seed, label + ": details record seed " +
           str(details["seed"]))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expect(sorted(result["metrics"]) == sorted(m["name"] for m in spec),
           label + ": metric names differ from BENCHMARK.json")
    for m in spec:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], label + ": unit of " + m["name"])
        value = got["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               label + ": " + m["name"] + " is not a finite number")
        expect(trace or value != 0, label + ": " + m["name"] + " reads 0")
    print("ok  " + label)
    return {k: v["value"] for k, v in result["metrics"].items()}, details


def expect(ok, msg):
    if not ok:
        print("FAIL " + msg)
        sys.exit(1)


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]

    layers, details = run("djia_batch", DEFAULT_SEED, 1)
    facts = details["facts"]
    expect(facts["tests"] == 9179 and facts["matches"] == 6,
           "djia_batch pinned counts: %s" % facts)
    expect(layers["engine.tests"] == 9179,
           "djia_batch traced engine.tests = %s" % layers["engine.tests"])

    layers, details = run("sqlc_skip", DEFAULT_SEED, 1)
    facts = details["facts"]
    expect(facts["blocks_read"] == 16 and facts["blocks_total"] == 8000
           and facts["matches"] == 75, "sqlc_skip pinned counts: %s" % facts)
    expect(layers["colstore.blocks_read"] == 16,
           "sqlc_skip traced colstore.blocks_read = %s"
           % layers["colstore.blocks_read"])

    for workload in workloads:
        for trace in (0, 1):
            _, details = run(workload, HELD_OUT_SEED, trace)
            if workload == "sqlc_skip":
                ratio = details["facts"]["block_skip_ratio"]
                expect(ratio > 0.99, "held-out sqlc_skip skips only %.4f of "
                       "blocks" % ratio)
    print("all checks passed")


if __name__ == "__main__":
    main()
