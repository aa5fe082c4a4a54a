#!/usr/bin/env python3
"""Build and run the OBIWAN real-time benchmark (see README.md).

    python3 rtbench/run.py --workload replicate_graph --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary under .bench_build/rtbench (later runs only
check that the build is up to date). The binary then runs the workload in
PARTS[workload] processes one after another; the last line printed is one
JSON object combining their results. Spans of a traced run's last part are written under
.bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("replicate_graph", "update_fanout", "invoke_mix")
# A first run in a fresh checkout builds and then runs: both fit in 900 s;
# any later run (an up-to-date check, then the run) in 180 s.
RUN_TIMEOUT_S = 110
BUILD_TIMEOUT_S = 780
# A run is PARTS[workload] fresh processes, one after another, each measuring
# an equal share of the seconds, so that a slow spell of a shared host, or a
# process whose threads were placed badly, moves some parts, not the result
# (see combine). replicate_graph has fewer, longer parts, so that each still
# times about 100 of its slow ops.
PARTS = {"replicate_graph": 6, "update_fanout": 12, "invoke_mix": 12}
# Units of the times and rates that combine() takes from the least disturbed
# quarter of the parts; every other metric is the parts' median.
COST_UNITS = ("s", "us", "ns")
RATE_UNITS = ("ops/s",)


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build; returns the binary's path or None."""
    source = os.path.join(root, "rtbench")
    build_dir = os.path.join(root, ".bench_build", "rtbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build step failed: %s" % err)
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            log("build step failed: " + " ".join(step))
            return None
    binary = os.path.join(build_dir, "rtbench")
    return binary if os.path.exists(binary) else None


def run_part(binary, args, root, seconds, deadline):
    """One benchmark process; returns (its summary lines, its result) or None."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(root, ".bench_out")]
    # CLOCK_MONOTONIC just before the process starts: setup_s runs from here.
    command += ["--t0-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return None
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines:
        log("benchmark exited with code %d" % done.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("benchmark printed no result")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result")
        return None
    return lines[:-1], result


def combine(results):
    """One result from the parts'. Counts are summed. setup_s is the first
    part's cold set-up. A time is the lower quartile of the parts' values and
    a rate the upper one: interference from other tenants of the host only
    ever slows a part down, so the quarter of the parts it touched least is
    the steadiest estimate of the program's own cost. Every other metric
    (bytes, round trips, RSS, per-op counts) is the parts' median."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        unit = first["unit"]
        if name == "setup_s":
            value = values[0]
        elif unit in COST_UNITS:
            value = statistics.quantiles(values, n=4)[0]
        elif unit in RATE_UNITS:
            value = statistics.quantiles(values, n=4)[2]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = PARTS[args.workload]
    results = []
    for part in range(parts):
        got = run_part(binary, args, root, args.seconds / parts, deadline)
        if got is None:
            return 1
        lines, result = got
        print("part %d of %d:" % (part + 1, parts))
        for line in lines:
            print(line)
        results.append(result)
    if set(results[0]["metrics"]) != set().union(*(r["metrics"] for r in results)):
        log("the parts reported different metrics")
        return 1
    print(json.dumps(combine(results)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
