#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
reports, for every end-to-end metric, the interquartile spread of its values
as a share of their median, next to the metric's bound in BENCHMARK.json.

Usage (from the root of a checkout):
  python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
      [--workloads steady,churn,fanout_wide]

Exits 1 when a run fails its checks or a spread (setup_s excepted, whose
bound limits the change of its median) exceeds a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)" %
                 (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            result = run_once(spec, workload, args.first_seed + i)
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (workload, args.first_seed + i, result["correct"],
                       result["failed"]))
                steady = False
            results.append(result)
        print("%s (%d runs):" % (workload, args.runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            limit = metric["bound"] / 3
            ok = name == "setup_s" or spread <= limit
            steady = steady and ok
            print("  %-26s median %-12.6g spread %6.3f  bound %.2f %-8s %s" %
                  (name, median, spread, metric["bound"],
                   "" if ok else "TOO WIDE",
                   " ".join("%.4g" % v for v in values)))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
