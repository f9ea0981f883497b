#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--out results.json] [--compare earlier.json]

Run from the root of a checkout. Runs perfbench/run.py --trace 0 on every
workload (default: all in BENCHMARK.json) `--runs` times, with seeds 1, 2,
... and BENCHMARK.json's run_seconds, and prints per workload and metric the
median, the first and third quartiles (statistics.quantiles(values, n=4)),
and the relative spread (q3 - q1) / median against the metric's bound. A
metric whose spread exceeds its bound is flagged OVER; one above a third of
its bound is flagged "wide".
With --compare, the medians are also checked against an earlier --out file:
a median worse than the earlier one by more than the bound is flagged
WORSE. The exit code is 1 if anything was flagged OVER or WORSE.
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(metric, old, new):
    """Relative worsening of `new` against `old` (negative = better)."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("incorrect output: %s" % " ".join(cmd))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    results = {}
    for w in workloads:
        results[w] = [run_once(w, 1 + i, spec["run_seconds"]) for i in range(args.runs)]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    flagged = False
    print("%-12s %-14s %12s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "q1", "median", "q3", "spread", "bound", "flag"))
    for w in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in results[w]]
            q1, med, q3 = quartiles(values)
            rel = spread(values)
            flag = ""
            if rel > metric["bound"]:
                flag = "OVER"
            elif rel > metric["bound"] / 3:
                flag = "wide"
            if w in earlier:
                old = statistics.median(r[name] for r in earlier[w])
                change = worse_by(metric, old, med)
                flag += " vs-earlier %+.3f" % change
                if change > metric["bound"]:
                    flag += " WORSE"
            flagged = flagged or "OVER" in flag or "WORSE" in flag
            print("%-12s %-14s %12.6g %12.6g %12.6g %8.4f %6.2f  %s"
                  % (w, name, q1, med, q3, rel, metric["bound"], flag))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
