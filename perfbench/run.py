#!/usr/bin/env python3
"""End-to-end benchmark of the slocal pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds the slocal libraries,
the slocal_serve binary and perfbench_workloads from source into
.bench_build/perfbench (CMake, Release); later calls reuse that build. The
workload program runs one workload for the given wall-clock window and returns raw
per-op measurements; this script turns them into the metrics named in
BENCHMARK.json and prints them as the last line of its output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
setup_s is the median over SETUP_REPEATS separate processes, since set-up
is paid once per process. Workloads, metric meanings and the layer ->
metric -> end-to-end mapping are described in perfbench/README.md.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("re-chain", "lift-refute", "serve-mix", "sim-luby")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
RUN_BUDGET_S = 170  # all workload processes of one call, build excluded


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond, n). With fewer than
    beyond + 1 samples no percentile qualifies; the rule then keeps as many
    samples beyond as there are (n - 1), so the value is the minimum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = min(beyond, n - 1)
    rank = n - k  # 1-based nearest rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, k, n


def median_class(lat, cls):
    """The op class of the median sample (lower median)."""
    return sorted(zip(lat, cls))[(len(lat) - 1) // 2][1]


def op_min(lat, cls):
    """The fastest op of the class the median falls in."""
    at_median = median_class(lat, cls)
    return min(l for l, c in zip(lat, cls) if c == at_median)


def end_to_end(raw, setups):
    """The end-to-end metrics of one untraced workload run."""
    lat = raw["lat_ms"]
    n = len(lat)
    failed = raw["ok"].count("0")
    return {
        "setup_s": statistics.median(setups),
        "op_min_ms": op_min(lat, raw["cls"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_op_ratio": (n - failed) / n,
    }


def host_facts(build_dir):
    facts = {"nproc": os.cpu_count(), "machine": platform.machine()}
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            text = f.read()
        for key, name in (("CMAKE_CXX_COMPILER:", "compiler"),
                          ("CMAKE_BUILD_TYPE:", "build_type")):
            m = re.search("^" + re.escape(key) + r"\w+=(.*)$", text, re.M)
            if m:
                facts[name] = m.group(1)
    if "compiler" in facts:
        out = subprocess.run([facts["compiler"], "--version"], capture_output=True, text=True)
        facts["compiler"] = out.stdout.splitlines()[0] if out.stdout else facts["compiler"]
    return facts


def build(root, build_dir, env):
    """Configures and builds the benchmark package; exits 2 on failure."""
    for needed in ("src/CMakeLists.txt", "examples/slocal_serve.cpp"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("repository sources missing (%s); run from the root of a checkout" % needed)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        # The default target: it also re-runs CMake when a CMakeLists changed.
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                fail("build failed: %s (log: %s)" % (" ".join(cmd), log_path))


def run_workloads(build_dir, work_dir, args, extra, env, deadline):
    cmd = [os.path.join(build_dir, "perfbench_workloads"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds,
           "--serve-bin=" + os.path.join(build_dir, "slocal_serve"),
           "--work-dir=" + work_dir] + extra
    if args.smoke:
        cmd.append("--smoke")
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload program timed out: " + " ".join(cmd))
    if out.returncode != 0:
        fail("workload program failed (%d): %s" % (out.returncode, out.stderr.strip()))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (self-test only; numbers are meaningless)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found; run from the root of a checkout")
    with open(spec_path) as f:
        spec = json.load(f)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(root, build_dir, env)
    work_dir = os.path.join(build_dir, "work-" + args.workload)
    os.makedirs(work_dir, exist_ok=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    # The extra set-up processes run half before and half after the timed
    # one, so their median spans the run rather than one moment of the host.
    extra = 0 if args.trace else (1 if args.smoke else SETUP_REPEATS - 1)

    def setup_only():
        return run_workloads(build_dir, work_dir, args, ["--setup-only"], env,
                             deadline)["setup_s"]

    setups = [setup_only() for _ in range(extra // 2)]
    raw = run_workloads(build_dir, work_dir, args, ["--trace"] if args.trace else [], env, deadline)
    setups.append(raw["setup_s"])
    setups += [setup_only() for _ in range(extra - extra // 2)]

    lat = raw["lat_ms"]
    if not lat:
        fail("no op completed inside the window")
    failed = raw["ok"].count("0")
    if args.trace:
        wanted = spec["per_layer"]
        values = raw["layer"]
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(raw, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("workload program did not report: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    tail_ms, pct, beyond, n = tail(lat)
    classes = {c: raw["cls"].count(c) for c in sorted(set(raw["cls"]))}
    by_latency = sorted(zip(lat, raw["cls"]))
    print("perfbench: workload=%s seed=%d trace=%d ops=%d failed=%d classes=%s"
          % (args.workload, args.seed, args.trace, n, failed, classes))
    # Figures of the whole window, for the reader: on a shared host they
    # move with the neighbours' load, so no bound is kept on them.
    print("perfbench: ops_per_s=%.4f op_p50_ms=%.4f op_tail_ms=%.4f cpu_s_per_op=%.6f"
          % (n / raw["wall_s"], statistics.median(lat), tail_ms, raw["cpu_s"] / n))
    print("perfbench: op_tail_ms is p%.2f of %d samples, %d samples beyond it" % (pct, n, beyond))
    # Op classes: o = the workload's one composite op; serve-mix has
    # r = sequence read, m = memo-hit sweep read, w = write sweep.
    print("perfbench: class at the median: %s, at the tail: %s, beyond the tail: %s"
          % (by_latency[(n - 1) // 2][1], by_latency[n - 1 - beyond][1],
             "".join(sorted(set(c for _, c in by_latency[n - beyond:]))) or "-"))
    print("perfbench: setup_s samples=%s" % [round(s, 4) for s in setups])
    print("perfbench: detail=%s" % json.dumps(raw.get("detail", {})))
    print("perfbench: host=%s" % json.dumps(host_facts(build_dir)))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
