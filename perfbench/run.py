#!/usr/bin/env python3
"""Builds and runs the GoFree-CPP benchmark (see perfbench/README.md).

One run of one workload, from the root of a checkout:

    python3 perfbench/run.py --workload subjects|compile|serve \
        --seed N --seconds S --trace 0|1

builds the benchmark from the checkout's sources (into $CARGO_TARGET_DIR,
default .bench_build, under the checkout), runs the workload in a fresh
process and passes its output through: a host/build stamp, the workload's
own figures, and as the last line one JSON object with correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with --trace 1).

    python3 perfbench/run.py --steady WORKLOAD[,WORKLOAD...] \
        [--runs 10] [--seconds S]

runs each workload --runs times in fresh processes with seeds 1..runs and
prints each end-to-end metric's median, quartiles, spread (interquartile
distance over the median) and min/max, plus the share of failed
operations. The bounds in BENCHMARK.json are set from its output.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests and checks that BENCHMARK.json
names exactly the metrics the benchmark prints.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("subjects", "compile", "serve")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(targets):
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no GoFree sources next to the benchmark (expected src/ at %s)"
             % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc = subprocess.run(["cmake", "-S", HERE, "-B", out,
                             "-DCMAKE_BUILD_TYPE=Release"],
                            stdout=sys.stderr).returncode
        if rc != 0:
            fail("configuring the benchmark failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    rc = subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"]
                        + list(targets), stdout=sys.stderr).returncode
    if rc != 0:
        fail("building the benchmark failed")
    return out


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def bench_cmd(out, workload, seed, seconds, trace):
    return [os.path.join(out, "perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--git-sha", git_sha()]


def parse_result(stdout):
    """The JSON object on the last line of a run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(result))
    return result


def quartiles(values):
    """Q1, median, Q3 as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def steady(args):
    out = build(["perfbench"])
    rc = 0
    for workload in args.steady.split(","):
        if workload not in WORKLOADS:
            fail("unknown workload %r" % workload)
        values, shares = {}, []
        for seed in range(1, args.runs + 1):
            r = subprocess.run(bench_cmd(out, workload, seed, args.seconds, 0),
                               capture_output=True, text=True,
                               timeout=args.seconds * 4 + 180)
            try:
                res = parse_result(r.stdout)
            except ValueError as e:
                print("%s seed %d: no result (%s, exit %d)\n%s"
                      % (workload, seed, e, r.returncode, r.stderr[-2000:]))
                rc = 1
                continue
            if r.returncode != 0 or not res["correct"]:
                print("%s seed %d: exit %d, correct=%s" %
                      (workload, seed, r.returncode, res["correct"]))
                rc = 1
            if res["attempted"] < 1:
                print("%s seed %d: no operation attempted" % (workload, seed))
                rc = 1
                continue
            shares.append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            figures = " ".join("%s=%.6g" % (k, m["value"])
                               for k, m in res["metrics"].items())
            print("%s seed %d: %s" % (workload, seed, figures), flush=True)
        print("%s: %d runs, failed share %s" %
              (workload, len(shares), sorted(set(shares))))
        print("  %-14s %12s %12s %12s %8s %12s %12s" %
              ("metric", "median", "q1", "q3", "spread", "min", "max"))
        for name, v in values.items():
            q1, q2, q3 = quartiles(v)
            print("  %-14s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g" %
                  (name, q2, q1, q3, spread(v), min(v), max(v)))
    return rc


def selftest():
    out = build(["perfbench", "perfbench_test"])
    rc = 0
    test_bin = os.path.join(out, "perfbench_test")
    if os.path.isfile(test_bin):
        rc |= subprocess.run([test_bin]).returncode
    else:
        print("perfbench_test not built (no GoogleTest); skipped")
    rc |= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          os.path.join(HERE, "tests"), "-p", "test_*.py"]
                         ).returncode
    # BENCHMARK.json must name exactly what the benchmark prints.
    listed = subprocess.run([os.path.join(out, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    printed = {"end_to_end": [], "per_layer": []}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        printed[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for kind in printed:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != printed[kind]:
            print("BENCHMARK.json %s differs from the benchmark's metrics:\n"
                  "  only in BENCHMARK.json: %s\n  only in the benchmark: %s"
                  % (kind, sorted(set(declared) - set(printed[kind])),
                     sorted(set(printed[kind]) - set(declared))))
            rc = 1
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from %s" % (WORKLOADS,))
        rc = 1
    print("selftest %s" % ("passed" if rc == 0 else "FAILED"))
    return rc


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", metavar="WORKLOADS")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.selftest:
        return selftest()
    if args.steady:
        return steady(args)
    if not args.workload:
        fail("one of --workload, --steady or --selftest is required")
    out = build(["perfbench"])
    sys.stdout.flush()
    try:
        return subprocess.run(bench_cmd(out, args.workload, args.seed,
                                        args.seconds, args.trace),
                              timeout=args.seconds * 4 + 150).returncode
    except subprocess.TimeoutExpired:
        fail("the %s workload did not finish in time" % args.workload, 1)


if __name__ == "__main__":
    sys.exit(main())
