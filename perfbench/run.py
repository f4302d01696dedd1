#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite_misspec --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --test              # the arithmetic tests

The benchmark is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr, so the last line of stdout is the result JSON. Spans of a
traced run are written to the same directory.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["suite_misspec", "suite_native", "server_open"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, targets):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr, check=True)


def run_one(exe, build_dir, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(HERE, "refs"), "--out", build_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.rstrip("\n")
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.test and not args.workload:
        p.error("one of --workload or --test is required")

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    try:
        if args.test:
            build(build_dir, ["perfbench_test"])
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_test")]).returncode
        build(build_dir, ["perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "perfbench")

    if args.workload != "all":
        code, out = run_one(exe, build_dir, args.workload, args)
        print(out)
        return code

    # Every workload's report, then one JSON line whose metric names are
    # prefixed with the workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, out = run_one(exe, build_dir, w, args)
        print(out)
        if code != 0:
            return code
        res = json.loads(out.splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][w + "/" + name] = m
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
