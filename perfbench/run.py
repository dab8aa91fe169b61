#!/usr/bin/env python3
"""Builds and runs the end-to-end time-to-solution benchmark.

    python3 perfbench/run.py --workload lp_oneshot --seed 11 --seconds 20 --trace 0

Builds perfbench/ (the sparsechol library from src/ plus the driver) in
Release under .bench_build/ at the repository root, or under
$CARGO_TARGET_DIR when that is set, then runs one workload. The last line of
standard output is the result JSON. --tiny runs smoke-test sizes. Build
output goes to standard error. Exits non-zero, printing no result, when the
build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lp_oneshot", "cube_refactor", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "spc_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "spc_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    opt = ap.parse_args()

    out = build_root()
    binary = build(os.path.join(out, "perfbench"))
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", opt.workload, "--seed", str(opt.seed),
           "--seconds", repr(opt.seconds), "--trace", str(opt.trace),
           "--trace-dir", traces]
    if opt.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s" % (opt.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s exited with %d" % (opt.workload, proc.returncode))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
