#!/usr/bin/env python3
"""Builds the PDMS benchmark from source and runs one workload.

    python3 pdmsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pdmsbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
pdmsbench/CMakeLists.txt (the library sources under src/ plus the benchmark)
into $CARGO_TARGET_DIR/pdmsbench, default .bench_build/pdmsbench; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Span logs and scratch files go to
.bench_out/. Exit status: the benchmark's (0 ok, 1 a correctness check
failed, 2 bad arguments), 3 if the build failed, 4 on a timeout.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pdmsbench")


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print("build timed out: " + " ".join(step), file=sys.stderr)
                return None
            if done.returncode != 0:
                print("build failed: " + " ".join(step), file=sys.stderr)
                return None
    return os.path.join(out, target)


def main(argv):
    selftest = argv == ["--selftest"]
    binary = build("pdms_bench_selftest" if selftest else "pdms_bench")
    if binary is None:
        return 3
    command = [binary]
    if not selftest:
        command += argv + ["--out-dir", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
