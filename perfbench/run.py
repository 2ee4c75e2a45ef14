#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv_tcp --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run in a checkout compiles.  The last
line of standard output is the benchmark's JSON result; the exit code is 0
only when every output check passed.  See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench and screp_server."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "screp_server"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def run_benchmark(command):
    """Runs perfbench in its own process group; afterwards kills and reaps
    whatever it left behind (a screp_server child, if perfbench died)."""
    # PR_SET_CHILD_SUBREAPER: orphaned grandchildren are reparented here.
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        out = ""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/screp_server.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"{needed} is missing: run from a full source checkout")
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    if not build(build_dir):
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--server", os.path.join(build_dir, "tools", "screp_server"),
               "--out-dir", out_dir]
    code, out = run_benchmark(command)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench printed no result line")
        return 1
    print(lines[-1], flush=True)
    return code if result.get("correct") and code >= 0 else max(code, 1)


if __name__ == "__main__":
    sys.exit(main())
