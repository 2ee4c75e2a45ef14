#!/usr/bin/env python3
"""Checks that a perfbench workload's peak RSS does not grow with run length.

Usage (from the repository root):

    python3 tools/rss_flatness.py --workload kv_eager_writes \
        --short 10 --long 60 --tolerance 0.10

Runs `perfbench/run.py --workload W --seed 1 --trace 0` for --short and
then --long seconds and reads `peak_rss_mb` from each run's JSON result
(the last line of its standard output).  Exits 1 when either run fails or
when the two peaks differ by more than --tolerance of the short run's:
memory that is bounded however long a run lasts reads the same at both
lengths, while a store that grows with the run reads higher at the long
one.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb(workload, seconds):
    """Runs one timed perfbench run; returns its peak_rss_mb or None."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"rss flatness: {workload} {seconds} s run failed "
              f"(exit {done.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])["metrics"]["peak_rss_mb"]["value"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--short", type=float, default=10)
    parser.add_argument("--long", type=float, default=60)
    parser.add_argument("--tolerance", type=float, default=0.10)
    args = parser.parse_args()

    short = peak_rss_mb(args.workload, args.short)
    long = peak_rss_mb(args.workload, args.long)
    if short is None or long is None:
        return 1
    change = (long - short) / short
    verdict = "ok" if abs(change) <= args.tolerance else "FAIL"
    print(f"rss flatness {args.workload}: peak_rss_mb {short:.2f} at "
          f"{args.short:g} s, {long:.2f} at {args.long:g} s "
          f"({change:+.1%}, bound {args.tolerance:.0%}): {verdict}")
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
