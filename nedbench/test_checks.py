#!/usr/bin/env python3
"""Tests of the benchmark's own checks: each shows that a check can fail.

    python3 nedbench/test_checks.py

Each case runs one short run with --inject, which corrupts one answer (or
one response key) after the program produced it and before the benchmark
checks it. The run must exit non-zero. A clean run of each workload must
exit 0 with correct=true, so the failures come from the injected faults.
Run from the root of a checkout; builds the benchmark first if needed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CASES = [
    # (workload, fault): which check must catch it
    ("paper-mix", "drop-condensed"),  # condensed set vs the oracle, Def. 2.13
    ("paper-mix", "drop-detailed"),   # detailed set vs the oracle
    ("wire-mix", "wrong-dir"),        # |Dir| vs the oracle
    ("wire-mix", "drop-condensed"),
    ("wire-repeat", "crossed-key"),   # each response carries its request's key
    ("wire-repeat", "wrong-dir"),
]


def run(workload, inject=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)


def main():
    failures = 0
    for workload in ("paper-mix", "wire-mix", "wire-repeat"):
        proc = run(workload)
        lines = proc.stdout.strip().splitlines()
        ok = proc.returncode == 0 and lines and json.loads(lines[-1])["correct"]
        print(f"{'PASS' if ok else 'FAIL'} clean {workload}")
        failures += not ok
    for workload, fault in CASES:
        proc = run(workload, fault)
        caught = proc.returncode != 0 and "CHECK FAILED" in proc.stderr
        print(f"{'PASS' if caught else 'FAIL'} {workload} --inject {fault}"
              f" (exit {proc.returncode})")
        failures += not caught
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
