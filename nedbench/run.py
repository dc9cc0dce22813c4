#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 nedbench/run.py --workload paper-mix|wire-mix|wire-repeat \
        --seed N --seconds S --trace 0|1 [--inject FAULT]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under nedbench/, configured once and rebuilt incrementally;
its output goes to stderr. The last line on stdout is the JSON
result. The exit code is non-zero when the build fails or an answer fails
a check. The benchmark and the ned_serve it starts run with address-space
randomization off for their own processes (personality(2)), so that two
runs of the same binary share one memory layout.
"""

import argparse
import ctypes
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-mix", "wire-mix", "wire-repeat")
TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "nedbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs,
                        "--target", "nedbench", "nedbench_serve"],
                       stdout=sys.stderr, check=True)


def no_aslr():
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--inject", default="")
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"nedbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "nedbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.inject:
        cmd += ["--inject", args.inject]
    # Its own process group, so a timeout also stops the ned_serve it runs.
    proc = subprocess.Popen(cmd, preexec_fn=no_aslr, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("nedbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
