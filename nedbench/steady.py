#!/usr/bin/env python3
"""Steadiness check: the local form of the benchmark's acceptance test.

    python3 nedbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 100]

For each workload it makes two sets of runs at separate times (set A of
every workload first, then set B; never interleaved), each run with its own
seed. Per end-to-end metric it prints, for each set, the median and the
spread (interquartile range over median, statistics.quantiles(n=4)), and
the shift of B's median from A's in the metric's worse direction. A metric
passes when both spreads and the shift stay within the bound in
BENCHMARK.json, setup_s included; the share of failed operations must be identical
in the two sets. Exits non-zero when anything fails. Run from the root of
a checkout. Every run's result line and raw stderr figures are saved to
.bench_runs/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["raw"] = [l for l in proc.stderr.splitlines() if l.startswith("nedbench: raw")]
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])

    sets = {}
    for label, offset in (("A", 0), ("B", 10_000)):
        for workload in workloads:
            results = []
            for i in range(args.runs):
                results.append(run_once(bench, workload, args.seed_base + offset + i))
                print(f"set {label} {workload} run {i + 1}/{args.runs}",
                      file=sys.stderr)
            sets[(label, workload)] = results
    out_dir = os.path.join(ROOT, ".bench_runs")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(out, "w") as f:
        json.dump({f"{label} {w}": r for (label, w), r in sets.items()}, f, indent=1)
    print(f"runs saved to {out}")

    ok = True
    for workload in workloads:
        a, b = sets[("A", workload)], sets[("B", workload)]
        fail_a = {r["failed"] / r["attempted"] for r in a}
        fail_b = {r["failed"] / r["attempted"] for r in b}
        same_failed = fail_a == fail_b and len(fail_a) == 1
        ok &= same_failed and all(r["correct"] for r in a + b)
        print(f"== {workload}: failed share A={sorted(fail_a)} B={sorted(fail_b)}"
              f" {'ok' if same_failed else 'DIFFERS'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            shift = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            good = shift <= bound and max(sa, sb) <= bound
            ok &= good
            print(f"  {name:24s} bound {bound:.3f} | A median {ma:.6g} spread {sa:.4f}"
                  f" | B median {mb:.6g} spread {sb:.4f} | worse-shift {shift:+.4f}"
                  f" {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
