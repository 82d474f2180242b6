#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perf_e2e/spread.py --workloads serve-small-hot library-isabel --seeds 1-10

Runs `perf_e2e/run.py` once per workload and seed (tracing off, the run
length from BENCHMARK.json) and prints, for each metric, the median of the
runs and the distance between their first and third quartiles as a share
of that median, next to the metric's bound. Quartiles are Python's
`statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, "perf_e2e/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{out.stdout}{out.stderr}")
            runs.append(json.loads(out.stdout.strip().split("\n")[-1])["metrics"])
            print(f"{w} seed {seed} done", file=sys.stderr)
        print(f"## {w} ({len(runs)} seeds)")
        print("| metric | median | IQR/median | bound | IQR/bound | values |")
        print("|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med)
            if name != "setup_s":
                worst = max(worst, spread / bound)
            shown = " ".join(f"{v:.4g}" for v in values)
            print(f"| {name} | {med:.6g} | {spread:.4f} | {bound} | {spread / bound:.2f} | {shown} |")
    print(f"largest IQR/bound outside setup_s: {worst:.2f}")


if __name__ == "__main__":
    main()
