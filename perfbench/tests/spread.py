#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/tests/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs each workload once per seed (seeds first-seed .. first-seed+runs-1)
with `--trace 0` (the bounds apply to end-to-end metrics only) and
prints, per metric, the median and the interquartile range as a share
of the median (Python's statistics.quantiles, n=4), next to the
metric's bound from BENCHMARK.json, followed by its values. Also
checks that every run is correct and that the share of failed
operations is the same in every run. Exits 1 if any spread exceeds its
bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    names = a.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for w in names:
        vals, shares = {}, set()
        for seed in range(a.first_seed, a.first_seed + a.runs):
            out = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not res["correct"]:
                print(f"{w} seed {seed}: rc={out.returncode} correct={res['correct']}")
                print(out.stderr[-2000:])
                bad = True
            shares.add((res["failed"] / res["attempted"]))
            for k, v in res["metrics"].items():
                vals.setdefault(k, []).append(v["value"])
        print(f"== {w}: failed share per run {sorted(shares)}")
        if len(shares) != 1:
            bad = True
        for k in sorted(vals):
            v = vals[k]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            b = bounds.get(k)
            flag = ""
            if b is not None:
                if spread > b:
                    flag, bad = "OVER BOUND", True
                elif spread > b / 3:
                    flag = "over bound/3"
            print(f"  {k:26s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {b if b is not None else '-'}  {flag}")
            print("      " + " ".join(f"{x:.4g}" for x in v))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
