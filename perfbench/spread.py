#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

Runs the benchmark once per seed on each workload (untraced) and prints,
per metric, the median and the interquartile range as a share of the
median -- the steadiness figure BENCHMARK.json's bounds are checked
against. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads bgp-replay,...]
        [--seconds N] [--json out.json]

The binary is built once with cargo (target directory: CARGO_TARGET_DIR,
default .bench_build).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        check=True, env=env)
    binary = os.path.join(target, "release", "perfbench")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    reports = {}
    receipts = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        reports[workload] = []
        receipts[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            receipt = json.loads(lines[-3])["receipt"]
            reports[workload].append(json.loads(lines[-2])["report"])
            receipts[workload].append(receipt)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: wall {receipt['run_wall_s']:.1f} s, "
                  f"cpu steal {receipt.get('cpu_steal_s', float('nan')):.1f} s, "
                  f"host scale {receipt['reference_s_per_cpu_s']:.3f}", file=sys.stderr)
        runs[workload] = values
        print(f"\n{workload} ({len(args.seeds)} seeds)")
        print(f"  {'metric':<20} {'median':>14} {'iqr/median':>11} {'bound':>6}  verdict")
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:<20} {med:>14.6g} {spread:>11.4f} {bound:>6}  {verdict}")
    if args.json:
        json.dump({"metrics": runs, "reports": reports, "receipts": receipts}, open(args.json, "w"), indent=1)


if __name__ == "__main__":
    main()
