#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Runs every workload of BENCHMARK.json at `--scale tiny` (seconds each),
untraced and traced, and checks the output contract:

- the last stdout line is one JSON object with exactly `correct`,
  `attempted`, `failed` and `metrics`, with `correct` true and no failures;
- the metrics are exactly BENCHMARK.json's end-to-end metrics (untraced)
  or per-layer metrics (traced), each with its unit and a finite value;
- the traced run attributes at least 90 % of its wall time;
- the receipt line records the host, toolchain, seed and workload sizes.

Run from the repository root: `python3 perfbench/selftest.py`.
"""

import json
import math
import os
import subprocess
import sys

RECEIPT_KEYS = [
    "git_rev", "rustc", "nproc", "cpu", "workload", "seed", "scale",
    "load_threads", "load_connections", "input_digest", "input_windows",
    "feeds", "partitions",
]


def fail(msg):
    sys.exit(f"selftest: {msg}")


def main():
    bench = json.load(open("BENCHMARK.json"))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        check=True, env=env)
    binary = os.path.join(target, "release", "perfbench")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            what = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", "42", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                fail(f"{what} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{what}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{what}: correct={result['correct']} failed={result['failed']}")
            metrics = result["metrics"]
            if sorted(metrics) != sorted(m["name"] for m in wanted):
                missing = {m["name"] for m in wanted} - set(metrics)
                extra = set(metrics) - {m["name"] for m in wanted}
                fail(f"{what}: missing {sorted(missing)}, unexpected {sorted(extra)}")
            for m in wanted:
                got = metrics[m["name"]]
                if got["unit"] != m["unit"]:
                    fail(f"{what}: {m['name']} in {got['unit']}, BENCHMARK.json says {m['unit']}")
                if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    fail(f"{what}: {m['name']} = {got['value']!r}")
            if trace == 1 and metrics["trace.closure_ratio"]["value"] < 0.9:
                fail(f"{what}: closure {metrics['trace.closure_ratio']['value']:.3f} < 0.9")
            receipt = json.loads(lines[-3])["receipt"]
            absent = [k for k in RECEIPT_KEYS if k not in receipt]
            if absent:
                fail(f"{what}: receipt lacks {absent}")
            print(f"ok  {what}: {len(metrics)} metrics", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
