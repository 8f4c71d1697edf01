#!/usr/bin/env python3
"""Smoke test of the perfbench harness at a tiny op count.

Run from the repository root:

    python3 perfbench/smoke.py

It runs the package's unit tests, then every workload with and without
tracing, capped at a few dozen ops, and checks that

- the last line is the result object with exactly the keys `correct`,
  `attempted`, `failed` and `metrics`, the run is correct and no op failed;
- every metric BENCHMARK.json names is there, with its unit, and nothing
  else (end-to-end metrics untraced, per-layer metrics traced), and each
  is also printed on its own line with its unit and sample count;
- the reply oracle fails the run (non-zero exit, `correct: false`) when one
  reply byte is mutated.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["rpc-small", "bulk-16k", "kv-mixed", "session-churn"]
TINY = ["--seed", "3", "--seconds", "1", "--max-ops", "40"]


def run(cmd, expect_ok=True):
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if expect_ok and p.returncode != 0:
        sys.exit(f"smoke: {' '.join(cmd)} exited {p.returncode}\n{p.stdout}\n{p.stderr}")
    return p


def result(p, cmd):
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"smoke: {' '.join(cmd)} printed nothing\n{p.stderr}")
    r = json.loads(lines[-1])
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"smoke: result keys {sorted(r)}")
    return r, lines[:-1]


def check_metrics(r, body, want, workload, positive):
    if set(r["metrics"]) != set(want):
        missing = sorted(set(want) - set(r["metrics"]))
        extra = sorted(set(r["metrics"]) - set(want))
        sys.exit(f"smoke: {workload}: missing {missing}, unexpected {extra}")
    for name, m in r["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            sys.exit(f"smoke: {workload}: {name} is {m}, unit should be {want[name]}")
        if not isinstance(m["value"], (int, float)) or m["value"] < 0:
            sys.exit(f"smoke: {workload}: {name} value {m['value']!r}")
        if positive and m["value"] <= 0:
            sys.exit(f"smoke: {workload}: {name} must not be 0")
        printed = [l for l in body if l.split()[1:2] == [name]]
        if not printed or want[name] not in printed[0] or "n=" not in printed[0]:
            sys.exit(f"smoke: {workload}: {name} not printed with unit and sample count")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    cmd = bench["command"]
    run(["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"])
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            c = cmd + ["--workload", workload, "--trace", trace] + TINY
            r, body = result(run(c), c)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                sys.exit(f"smoke: {workload} trace {trace}: {r}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            check_metrics(r, body, want, workload, positive=(trace == "0"))
        c = cmd + ["--workload", workload, "--trace", "0", "--seed", "3",
                   "--seconds", "1", "--max-ops", "2000", "--corrupt-reply"]
        p = run(c, expect_ok=False)
        r, _ = result(p, c)
        if p.returncode == 0 or r["correct"]:
            sys.exit(f"smoke: {workload}: oracle accepted a mutated reply")
        print(f"smoke: {workload} ok")
    c = cmd + ["--workload", "all", "--trace", "0"] + TINY
    r, _ = result(run(c), c)
    if not r["correct"] or len(r["metrics"]) != len(WORKLOADS) * len(bench["end_to_end"]):
        sys.exit(f"smoke: --workload all: {r}")
    print("smoke: ok")


if __name__ == "__main__":
    main()
