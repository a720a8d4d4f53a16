#!/usr/bin/env python3
"""Steadiness check for the benchmark itself, the way the driver does it.

Runs the BENCHMARK.json command N times (default 10) per workload, each
time with another --seed, and prints for every end-to-end metric the
distance between the first and third quartile of its N values as a share
of their median, next to the metric's bound. A spread above a third of the
bound is flagged: fix the measurement (longer window, more work per run),
never the bound.

Run from the repository root:  python3 benchmark/check_spread.py [N] [workload ...]

Set NESTMARK_BIN to an already built nestmark binary to run that instead of
the BENCHMARK.json command (`cargo run` rebuilds whenever a source file
changed, which disturbs a series measured while editing).
"""
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    wanted = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in wanted:
        values = {name: [] for name in bounds}
        for seed in range(1, runs + 1):
            program = [os.environ["NESTMARK_BIN"]] if "NESTMARK_BIN" in os.environ else spec["command"]
            cmd = program + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            started = time.time()
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed ops")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shown = " ".join(f"{result['metrics'][n]['value']:.4g}" for n in bounds)
            print(f"# {workload} seed {seed}: {time.time() - started:.1f} s wall: {shown}", flush=True)
        print(f"{workload}:")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                flagged += 1
            print(f"  {name:22} median {med:12.4f}  spread {spread:7.2%}  bound {bounds[name]:6.1%}{flag}")
    print(f"{flagged} metric(s) above a third of their bound")


if __name__ == "__main__":
    main()
