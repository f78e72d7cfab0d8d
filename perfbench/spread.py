#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, for every metric, its median, the distance between its first and
third quartiles as a share of the median, and the bound BENCHMARK.json
gives it.  A spread at or above a third of the bound is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, failed = {}, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += 0 if result["correct"] else 1
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (0, 0, 0)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "  <-- spread >= bound/3" if bound and spread >= bound / 3 else ""
        print(f"{name:32s} median {med:<14.6g} spread {spread:8.4f} "
              f"bound {bound}{flag}")
        print("    values " + " ".join(f"{v:.6g}" for v in vs))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
