#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke [--binary PATH]

Run from the repository root.  The first call configures and builds the
benchmark (simulator sources plus perfbench/main.cpp) into .bench_build/;
later calls only rebuild what changed.  The output starts with a
provenance header and ends with one JSON line {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.

--smoke runs every workload of BENCHMARK.json at a reduced problem size,
once per trace mode, and checks metric names, units and the correctness
verdict without looking at any timing.  It exits non-zero on a mismatch.

Seeds: DEFAULT_SEED is the one changes are developed against; check a
claimed gain on HOLDOUT_SEED as well.
"""
import argparse
import datetime
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 1
HOLDOUT_SEED = 2


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src").is_dir():
        raise SystemExit(f"perfbench: no simulator sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def no_aslr_prefix():
    """Command prefix that turns address-space randomization off where
    allowed: with it on, set-up time varies by about 20% between processes."""
    cmd = ["setarch", os.uname().machine, "-R"]
    if shutil.which("setarch") and subprocess.run(
            cmd + ["true"], capture_output=True).returncode == 0:
        return cmd
    return []


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def provenance(argv):
    """Enough context to tell a slower box from slower code."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    git = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True) if Path(compiler).exists() else None
    return {
        "git_describe": git.stdout.strip() if git.returncode == 0
        else "unknown (not a git checkout)",
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": version.stdout.splitlines()[0]
        if version and version.returncode == 0 else compiler,
        "nproc": os.cpu_count(),
        "argv": argv,
        "start_time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def problems_with(result, trace):
    """Differences between a result line and BENCHMARK.json."""
    want = expected_metrics(trace)
    got = result.get("metrics", {})
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"unexpected metric {n}" for n in got if n not in want]
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {want[name]}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    if result.get("attempted", 0) < 1:
        problems.append("no run attempted")
    return problems


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns its parsed result line.  Its report (all
    lines before the result) is echoed, except in smoke mode."""
    cmd = no_aslr_prefix() + [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=seconds + 100)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {' '.join(cmd)} exited "
                         f"{proc.returncode}")
    if not smoke:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            result = run_binary(binary, w["name"], DEFAULT_SEED, 0, trace,
                                smoke=True)
            problems = problems_with(result, trace)
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("correctness check failed")
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {w['name']} trace={int(trace)}: {status}")
            bad += bool(problems)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                    f"held-out seed {HOLDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this perfbench binary, no build")
    args = ap.parse_args()

    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        ap.error("--workload is required")
    for key, value in provenance(sys.argv).items():
        print(f"# provenance {key}: {value}")
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    problems = problems_with(result, bool(args.trace))
    for p in problems:
        print(f"# metric check failed: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
