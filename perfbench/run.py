#!/usr/bin/env python3
"""Build and run the dmsched simulator benchmark.

One workload, end-to-end metrics (every wrapper off) or per-layer metrics
(wrapped run, see layers.hpp):

    python3 perfbench/run.py --workload backlog-mem-easy --seed 7 \
        --seconds 20 --trace 0

Every workload, end to end and then traced, in one command:

    python3 perfbench/run.py --workload all --seed 7 --seconds 20

Run from anywhere inside the repository. Each call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/perfbench
under the repository root; after the first call that is incremental. Build
output goes to stderr, so the last stdout line is the result JSON object. The exit status is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["stream-migrate", "backlog-mem-easy", "backlog-conservative"]
# Each simbench call must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(len(os.sched_getaffinity(0)), 8))
    configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "simbench"


def simbench_args(simbench, workload, args, trace):
    return [str(simbench), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]


def run_all(simbench, args):
    """Every workload, end to end then traced; one combined JSON line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})",
                  flush=True)
            proc = subprocess.run(simbench_args(simbench, workload, args, trace),
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{workload}: no result (exit {proc.returncode})",
                      file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics[f"{workload}:{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    try:
        simbench = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(simbench, args)
        return subprocess.run(
            simbench_args(simbench, args.workload, args, args.trace),
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"simbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
