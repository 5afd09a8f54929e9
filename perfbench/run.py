#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_live --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first call configures perfbench/CMakeLists.txt, which compiles the
library sources under src/, into .bench_build/ and builds it; later calls
rebuild incrementally. A workload run prints readable lines and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics; it exits non-zero when an output check fails. --smoke runs every
workload in a small configuration, untraced and traced, and checks that
each passes its output check and prints exactly the metrics
BENCHMARK.json declares. perfbench/README.md describes the workloads.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("serve_live", "serve_catchup", "batch_fleet")


def build_step(cmd):
    """Runs one build command with its output on stderr, so the last line
    of stdout stays the result."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} failed with {done.returncode}")


def build():
    """Configures (once) and builds the benchmark; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found; run from the "
                 "repository root")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        build_step(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"])
    build_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", jobs])
    return os.path.join(BUILD_DIR, "perfbench")


def smoke(binary):
    """The benchmark's own test: every workload, small, both modes."""
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[key]}
            cmd = [binary, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=170)
            problems = []
            if done.returncode != 0:
                problems.append(f"exit code {done.returncode}")
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"]:
                    problems.append("output check failed")
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if got != want:
                    problems.append(
                        f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(want)) or 'units'}")
            except (IndexError, ValueError, KeyError, TypeError) as e:
                problems.append(f"no result line ({e})")
            failures += bool(problems)
            print(f"{workload} trace={trace}: "
                  f"{'; '.join(problems) if problems else 'ok'}", flush=True)
    print("smoke: " + ("FAILED" if failures else "all ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required (or --smoke)")

    binary = build()
    if args.smoke:
        return smoke(binary)
    # Exec, so the benchmark is this process: nothing is left running.
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
