#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run configures and builds the
harness (e2ebench/CMakeLists.txt, which builds the gralmatch libraries from
this tree) under .bench_build/; later runs only rebuild what changed. The
harness's stdout is checked and relayed: its last line is one JSON object
with the keys correct, attempted, failed and metrics, whose metric names
and units must match BENCHMARK.json (end_to_end untraced, per_layer with
--trace 1). Exit codes: the harness's own (0 ok, 1 correctness mismatch,
2 bad arguments), 3 for a missing source tree or failed build, 4 for a
result line that does not match BENCHMARK.json, 5 for a run that takes
longer than run_timeout(--seconds).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "e2ebench"
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_timeout(seconds):
    """Seconds one harness run may take. Set-up, training and checks run
    outside --seconds and take up to about 30 s at the committed sizes;
    a run spends up to about 1.3x --seconds in its measured part."""
    try:
        return 60 + 3 * int(seconds)
    except ValueError:
        return 60  # the harness rejects the argument itself


def build():
    """Configures (once) and builds the harness; returns False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no gralmatch source tree at {ROOT}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "e2ebench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return BINARY.is_file()


def expected_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json expects, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns a list of problems with the harness's result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    expected = expected_metrics(trace)
    if expected is not None:
        printed = {name: entry.get("unit") for name, entry in metrics.items()}
        if printed != expected:
            missing = sorted(set(expected) - set(printed))
            extra = sorted(set(printed) - set(expected))
            units = sorted(n for n in set(printed) & set(expected)
                           if printed[n] != expected[n])
            problems.append(f"metrics differ from BENCHMARK.json: missing "
                            f"{missing}, extra {extra}, wrong units {units}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = parser.parse_args()

    if not build():
        return 3
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--scale", args.scale, "--out-dir", str(OUT_DIR)]
    timeout = run_timeout(args.seconds)
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"the harness did not finish within {timeout} s")
        return 5
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"the harness printed no result (exit {done.returncode})")
        return done.returncode or 4
    problems = check_result(lines[-1], args.trace == "1")
    if problems:
        for problem in problems:
            log(problem)
        return 4
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
