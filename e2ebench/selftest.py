#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at tiny scale (about a minute).

    python3 e2ebench/selftest.py [--binary PATH]

Without --binary it builds the harness the way run.py does. For every
workload it checks that an untraced and a traced run succeed and print
every metric BENCHMARK.json names, with its unit; that two traced runs
with one seed repeat the exact counts and group_f1 exactly, and that
another seed changes them; and that README.md documents every metric.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own runner)

WORKLOADS = ["stream_companies_lm", "shard_securities_id",
             "serve_reads_under_updates"]
# Counts that must repeat exactly for one seed (the Exact column of README.md).
EXACT = ["matching.pairs", "stream.cache_hits", "stream.cache_evictions",
         "stream.candidates_added", "stream.candidates_removed",
         "core.components_rebuilt", "core.components_reused",
         "blocking.delta_pairs", "serve.epochs", "serve.checkpoint_bytes"]


def run_once(binary, out_dir, workload, seed, trace):
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", "3", "--trace", str(trace), "--scale", "tiny",
               "--out-dir", out_dir]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    label = f"{workload} seed {seed} trace {trace}"
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}"
    assert lines, f"{label}: no result line"
    problems = run.check_result(lines[-1], trace == 1)
    assert not problems, f"{label}: {problems}"
    result = json.loads(lines[-1])
    assert result["correct"] is True, f"{label}: incorrect"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default=None)
    args = parser.parse_args()
    binary = Path(args.binary) if args.binary else run.BINARY
    if args.binary is None and not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    readme = (run.BENCH_DIR / "README.md").read_text()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert f"`{metric['name']}`" in readme, \
            f"README.md does not document {metric['name']}"
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS

    with tempfile.TemporaryDirectory() as out_dir:
        for workload in WORKLOADS:
            untraced = run_once(binary, out_dir, workload, 7, 0)
            traced = run_once(binary, out_dir, workload, 7, 1)
            again = run_once(binary, out_dir, workload, 7, 1)
            other = run_once(binary, out_dir, workload, 8, 1)
            same_f1 = run_once(binary, out_dir, workload, 7, 0)["group_f1"]
            exact = [traced[name] for name in EXACT]
            assert exact == [again[name] for name in EXACT], \
                f"{workload}: exact counts differ between equal seeds"
            assert exact != [other[name] for name in EXACT], \
                f"{workload}: another seed left every exact count unchanged"
            assert untraced["group_f1"] == same_f1, \
                f"{workload}: group_f1 differs between equal seeds"
            print(f"selftest: {workload}: ok")
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
