#!/usr/bin/env python3
"""Runs one workload of the PLOS training benchmark.

    python3 perfbench/run.py --workload central_body --seed 7 \
        --seconds 35 --trace 0

Run it from anywhere inside a checkout of the repository. It builds the
library and the benchmark program plos_perfbench from source into
.bench_build/ at the root of the checkout (only the first run compiles
anything), runs the program for the workload, checks that its result
names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end for --trace 0, per_layer for --trace 1) with their units, and
prints that result as the last line of standard output. Build output and
program diagnostics go to standard error. Traced runs also leave a
Chrome-trace JSON of the benchmark's spans and the library's profile JSON
in .bench_build/traces/.

Exit code 0 means the run finished and its result was printed; it does
not mean the trained models passed their checks (see "correct" and
"failed" in the result).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("central_body", "fleet_sync_body", "fleet_async_straggler")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(command, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        fail(f"build step failed: {err}")


def build():
    if not (ROOT / "src" / "core").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run inside a checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", str(BUILD_DIR), "--target", "plos_perfbench",
              "-j", "4"], BUILD_TIMEOUT_S)
    return BUILD_DIR / "plos_perfbench"


def declared_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"plos_perfbench printed no JSON result: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, wrong unit {wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = declared_metrics(args.trace)
    binary = build()
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(TRACE_DIR)]
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"plos_perfbench did not finish within {RUN_TIMEOUT_S} s")
    if completed.returncode != 0:
        fail(f"plos_perfbench exited with code {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        fail("plos_perfbench printed nothing")
    check_result(lines[-1], expected)
    print(lines[-1])


if __name__ == "__main__":
    main()
