#!/usr/bin/env python3
"""Repeats benchmark runs and summarizes their spread.

    python3 perfbench/steadiness.py run OUT.jsonl --workload central_body \
        --seeds 1 2 3 --trace 0
    python3 perfbench/steadiness.py report OUT.jsonl [MORE.jsonl ...]

`run` calls perfbench/run.py once per seed with BENCHMARK.json's
run_seconds and appends one JSON line per run: workload, seed, trace,
exit code, wall seconds, UTC start time and the run's result object.

`report` prints, per input file and workload, a Markdown table with each
metric's run count, median, first and third quartile
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
for end-to-end metrics the bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args):
    spec = load_spec()
    with open(args.out, "a") as out:
        for seed in args.seeds:
            start = time.time()
            completed = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = completed.stdout.strip().splitlines()
            record = {
                "workload": args.workload, "seed": seed, "trace": args.trace,
                "exit": completed.returncode,
                "wall_s": round(time.time() - start, 2),
                "started": time.strftime("%H:%M:%S", time.gmtime(start)),
                "result": json.loads(lines[-1]) if lines else None,
            }
            out.write(json.dumps(record) + "\n")
            out.flush()


def report(args):
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    for path in args.files:
        by_workload = {}
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            by_workload.setdefault(record["workload"], []).append(record)
        for workload, records in by_workload.items():
            ok = [r for r in records if r["exit"] == 0 and r["result"]]
            seeds = " ".join(str(r["seed"]) for r in records)
            attempted = sum(r["result"]["attempted"] for r in ok)
            failed = sum(r["result"]["failed"] for r in ok)
            print(f"### {Path(path).name}: {workload}\n")
            print(f"{len(ok)} of {len(records)} runs printed a result "
                  f"(seeds {seeds}); {failed} of {attempted} checked "
                  f"training calls failed.\n")
            print("| metric | unit | runs | median | q1 | q3 | spread "
                  "| bound |")
            print("|---|---|---|---|---|---|---|---|")
            names = list(ok[0]["result"]["metrics"]) if ok else []
            for name in names:
                values = [r["result"]["metrics"][name]["value"] for r in ok]
                unit = ok[0]["result"]["metrics"][name]["unit"]
                median = statistics.median(values)
                if len(values) > 1:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                else:
                    q1 = q3 = values[0]
                spread = (q3 - q1) / median if median else 0.0
                bound = bounds.get(name, "")
                print(f"| {name} | {unit} | {len(values)} | {median:.6g} "
                      f"| {q1:.6g} | {q3:.6g} | {spread:.4f} | {bound} |")
            print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run")
    run_parser.add_argument("out")
    run_parser.add_argument("--workload", required=True)
    run_parser.add_argument("--seeds", required=True, type=int, nargs="+")
    run_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    report_parser = commands.add_parser("report")
    report_parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    if args.command == "run":
        run(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
