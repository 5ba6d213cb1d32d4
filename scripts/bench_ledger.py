#!/usr/bin/env python3
"""Append this checkout's perf row to bench/LEDGER.md.

    scripts/bench_ledger.py --pr N [--dry-run]

For every workload in BENCHMARK.json it runs
`python3 perfbench/run.py --workload W --seed S --seconds T` once per seed
S in 1-3, with T = BENCHMARK.json's run_seconds, so every row is measured
the same way. It fails, writing nothing, if any run exits non-zero or reports
`correct: false` or `failed > 0`. Otherwise it appends one table row to
bench/LEDGER.md: the PR number, the commit (`+dirty` when src/, tools/ or
perfbench/ differ from it), nproc and compiler from the perfbench record,
and per workload the median over the seeds of latency_ms_p10, peak_rss_mb
and setup_s, then the seeds and the bench-smoke speedup ratios read from
the BENCH_*.json files at the repository root (the perf harnesses write
them to their working directory; run them from the root first). --dry-run
prints the row instead.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join("bench", "LEDGER.md")
CELL_METRICS = ("latency_ms_p10", "peak_rss_mb", "setup_s")
SEEDS = (1, 2, 3)


def run_workload(workload, seed, seconds):
    """Returns (result, record): perfbench's last two stdout lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("bench_ledger: %s seed %d failed (exit %d)\n%s"
                 % (workload, seed, proc.returncode, proc.stderr))
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    if not result["correct"] or result["failed"] > 0:
        sys.exit("bench_ledger: %s seed %d: correct=%s, %d failed operations"
                 % (workload, seed, result["correct"], result["failed"]))
    return result, record


def commit_label():
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "tools", "perfbench"],
        capture_output=True, text=True).stdout.strip()
    return head + ("+dirty" if dirty else "")


def speedup_ratios():
    ratios = []
    for path in sorted(glob.glob("BENCH_*.json")):
        with open(path) as f:
            doc = json.load(f)
        for rec in doc.get("records", []):
            if "speedup" in rec["name"]:
                ratios.append("%s %s %.2fx" % (doc["bench"], rec["name"],
                                                rec["value"]))
    return "; ".join(ratios) if ratios else "none recorded"


def fmt(metric, value):
    if metric == "latency_ms_p10":
        return "%.4f" % value if value < 1 else "%.1f" % value
    if metric == "peak_rss_mb":
        return "%.2f" % value
    return "%.3f" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    cells, env = [], None
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m: [] for m in CELL_METRICS}
        for seed in SEEDS:
            result, record = run_workload(workload, seed, seconds)
            env = record["environment"]
            for m in CELL_METRICS:
                values[m].append(result["metrics"][m]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%s" % (m, fmt(m, values[m][-1])) for m in CELL_METRICS)),
                file=sys.stderr)
        cells.append(" / ".join(fmt(m, statistics.median(values[m]))
                                for m in CELL_METRICS))

    row = "| %d | %s | %d | %s | %s | %s | %s |" % (
        args.pr, commit_label(), env["nproc"], env["compiler"],
        " | ".join(cells), ",".join(str(s) for s in SEEDS), speedup_ratios())
    if args.dry_run:
        print(row)
        return 0
    with open(LEDGER, "a") as f:
        f.write(row + "\n")
    print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
