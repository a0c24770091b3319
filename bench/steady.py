"""Steadiness test: do two sets of runs of one commit agree?

    python3 bench/steady.py

For each workload in BENCHMARK.json, runs ``bench/run.py --trace 0``
RUNS times in each of SETS sets, every run with another seed, for the ``run_seconds`` that
BENCHMARK.json fixes.  For every end-to-end metric it prints each
set's median and spread (the distance between the first and third
quartile, as a share of the median) and the drift of each later
set's median from the first one's.

Exits 1 when a run fails its checks, when a spread exceeds the
metric's bound, or when a median is worse than the
first set's by more than the bound.  Spreads at or above a third of
the bound are flagged as thin margins.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10
SETS = 2


def run_once(workload, seed):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        sets = []
        for k in range(SETS):
            results = []
            for i in range(RUNS):
                result = run_once(workload, 1 + k * RUNS + i)
                if not result["correct"] or result["failed"]:
                    print(f"{workload}: run failed {result['failed']} checks")
                    ok = False
                results.append(result)
            sets.append(results)
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                median = statistics.median(values)
                medians.append(median)
                s = spread(values)
                flag = ""
                if s > bound:
                    flag = "  SPREAD OVER BOUND"
                    ok = False
                elif s >= bound / 3:
                    flag = "  thin margin"
                print(
                    f"{workload:8} {name:12} set{k + 1} median={median:.6g} "
                    f"spread={s:.4f} bound={bound}{flag}"
                )
            for k, median in enumerate(medians[1:], start=2):
                sign = 1 if metric["better"] == "lower" else -1
                drift = sign * (median - medians[0]) / medians[0]
                flag = ""
                if drift > bound:
                    flag = "  DRIFT OVER BOUND"
                    ok = False
                print(f"{workload:8} {name:12} set{k} drift={drift:+.4f}{flag}")
        sys.stdout.flush()
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
