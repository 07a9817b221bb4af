"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the root of a checkout)::

    python3 r3bench/steadiness.py

Runs ``r3bench/run.py`` for ``run_seconds`` of ``BENCHMARK.json`` once per
(set, seed, workload): :data:`SETS` sets of :data:`SEEDS` seeds over every
workload, seeds interleaved across workloads so host drift hits every
workload alike.  For every
end-to-end metric of every workload it reports, per set, the median and
the quartile spread ``(q3 - q1) / median`` of the runs
(``statistics.quantiles(values, n=4)``), and passes when

* every spread is within the metric's bound in ``BENCHMARK.json``;
* no set's median differs from the first set's, better or worse, by more
  than the bound;
* every run is correct with ``ok_share`` 1.0 and the simulated metrics are
  identical across all runs of a workload.

Exit status 0 on pass, 1 on fail.  The per-run results are written to
``.bench_build/r3bench/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

SIMULATED = ("ok_share", "r3_speedup", "dla_speedup", "bl_ipc")
SETS = 2
SEEDS = 10


def spread(values: List[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def differs_by(first: float, second: float) -> float:
    """How far ``second`` is from ``first``, as a share of ``first``."""
    return abs(second - first) / abs(first) if first else 0.0


def judge(benchmark: Dict[str, object],
          runs: Dict[str, List[List[dict]]]) -> List[str]:
    """Failures of ``runs[workload][set] -> [result, ...]`` against the bounds."""
    failures: List[str] = []
    for workload, sets in runs.items():
        for set_index, results in enumerate(sets):
            for index, result in enumerate(results):
                if not result.get("correct") or result.get("failed"):
                    failures.append(f"{workload} set {set_index} run {index}: not correct")
        flat = [result for results in sets for result in results]
        for name in SIMULATED:
            values = {result["metrics"][name]["value"] for result in flat}
            if len(values) > 1:
                failures.append(f"{workload}: {name} differs across runs: {sorted(values)}")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, results in enumerate(sets):
                values = [result["metrics"][name]["value"] for result in results]
                medians.append(statistics.median(values))
                if spread(values) > bound:
                    failures.append(
                        f"{workload} set {set_index}: {name} spread "
                        f"{spread(values):.4f} > bound {bound}")
            for set_index, median in enumerate(medians[1:], start=1):
                change = differs_by(medians[0], median)
                if change > bound:
                    failures.append(
                        f"{workload} set {set_index}: {name} median differs by "
                        f"{change:.4f} > bound {bound}")
    return failures


def report(benchmark: Dict[str, object], runs: Dict[str, List[List[dict]]]) -> None:
    for workload, sets in runs.items():
        print(f"{workload}:")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            cells = []
            for results in sets:
                values = [result["metrics"][name]["value"] for result in results]
                cells.append(f"median {statistics.median(values):.6g} "
                             f"spread {spread(values):.4f}")
            print(f"  {name:12s} bound {metric['bound']:<6} " + " | ".join(cells))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "r3bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": 1, "error": completed.stderr[-2000:]}


def main() -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    runs: Dict[str, List[List[dict]]] = {name: [] for name in names}
    for set_index in range(SETS):
        for name in names:
            runs[name].append([])
        for seed in range(1 + set_index * SEEDS, 1 + (set_index + 1) * SEEDS):
            for name in names:
                result = run_once(name, seed, benchmark["run_seconds"])
                runs[name][set_index].append(result)
                wall = result.get("metrics", {}).get("wall_s", {}).get("value")
                print(f"set {set_index} seed {seed} {name}: "
                      f"correct={result.get('correct')} wall_s={wall}", flush=True)
    out = Path(".bench_build/r3bench/steadiness.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    report(benchmark, runs)
    failures = judge(benchmark, runs)
    for failure in failures:
        print(f"FAIL {failure}")
    print("steady" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
