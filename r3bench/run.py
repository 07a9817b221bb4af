"""The repository's benchmark: campaigns and simulations, end to end.

Usage (from the root of a checkout)::

    python3 r3bench/run.py --workload campaign_cold --seed 1 --seconds 25 --trace 0

Runs rounds of one workload in this process until ``--seconds`` would be
overrun (at least one round), then prints every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``) as the last line
of standard output, one JSON object::

    {"correct": true, "attempted": 180, "failed": 0, "metrics": {...}}

Each metric is the median over the run's rounds.  Host times are in
reference seconds: host seconds scaled to a reference host speed by a
calibration loop sampled while the round runs (see ``hostspeed.py``); the
record keeps the raw host seconds too.  With ``--trace 1`` rounds
alternate untraced and traced; per-layer metrics come from the traced ones
and ``tracing.overhead_ratio`` compares the two.  A record with the run's
context (commit, source digest, host, per-round samples with median and
IQR) is printed before the result and appended to
``.bench_build/r3bench/records.jsonl``; traced runs also write their spans
under ``.bench_build/r3bench/traces/``.

``--record`` runs one untraced round per named workload with the default
seed and rewrites that workload's digests in ``data/digests.json``; use it
only after a deliberate change to the simulated model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
DIGESTS = HERE / "data" / "digests.json"
DEFAULT_SEED = 1

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("sim_ips", "inst/s"),
    ("cells_per_s", "1/s"), ("peak_rss_mb", "MB"), ("ok_share", "ratio"),
    ("r3_speedup", "ratio"), ("dla_speedup", "ratio"), ("bl_ipc", "inst/cycle"),
)

#: (name, unit) of every per-layer metric, in output order.
PER_LAYER = (
    ("workloads.build_kernel.self_s", "s"),
    ("emulator.run.self_s", "s"),
    ("emulator.insts_per_s", "inst/s"),
    ("dla.profiling.profile_workload.self_s", "s"),
    ("core.pipeline.reference_runs", "count"),
    ("core.pipeline.reference_s", "s"),
    ("core.compile.kernel_build_s", "s"),
    ("core.compile.get_decoded.self_s", "s"),
    ("core.compile.decoded_hit_ratio", "ratio"),
    ("core.compile.run.self_s", "s"),
    ("core.compile.fallbacks", "count"),
    ("core.compile.compiled_ticks", "inst"),
    ("core.system.warm.self_s", "s"),
    ("core.system.warm_memo_hit_ratio", "ratio"),
    ("memory.access.calls", "count"),
    ("memory.access.self_s", "s"),
    ("memory.prefetch.self_s", "s"),
    ("prefetch.observe.calls", "count"),
    ("prefetch.observe.self_s", "s"),
    ("dla.hints.self_s", "s"),
    ("dla.system.simulate.self_s", "s"),
    ("memory.resources.self_s", "s"),
    ("memory.mshr_stall_cycles", "cycles"),
    ("memory.write_buffer_stall_cycles", "cycles"),
    ("memory.dram_queue_stall_cycles", "cycles"),
    ("memory.contention_stall_share", "ratio"),
    ("dla.recycle.plan.self_s", "s"),
    ("dla.skeleton.build.self_s", "s"),
    ("experiments.cache.get.calls", "count"),
    ("experiments.cache.get.hits", "count"),
    ("experiments.cache.get.bytes", "B"),
    ("experiments.cache.get.self_s", "s"),
    ("experiments.cache.put.calls", "count"),
    ("experiments.cache.put.bytes", "B"),
    ("experiments.cache.put.self_s", "s"),
    ("experiments.fingerprint.calls", "count"),
    ("experiments.fingerprint.self_s", "s"),
    ("campaign.overhead_s", "s"),
    ("campaign.telemetry.self_s", "s"),
    ("campaign.render.self_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.insts", "inst"),
    ("memory.l1d_mpki", "1/kinst"),
    ("memory.l2_mpki", "1/kinst"),
    ("memory.l3_mpki", "1/kinst"),
    ("branch.mpki", "1/kinst"),
    ("prefetch.drop_ratio", "ratio"),
    ("tracing.overhead_ratio", "ratio"),
)

#: End-to-end metrics fixed by the simulated model (must repeat exactly).
SIMULATED = ("r3_speedup", "dla_speedup", "bl_ipc")

NOTES = (
    "model: unvalidated. No measurements from real hardware exist in this "
    "repository, so no error figure is given for any simulated metric.",
    "warm-up: modelled caches are warmed by each cell's warm-up window "
    "before statistics start.",
)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", nargs="+", metavar="WORKLOAD",
                        help="rewrite the recorded digests of these workloads")
    parser.add_argument("--prefill", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles(n=4)``) of samples."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "iqr": 0.0}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def host_fingerprint() -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = None
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "python": platform.python_version(), "cc": cc}


def commit_of(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root),
                                   capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def load_digests() -> Dict[str, Dict[str, str]]:
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {}


def measure(checkout, workload: str, seed: int, seconds: float, trace: bool,
            run_id: str):
    """Rounds until the next one would overrun ``seconds`` (at least one;
    with ``trace``, at least one untraced and one traced)."""
    import bench

    warm_cache = None
    if workload == "campaign_warm":
        warm_cache = checkout.warm_cache(HERE / "run.py")
    rounds = []
    started = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(bench.run_round(checkout, workload, seed, traced, run_id,
                                      warm_cache))
        elapsed = time.perf_counter() - started
        if trace and len(rounds) < 2:
            continue
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def evaluate(rounds, expected: Dict[str, str]):
    """(correct, attempted, failed, problems) over every round's cells."""
    attempted = failed = 0
    problems: List[str] = []
    for index, result in enumerate(rounds):
        for cell, digest in sorted(result.digests.items()):
            attempted += 1
            reason = result.failures.get(cell)
            if reason is None and expected.get(cell) != digest:
                reason = f"digest {digest} != recorded {expected.get(cell)}"
            if reason is not None:
                failed += 1
                problems.append(f"round {index}: {cell}: {reason}")
        missing = [cell for cell in result.failures if cell not in result.digests]
        attempted += len(missing)
        failed += len(missing)
        problems.extend(f"round {index}: {cell}: {result.failures[cell]}"
                        for cell in missing)
        if set(expected) - set(result.digests) - set(result.failures):
            problems.append(f"round {index}: recorded cells were not run")
    first = rounds[0].simulated
    if any(result.simulated != first for result in rounds[1:]):
        problems.append("simulated metrics differ between rounds")
    correct = failed == 0 and not problems
    return correct, attempted, failed, problems


def end_to_end(rounds, attempted: int, failed: int,
               table_kib: int) -> Dict[str, List[float]]:
    """Per-round samples; host times in reference seconds (see hostspeed).

    The peak resident memory leaves out ``table_kib``, the calibration
    table's share, which is resident from before the first round.
    """
    samples: Dict[str, List[float]] = {name: [] for name, _unit in END_TO_END}
    for result in rounds:
        samples["wall_s"].append(result.wall_s)
        samples["setup_s"].append(result.setup_s)
        samples["sim_ips"].append(result.sim_insts / result.sim_seconds
                                  if result.sim_seconds else 0.0)
        samples["cells_per_s"].append(result.cells / result.wall_s)
        for name in SIMULATED:
            samples[name].append(result.simulated[name])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - table_kib
    samples["peak_rss_mb"].append(peak_kib / 1024.0)
    samples["ok_share"].append((attempted - failed) / attempted if attempted else 0.0)
    return samples


def host_samples(rounds) -> Dict[str, List[float]]:
    """Raw host seconds and speed factors per round, for the record."""
    return {
        **{name: [result.raw[name] for result in rounds]
           for name in ("wall_s", "cpu_s", "setup_s", "sim_s")},
        "factor": [result.factor for result in rounds],
        "lookups_s": [result.calibration_s[0] for result in rounds],
        "arithmetic_s": [result.calibration_s[1] for result in rounds],
        "traced": [result.traced for result in rounds],
    }


def per_layer(rounds, kernel_build_s: float) -> Dict[str, List[float]]:
    traced = [result for result in rounds if result.traced]
    untraced = [result for result in rounds if not result.traced]
    samples: Dict[str, List[float]] = {name: [] for name, _unit in PER_LAYER}
    for result in traced:
        for name, _unit in PER_LAYER:
            if name in result.layers:
                samples[name].append(result.layers[name])
    samples["core.compile.kernel_build_s"] = [kernel_build_s]
    samples["tracing.overhead_ratio"] = [
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced)
    ]
    return samples


def record_digests(checkout, workloads: List[str]) -> None:
    import bench

    digests = load_digests()
    for workload in workloads:
        warm_cache = (checkout.warm_cache(HERE / "run.py")
                      if workload == "campaign_warm" else None)
        result = bench.run_round(checkout, workload, DEFAULT_SEED, False,
                                 "record", warm_cache)
        if result.failures:
            raise SystemExit(f"{workload}: cells failed: {result.failures}")
        digests[workload] = dict(sorted(result.digests.items()))
        print(f"{workload}: recorded {len(result.digests)} cell digests")
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    import bench
    from hostspeed import build_table

    root = Path.cwd()
    try:
        checkout = bench.Checkout(root)
    except bench.BenchError as error:
        print(f"r3bench: {error}", file=sys.stderr)
        return 2
    if args.prefill:
        bench.prefill(Path(args.prefill))
        return 0
    table_kib = build_table()
    kernel_build_s = checkout.prepare_kernel()
    if args.record:
        record_digests(checkout, args.record)
        return 0
    if args.workload not in bench.WORKLOADS:
        print(f"r3bench: --workload must be one of {', '.join(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2

    guarded = checkout.guarded_paths()
    run_id = uuid.uuid4().hex[:12]
    rounds = measure(checkout, args.workload, args.seed, args.seconds,
                     bool(args.trace), run_id)
    expected = load_digests().get(args.workload, {})
    correct, attempted, failed, problems = evaluate(rounds, expected)
    if checkout.guarded_paths() != guarded:
        correct = False
        problems.append("the repository's .repro_cache/ or "
                        "BENCH_sim_throughput.json was written")

    e2e = end_to_end([r for r in rounds if not r.traced], attempted, failed,
                     table_kib)
    samples = per_layer(rounds, kernel_build_s) if args.trace else e2e
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": summarize(values)["median"], "unit": units[name]}
               for name, values in samples.items()}

    from repro.experiments.fingerprint import code_salt

    record = {
        "benchmark": "r3bench", "run_id": run_id, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit_of(root), "source_digest": code_salt(),
        "host": host_fingerprint(), "rounds": len(rounds),
        "calibration_table_kib": table_kib,
        "traced_rounds": sum(1 for r in rounds if r.traced),
        "samples": samples, "host_seconds": host_samples(rounds),
        "summary": {name: summarize(values) for name, values in samples.items()},
        "end_to_end": {name: summarize(values)["median"] for name, values in e2e.items()},
        "problems": problems, "notes": list(NOTES),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    checkout.work.mkdir(parents=True, exist_ok=True)
    with open(checkout.work / "records.jsonl", "a") as ledger:
        ledger.write(json.dumps(record, sort_keys=True) + "\n")
    for index, round_ in enumerate(rounds):
        if round_.traced:
            round_.tracer.write(
                checkout.work / "traces" / f"{args.workload}-{run_id}-{index}.jsonl",
                {key: record[key] for key in ("workload", "seed", "commit",
                                              "source_digest", "host")})
    for note in NOTES:
        print(f"note: {note}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
