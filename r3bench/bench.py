"""Workload rounds: one unit of measured work per benchmark workload.

A round always starts from fresh interpreter-level state of the ``repro``
package: every ``repro.*`` module is dropped from ``sys.modules`` and
imported again, so process-wide memos (prepared setups, traces, warmed
caches, decoded windows) from an earlier round cannot make a "cold" round
warm.  Each round also gets its own ``REPRO_CACHE_DIR`` inside the
checkout's ``.bench_build/r3bench/tmp/``, with the prebuilt compiled kernel
copied in before timing starts.  The repository's own ``.repro_cache/`` and
``BENCH_sim_throughput.json`` are never written.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import programs
from hostspeed import HostSpeed
from tracer import METER_LAYERS, TRACE_LAYERS, Tracer

WORKLOADS = ("campaign_cold", "campaign_warm", "sim_long", "memsys_contended")

#: (campaign, quick mode) per campaign workload.
CAMPAIGNS = {
    "campaign_cold": (("fig09", True), ("fig13", True)),
    "campaign_warm": (("fig09", False),),
}

#: Machine each simulation workload runs on (``None``: the default one).
MACHINES = {"sim_long": None, "memsys_contended": "contended"}

VARIANTS = ("bl", "dla", "r3")


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


# ----------------------------------------------------------------------
# environment and isolation
# ----------------------------------------------------------------------
def pin_environment(cache_dir: Path) -> None:
    """One cache directory, one process, disk cache on, no other knobs."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_PROCESSES"] = "1"
    os.environ["REPRO_DISK_CACHE"] = "1"


def fresh_repro() -> None:
    """Forget every loaded ``repro`` module (and its process-wide memos)."""
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]
    gc.collect()


class Checkout:
    """Paths the benchmark may write: all under ``.bench_build/r3bench``."""

    def __init__(self, root: Path) -> None:
        self.root = root
        if not (root / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro sources under {root / 'src'}")
        self.work = root / ".bench_build" / "r3bench"
        self.kernel_dir = self.work / "kernel"
        self.tmp = self.work / "tmp"
        src = str(root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)

    def guarded_paths(self) -> Dict[str, Tuple[int, int]]:
        """(mtime, size) of every file and directory the benchmark must never
        write: ``BENCH_sim_throughput.json`` and the whole ``.repro_cache``
        tree."""
        state = {}

        def note(path: str) -> None:
            try:
                stat = os.stat(path)
            except OSError:
                return
            state[os.path.relpath(path, self.root)] = (stat.st_mtime_ns, stat.st_size)

        note(str(self.root / "BENCH_sim_throughput.json"))
        for directory, subdirectories, files in os.walk(self.root / ".repro_cache"):
            note(directory)
            for name in subdirectories + files:
                note(os.path.join(directory, name))
        return state

    def round_dir(self) -> Path:
        self.tmp.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="round-", dir=self.tmp))

    # ------------------------------------------------------------------
    def prepare_kernel(self) -> float:
        """Build the compiled kernel once per checkout; its build seconds."""
        record = self.kernel_dir / "build.json"
        pin_environment(self.kernel_dir)
        fresh_repro()
        from repro.core.compile import kernel_available
        from repro.core.compile.build import kernel_fingerprint

        fingerprint = kernel_fingerprint()
        try:
            builds = json.loads(record.read_text())
        except (OSError, ValueError):
            builds = {}
        started = time.perf_counter()
        available = kernel_available()
        elapsed = time.perf_counter() - started
        if fingerprint not in builds and available:
            builds[fingerprint] = elapsed
            record.write_text(json.dumps(builds, indent=1) + "\n")
        return float(builds.get(fingerprint, 0.0))

    def install_kernel(self, cache_dir: Path) -> None:
        compiled = self.kernel_dir / "compiled"
        if compiled.is_dir():
            shutil.copytree(compiled, cache_dir / "compiled",
                            ignore=shutil.ignore_patterns("*.lock", ".*"),
                            dirs_exist_ok=True)

    # ------------------------------------------------------------------
    def warm_cache(self, script: Path) -> Path:
        """The pristine result cache ``campaign_warm`` reruns against.

        Filled once per checkout and source digest, untimed, by a child
        process, so the filling run's memory and memos stay out of this
        process.
        """
        pin_environment(self.kernel_dir)
        fresh_repro()
        from repro.core.compile.build import kernel_fingerprint
        from repro.experiments.fingerprint import code_salt

        pristine = self.work / "warm" / f"{code_salt()}-{kernel_fingerprint()}"
        if pristine.is_dir():
            return pristine
        staging = self.round_dir()
        self.install_kernel(staging)
        completed = subprocess.run(
            [sys.executable, str(script), "--prefill", str(staging)],
            cwd=str(self.root), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=600,
        )
        if completed.returncode != 0:
            shutil.rmtree(staging, ignore_errors=True)
            raise BenchError(f"warm-cache prefill failed:\n{completed.stderr}")
        pristine.parent.mkdir(parents=True, exist_ok=True)
        os.replace(staging, pristine)
        return pristine


def prefill(cache_dir: Path) -> None:
    """Fill ``cache_dir`` with a full-mode fig09 campaign (child process)."""
    pin_environment(cache_dir)
    from repro.campaign.registry import get_campaign
    from repro.campaign.scheduler import CampaignScheduler
    from repro.campaign.store import CampaignStore

    spec = get_campaign("fig09")
    summary = CampaignScheduler(spec, quick=False, processes=1,
                                store=CampaignStore(spec.name),
                                bench_report=False).run()
    if summary.get("cells_failed"):
        raise BenchError(f"prefill: {summary['cells_failed']} cells failed")


# ----------------------------------------------------------------------
# simulated statistics
# ----------------------------------------------------------------------
def outcome_cores(outcome):
    """(core results, memsys telemetry) of any runner outcome shape."""
    inner = getattr(outcome, "outcome", None)
    if inner is not None and hasattr(inner, "memsys"):
        outcome = inner
    core = getattr(outcome, "core", None)
    if core is not None:
        return [core], outcome.memsys
    return [outcome.main, outcome.lookahead], outcome.memsys


def _per_kilo(count: float, committed: int) -> float:
    return 1000.0 * count / committed if committed else 0.0


def cell_digest(outcome) -> str:
    """Digest of one cell's cycles, committed, MPKIs and memsys counters."""
    cores, memsys = outcome_cores(outcome)
    payload = [
        [core.cycles, core.committed,
         _per_kilo(core.l1d_misses, core.committed),
         _per_kilo(core.l2_misses, core.committed),
         _per_kilo(core.dram_accesses, core.committed),
         _per_kilo(core.branch_mispredicts, core.committed)]
        for core in cores
    ]
    payload.append(memsys)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _stall_leaves(tree, parent: str, sums: Dict[str, float]) -> None:
    for key, value in (tree or {}).items():
        if isinstance(value, dict):
            _stall_leaves(value, key, sums)
        elif key == "stall_cycles":
            sums[parent] = sums.get(parent, 0.0) + float(value)


def simulated_counts(outcomes: List[object]) -> Dict[str, float]:
    """Simulated totals over cells (all cores, as ``RunnerStats`` counts)."""
    cycles = committed = 0.0
    l1d = l2 = dram = mispredicts = 0.0
    stalls: Dict[str, float] = {}
    for outcome in outcomes:
        cores, memsys = outcome_cores(outcome)
        for core in cores:
            cycles += core.cycles
            committed += core.committed
            l1d += core.l1d_misses
            l2 += core.l2_misses
            dram += core.dram_accesses
            mispredicts += core.branch_mispredicts
        _stall_leaves(memsys, "", stalls)
    total_stalls = sum(stalls.values())
    return {
        "sim.cycles": cycles,
        "sim.insts": committed,
        "memory.l1d_mpki": _per_kilo(l1d, committed),
        "memory.l2_mpki": _per_kilo(l2, committed),
        "memory.l3_mpki": _per_kilo(dram, committed),
        "branch.mpki": _per_kilo(mispredicts, committed),
        "memory.mshr_stall_cycles": stalls.get("mshr", 0.0),
        "memory.write_buffer_stall_cycles": stalls.get("write_buffer", 0.0),
        "memory.dram_queue_stall_cycles": stalls.get("queue", 0.0),
        "memory.contention_stall_share": total_stalls / cycles if cycles else 0.0,
    }


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def speedups(groups: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Geomean BL/DLA and BL/R3 main-core cycle ratios, geomean BL IPC."""
    def main_cycles(outcome) -> float:
        return outcome_cores(outcome)[0][0].cycles

    cells = [groups[name] for name in sorted(groups)]
    return {
        "r3_speedup": geomean([c["bl"].cycles / main_cycles(c["r3"]) for c in cells]),
        "dla_speedup": geomean([c["bl"].cycles / main_cycles(c["dla"]) for c in cells]),
        "bl_ipc": geomean([c["bl"].core.ipc for c in cells]),
    }


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
@dataclass
class RoundResult:
    """One round's measurements; times in reference seconds (hostspeed)."""

    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    sim_insts: int = 0
    sim_seconds: float = 0.0
    #: The same three times in host seconds, for the record.
    raw: Dict[str, float] = field(default_factory=dict)
    cells: int = 0
    #: Cell name -> digest of its simulated statistics.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Cell name -> why it failed (exception, fallback, no compiled ticks).
    failures: Dict[str, str] = field(default_factory=dict)
    simulated: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    #: Reference seconds per host second of work (the sampler's handler time
    #: left out) over the whole round: the factor for per-layer times.
    factor: float = 1.0
    #: Median host seconds of the round's two calibration loops.
    calibration_s: Tuple[float, float] = (0.0, 0.0)


def run_round(checkout: Checkout, workload: str, seed: int, traced: bool,
              run_id: str, warm_cache: Optional[Path] = None) -> RoundResult:
    cache_dir = checkout.round_dir()
    try:
        if workload == "campaign_warm":
            shutil.copytree(warm_cache, cache_dir, dirs_exist_ok=True)
        else:
            checkout.install_kernel(cache_dir)
        pin_environment(cache_dir)
        fresh_repro()
        tracer = Tracer(run_id, TRACE_LAYERS if traced else METER_LAYERS)
        result = RoundResult(traced=traced, tracer=tracer)
        if workload in CAMPAIGNS:
            _campaign_round(result, tracer, workload, seed, cache_dir)
        else:
            _simulation_round(result, tracer, workload, seed)
        # Keep spans for the trace file; drop the outcomes cell records hold.
        tracer.cells = []
        if not traced:
            result.tracer = None
        return result
    finally:
        fresh_repro()
        shutil.rmtree(cache_dir, ignore_errors=True)


def _import_round_modules() -> None:
    """Import what the round uses before timing (imports are not measured)."""
    import importlib

    for name in ("repro.campaign.scheduler", "repro.campaign.render",
                 "repro.campaign.registry", "repro.experiments.fig09_speedup",
                 "repro.experiments.fig13_breakdown", "repro.baselines",
                 "repro.prefetch", "repro.dla.system", "repro.core.system",
                 "repro.emulator.machine", "repro.dla.profiling",
                 "repro.experiments.memsys_sweep", "repro.workloads.kernels"):
        importlib.import_module(name)
    from repro.campaign.registry import get_campaign

    get_campaign("fig09")
    gc.collect()


def _campaign_round(result: RoundResult, tracer: Tracer, workload: str,
                    seed: int, cache_dir: Path) -> None:
    _import_round_modules()
    from repro.campaign import render
    from repro.campaign.registry import get_campaign
    from repro.campaign.scheduler import CampaignScheduler
    from repro.campaign.store import CampaignStore
    from repro.core.compile import compiled_ticks_total

    class SeededScheduler(CampaignScheduler):
        """The campaign's own cell matrix, executed in a seeded order."""

        def cells(self):
            cells = super().cells()
            order = random.Random(zlib.crc32(f"{seed}:{self.spec.name}".encode()))
            order.shuffle(cells)
            return cells

    tracer.install()
    schedulers = []
    ticks_before = compiled_ticks_total()
    try:
        with HostSpeed() as speed:
            started = time.perf_counter()
            for name, quick in CAMPAIGNS[workload]:
                spec = get_campaign(name)
                with tracer.span("campaign"):
                    store = CampaignStore(spec.name)
                    scheduler = SeededScheduler(spec, quick=quick, processes=1,
                                                store=store, bench_report=False)
                    scheduler.run()
                    render.render_campaign(spec.name, store=store,
                                           out_dir=str(cache_dir / "artifacts"))
                schedulers.append(scheduler)
            ended = time.perf_counter()
    finally:
        tracer.uninstall()
    compiled_ticks = compiled_ticks_total() - ticks_before

    records = {id(cell.result): cell for cell in tracer.cells
               if cell.executed or cell.disk}
    # sim_ips counts executed simulations as RunnerStats does.  A round that
    # simulated nothing (every result came from the disk cache) counts the
    # instructions its cells deliver over the whole measured section.
    executed = [cell for cell in records.values() if cell.executed]
    if executed:
        result.sim_insts = sum(cell.instructions for cell in executed)
        simulations = [(cell.seconds, cell.start, cell.end) for cell in executed]
    else:
        result.sim_insts = sum(cell.instructions for cell in records.values())
        simulations = [(ended - started, started, ended)]
    setups = [(start, end) for _id, name, start, end, _parent, _own in tracer.spans
              if name == "experiments.runner.setup"]
    _convert_times(result, speed, started, ended, setups, simulations)
    outcomes = []
    groups: Dict[str, Dict[str, object]] = {}
    for scheduler in schedulers:
        name = scheduler.spec.name
        seen = set()
        for request in CampaignScheduler.cells(scheduler):
            key = scheduler.runner.request_key(request)
            if key in seen:
                continue
            seen.add(key)
            cell = f"{name}/{request.workload}/{request.label}"
            result.cells += 1
            outcome = scheduler.runner.cached_outcome(key)
            if outcome is None:
                result.failures[cell] = "no outcome (cell failed)"
                continue
            record = records.get(id(outcome))
            if record is not None and record.executed and (
                    record.compiled_ticks <= 0 or record.fallbacks):
                result.failures[cell] = (
                    f"compiled_ticks={record.compiled_ticks} "
                    f"fallbacks={record.fallbacks}")
            result.digests[cell] = cell_digest(outcome)
            outcomes.append(outcome)
            if name == "fig09" and request.label in VARIANTS:
                groups.setdefault(request.workload, {})[request.label] = outcome
    result.simulated = speedups(groups)
    _finish_layers(result, tracer, outcomes, compiled_ticks)


def _simulation_round(result: RoundResult, tracer: Tracer, workload: str,
                      seed: int) -> None:
    _import_round_modules()
    from repro.core.compile import compiled_ticks_total
    from repro.core.config import SystemConfig
    from repro.core import system as core_system
    from repro.dla import profiling
    from repro.dla.config import DlaConfig
    from repro.dla.system import DlaSystem
    from repro.emulator.machine import Emulator
    from repro.experiments.memsys_sweep import MEMSYS_MACHINES, machine_config

    base = SystemConfig()
    machine = base
    if MACHINES[workload] is not None:
        machine = machine_config(base, dict(MEMSYS_MACHINES)[MACHINES[workload]])
    dla_configs = {"dla": DlaConfig().baseline_dla(), "r3": DlaConfig().r3()}
    order = random.Random(zlib.crc32(f"{seed}:{workload}".encode()))
    specs = list(programs.PROGRAMS[workload])
    order.shuffle(specs)
    window = programs.WARMUP + programs.TIMED

    def simulate_all() -> None:
        for label, kernel, params in specs:
            with tracer.span("setup") as setup:
                program = programs.build_program(label, kernel, params)
                trace = Emulator(program).run(max_instructions=window + 1000)
                profile = profiling.profile_workload(
                    program, trace.window(0, min(len(trace), programs.WARMUP + 4000)),
                    base, timing_window=min(6000, programs.WARMUP))
            setups.append((setup.start, setup.end))
            if len(trace) < window:
                raise BenchError(f"{label}: trace of {len(trace)} < {window}")
            warmup = trace.entries[:programs.WARMUP]
            timed = trace.entries[programs.WARMUP:window]
            variants = list(VARIANTS)
            order.shuffle(variants)
            for variant in variants:
                cell = f"{workload}/{label}/{variant}"
                ticks = compiled_ticks_total()
                fallbacks = tracer.counters["core.compile.fallbacks"]
                with tracer.span("simulate") as span:
                    if variant == "bl":
                        outcome = core_system.simulate_baseline(
                            timed, machine, warmup_entries=warmup)
                    else:
                        outcome = DlaSystem(program, machine, dla_configs[variant],
                                            profile=profile).simulate(
                            timed, warmup_entries=warmup)
                cores, _memsys = outcome_cores(outcome)
                result.sim_insts += sum(core.committed for core in cores)
                simulations.append((span.end - span.start, span.start, span.end))
                result.cells += 1
                ticks = compiled_ticks_total() - ticks
                fallbacks = tracer.counters["core.compile.fallbacks"] - fallbacks
                if ticks <= 0 or fallbacks:
                    result.failures[cell] = (
                        f"compiled_ticks={ticks} fallbacks={int(fallbacks)}")
                result.digests[cell] = cell_digest(outcome)
                groups.setdefault(label, {})[variant] = outcome

    groups: Dict[str, Dict[str, object]] = {}
    setups: List[Tuple[float, float]] = []
    simulations: List[Tuple[float, float, float]] = []
    tracer.install()
    ticks_before = compiled_ticks_total()
    try:
        with HostSpeed() as speed:
            started = time.perf_counter()
            simulate_all()
            ended = time.perf_counter()
    finally:
        tracer.uninstall()
    _convert_times(result, speed, started, ended, setups, simulations)
    compiled_ticks = compiled_ticks_total() - ticks_before
    result.simulated = speedups(groups)
    outcomes = [outcome for group in groups.values() for outcome in group.values()]
    _finish_layers(result, tracer, outcomes, compiled_ticks)


def _convert_times(result: RoundResult, speed: HostSpeed, started: float,
                   ended: float, setups: List[Tuple[float, float]],
                   simulations: List[Tuple[float, float, float]]) -> None:
    """Round times in reference seconds (and host seconds, for the record).

    ``setups`` are set-up sections; ``simulations`` are (busy host seconds,
    start, end) of simulation calls, converted at the speed over the call.
    """
    result.raw = {
        "cpu_s": speed.cpu_seconds,
        "wall_s": ended - started,
        "setup_s": sum(end - start for start, end in setups),
        "sim_s": sum(busy for busy, _start, _end in simulations),
    }
    result.wall_s = speed.reference(started, ended)
    result.setup_s = sum(speed.reference(start, end) for start, end in setups)
    result.sim_seconds = sum(busy * speed.factor(start, end)
                             for busy, start, end in simulations)
    result.factor = speed.work_factor(started, ended)
    result.calibration_s = speed.medians()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _finish_layers(result: RoundResult, tracer: Tracer, outcomes: List[object],
                   compiled_ticks: int) -> None:
    """Per-layer metrics of a traced round (simulated counts always).

    Times are in reference seconds, like the end-to-end metrics: the tracer's
    durations already leave the sampler's handler time out, so they are
    scaled by the round's work factor.
    """
    layers = simulated_counts(outcomes)
    factor = result.factor
    layers["core.compile.compiled_ticks"] = float(compiled_ticks)
    layers["core.compile.fallbacks"] = tracer.counters["core.compile.fallbacks"]
    if result.traced:
        from repro.core.compile.decoded import decoded_cache_stats
        from repro.core.system import warm_memo_stats

        counters = tracer.counters
        decoded = decoded_cache_stats()
        warm = warm_memo_stats()
        for name in ("workloads.build_kernel", "emulator.run",
                     "dla.profiling.profile_workload", "core.compile.get_decoded",
                     "core.compile.run", "core.system.warm", "memory.access",
                     "memory.prefetch", "prefetch.observe", "dla.hints",
                     "dla.system.simulate", "memory.resources",
                     "dla.recycle.plan", "dla.skeleton.build",
                     "experiments.cache.get", "experiments.cache.put",
                     "experiments.fingerprint", "campaign.telemetry",
                     "campaign.render"):
            layers[f"{name}.self_s"] = tracer.self_seconds(name) * factor
        for name in ("memory.access", "prefetch.observe", "experiments.cache.get",
                     "experiments.cache.put", "experiments.fingerprint"):
            layers[f"{name}.calls"] = float(tracer.calls(name))
        layers.update({
            "emulator.insts_per_s": _ratio(
                counters["emulator.insts"], tracer.self_seconds("emulator.run") * factor),
            "core.pipeline.reference_runs": counters["core.pipeline.reference_runs"],
            "core.pipeline.reference_s": counters["core.pipeline.reference_s"] * factor,
            "core.compile.decoded_hit_ratio": _ratio(
                decoded["hits"], decoded["hits"] + decoded["decodes"]),
            "core.system.warm_memo_hit_ratio": _ratio(
                warm["warm_restores"], warm["warm_restores"] + warm["warm_replays"]),
            "experiments.cache.get.hits": counters["experiments.cache.get.hits"],
            "experiments.cache.get.bytes": counters["experiments.cache.get.bytes"],
            "experiments.cache.put.bytes": counters["experiments.cache.put.bytes"],
            "campaign.overhead_s": tracer.self_seconds("campaign") * factor,
            "prefetch.drop_ratio": _ratio(counters["prefetch.dropped"],
                                          counters["prefetch.issued"]),
        })
    result.layers = layers
