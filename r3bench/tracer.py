"""Outside-in tracing of the ``repro`` package's layers.

Nothing under ``src/`` is instrumented.  A :class:`Tracer` replaces public
functions and methods of the loaded ``repro.*`` modules with timing
wrappers while a benchmark round runs, and puts every original back on
:meth:`Tracer.uninstall`.  Two kinds of wrapper exist:

* **span** wrappers, for calls made a few thousand times per round at most
  (a simulation, a cache read, a campaign render).  Each call records one
  span ``(run id, span id, name, start, end, parent id, self seconds)``.
* **hot** wrappers, for per-access callbacks made hundreds of thousands of
  times (cache accesses, prefetcher training, DLA hint hooks).  These keep
  no span; they add count, total and self time to an aggregate per
  ``(name, parent span id)``, which bounds the tracing overhead.

A layer's self time is its duration minus the time of the wrapped calls it
made.  Durations leave out the time spent in the host-speed sampler's
signal handler (``hostspeed.HANDLER_SECONDS``), which can fire inside any
call; span start and end stay host times.  Spans stay in memory and
:meth:`Tracer.write` dumps them when the run ends.

The same class, given :data:`METER_LAYERS` only, is the untraced run's cell
meter: it wraps the runner's simulation requests and set-up and the
compiled-kernel dispatch, a few hundred calls per round, to time set-up and
simulation calls and to check every executed cell ran on the compiled
kernel.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from hostspeed import HANDLER_SECONDS

#: (layer name, module, attribute path, hot).  An attribute path is either a
#: module-level function (every ``repro`` module binding it is patched) or
#: ``Class.method``.  ``Class.*`` expands to every public method a class
#: defines itself; ``Class+method`` to the method on the class and on every
#: loaded subclass that overrides it.
TRACE_LAYERS: Tuple[Tuple[str, str, str, bool], ...] = (
    # set-up
    ("workloads.build_kernel", "repro.workloads.kernels", "build_kernel", False),
    ("emulator.run", "repro.emulator.machine", "Emulator.run", False),
    ("dla.profiling.profile_workload", "repro.dla.profiling", "profile_workload", False),
    ("experiments.runner.setup", "repro.experiments.runner", "ExperimentRunner.setup", False),
    # simulation
    ("core.pipeline.run", "repro.core.pipeline", "OutOfOrderCore.run", False),
    ("core.compile.dispatch", "repro.core.compile", "maybe_run_compiled", False),
    ("core.compile.run", "repro.core.compile.driver", "run_compiled", False),
    ("core.compile.get_decoded", "repro.core.compile.decoded", "get_decoded", False),
    ("core.system.warm", "repro.core.system", "WarmupMemo.warm", False),
    ("core.system.simulate_baseline", "repro.core.system", "simulate_baseline", False),
    ("memory.access", "repro.memory.hierarchy", "CoreMemorySystem.access", True),
    ("memory.access", "repro.memory.hierarchy", "CoreMemorySystem.access_data_fast", True),
    ("memory.access", "repro.memory.hierarchy", "CoreMemorySystem.access_inst_fast", True),
    ("memory.prefetch", "repro.memory.hierarchy", "CoreMemorySystem.prefetch", True),
    ("memory.prefetch", "repro.memory.hierarchy", "CoreMemorySystem.prefetch_instruction", True),
    ("memory.resources", "repro.memory.resources", "OccupancyResource.acquire_delay", True),
    ("memory.resources", "repro.memory.resources", "OccupancyResource.admit", True),
    ("memory.resources", "repro.memory.resources", "OccupancyQueue.reserve_delay", True),
    ("memory.resources", "repro.memory.resources", "MshrFile.acquire_delay", True),
    ("memory.resources", "repro.memory.resources", "MshrFile.allocate", True),
    ("memory.resources", "repro.memory.resources", "BankedMshrFile.acquire_delay", True),
    ("memory.resources", "repro.memory.resources", "BankedMshrFile.allocate", True),
    ("prefetch.observe", "repro.prefetch.base", "Prefetcher+observe", True),
    ("dla.hints", "repro.dla.hints", "MainThreadHintSource.*", True),
    ("dla.system.simulate", "repro.dla.system", "DlaSystem.simulate", False),
    ("dla.system.simulate", "repro.dla.system", "DlaSystem.simulate_segmented", False),
    # recycle planning
    ("dla.recycle.plan", "repro.dla.recycle", "RecycleController.plan", False),
    ("dla.skeleton.build", "repro.dla.skeleton", "SkeletonBuilder.build", False),
    # result cache and campaign
    ("experiments.runner.request", "repro.experiments.runner", "ExperimentRunner.baseline", False),
    ("experiments.runner.request", "repro.experiments.runner", "ExperimentRunner.dla", False),
    ("experiments.runner.request", "repro.experiments.runner", "ExperimentRunner.dla_segmented", False),
    ("experiments.runner.request", "repro.experiments.runner", "ExperimentRunner.auxiliary", False),
    ("experiments.cache.get", "repro.experiments.cache", "ResultDiskCache.get", False),
    ("experiments.cache.put", "repro.experiments.cache", "ResultDiskCache.put", False),
    ("experiments.fingerprint", "repro.experiments.fingerprint", "fingerprint", True),
    ("campaign.telemetry", "repro.campaign.telemetry", "EventJournal.emit", True),
    ("campaign.render", "repro.campaign.render", "render_campaign", False),
)

#: The untraced run's cell meter: cell and set-up boundaries and kernel
#: dispatch only.
METER_LAYERS = tuple(
    layer for layer in TRACE_LAYERS
    if layer[0] in ("experiments.runner.request", "experiments.runner.setup",
                    "core.compile.dispatch")
)


class CellRecord:
    """What one simulation request did, as seen from outside the runner."""

    __slots__ = ("result", "executed", "disk", "instructions", "seconds",
                 "compiled_ticks", "fallbacks", "start", "end")

    def __init__(self, result, executed: bool, disk: bool, instructions: int,
                 seconds: float, compiled_ticks: int, fallbacks: int,
                 start: float, end: float) -> None:
        self.result = result
        self.start = start
        self.end = end
        self.executed = executed
        self.disk = disk
        self.instructions = instructions
        self.seconds = seconds
        self.compiled_ticks = compiled_ticks
        self.fallbacks = fallbacks


class Tracer:
    """Installs timing wrappers over ``repro`` layers; spans kept in memory."""

    def __init__(self, run_id: str,
                 layers: Tuple[Tuple[str, str, str, bool], ...] = TRACE_LAYERS
                 ) -> None:
        self.run_id = run_id
        self.layers = layers
        #: Finished spans: (span id, name, start, end, parent id, self s).
        self.spans: List[Tuple[int, str, float, float, int, float]] = []
        #: Hot-call aggregates: (name, parent span id) -> [count, total, self].
        self.hot: Dict[Tuple[str, int], List[float]] = {}
        #: Per-layer totals over spans and hot calls: [calls, total, self].
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: Named counts gathered by the wrappers' after-hooks.
        self.counters: Dict[str, float] = defaultdict(float)
        #: One record per runner simulation request, in call order.
        self.cells: List[CellRecord] = []
        # Active frames: [start, child seconds, span id, handler seconds
        # at start].
        self._stack: List[list] = [[0.0, 0.0, 0, 0.0]]
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []
        self._declined = False

    # ------------------------------------------------------------------
    # spans opened by the benchmark itself around calls into a layer
    # ------------------------------------------------------------------
    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self) -> list:
        frame = [time.perf_counter(), 0.0, self._next_id, HANDLER_SECONDS[0]]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> Tuple[float, float]:
        """(host end time, duration without handler time) of a span."""
        end = time.perf_counter()
        duration = end - frame[0] - (HANDLER_SECONDS[0] - frame[3])
        self._stack.pop()
        parent = self._stack[-1]
        parent[1] += duration
        own = duration - frame[1]
        self.spans.append((frame[2], name, frame[0], end, parent[2], own))
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += own
        return end, duration

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable,
                      after: Optional[Callable]) -> Callable:
        tracer = self
        before_hook = BEFORE_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = before_hook(tracer, args) if before_hook is not None else None
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                _end, duration = tracer._close(name, frame)
            if after is not None:
                after(tracer, args, kwargs, result, duration, before)
            return result

        return wrapper

    def _hot_wrapper(self, name: str, fn: Callable,
                     after: Optional[Callable]) -> Callable:
        stack = self._stack
        hot = self.hot
        total = self.totals[name]
        clock = time.perf_counter
        handler = HANDLER_SECONDS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [clock(), 0.0, parent[2], handler[0]]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0] - (handler[0] - frame[3])
                stack.pop()
                parent[1] += duration
                own = duration - frame[1]
                key = (name, parent[2])
                record = hot.get(key)
                if record is None:
                    hot[key] = [1, duration, own]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += own
                total[0] += 1
                total[1] += duration
                total[2] += own
            if after is not None:
                after(self, args, kwargs, result, duration, None)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        import importlib

        for name, module_name, path, hot in self.layers:
            module = importlib.import_module(module_name)
            for owner, attr in _resolve(module, path):
                original = owner.__dict__[attr]
                after = AFTER_HOOKS.get(name)
                make = self._hot_wrapper if hot else self._span_wrapper
                wrapper = make(name, original, after)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                else:
                    # A module-level function: patch every repro module
                    # that bound it by name at import time.
                    for bound in _repro_modules():
                        if bound.__dict__.get(attr) is original:
                            self._patch(bound, attr, original, wrapper)
        return self

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    # ------------------------------------------------------------------
    def self_seconds(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def write(self, path: Path, context: Dict[str, object]) -> None:
        """Dump spans and hot aggregates as JSON lines (one run id)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"run": self.run_id, "context": context}) + "\n")
            for span_id, name, start, end, parent, own in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "self_s": own,
                }) + "\n")
            for (name, parent), (count, total, own) in sorted(self.hot.items()):
                handle.write(json.dumps({
                    "run": self.run_id, "aggregate": name, "parent": parent,
                    "count": count, "total_s": total, "self_s": own,
                }) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame: Optional[list] = None
        self.start = self.end = 0.0

    def __enter__(self) -> "_Span":
        self.frame = self.tracer._open()
        self.start = self.frame[0]
        return self

    def __exit__(self, *exc) -> None:
        self.end, _duration = self.tracer._close(self.name, self.frame)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


def _resolve(module, path: str) -> List[Tuple[object, str]]:
    """(owner, attribute) pairs an attribute path names."""
    if "+" in path:
        base_name, attr = path.split("+")
        base = getattr(module, base_name)
        classes = [base] + sorted(_loaded_subclasses(base), key=lambda c: c.__qualname__)
        return [(cls, attr) for cls in classes if attr in cls.__dict__]
    if "." not in path:
        return [(module, path)]
    class_name, attr = path.split(".")
    cls = getattr(module, class_name)
    if attr != "*":
        return [(cls, attr)]
    return [
        (cls, name) for name, value in sorted(cls.__dict__.items())
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _loaded_subclasses(base: type) -> set:
    found = set()
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.add(cls)
            pending.extend(cls.__subclasses__())
    return found


# ----------------------------------------------------------------------
# after-hooks: counts gathered at the layer boundary
# ----------------------------------------------------------------------
def _emulator_run(tracer, args, kwargs, result, duration, before) -> None:
    tracer.counters["emulator.insts"] += len(result)


def _entry_size(cache, key: str) -> int:
    try:
        return (cache.directory / f"{key}.pkl").stat().st_size
    except OSError:
        return 0


def _cache_get(tracer, args, kwargs, result, duration, before) -> None:
    if result is not None:
        tracer.counters["experiments.cache.get.hits"] += 1
        tracer.counters["experiments.cache.get.bytes"] += _entry_size(args[0], args[1])


def _cache_put(tracer, args, kwargs, result, duration, before) -> None:
    tracer.counters["experiments.cache.put.bytes"] += _entry_size(args[0], args[1])


def _prefetch(tracer, args, kwargs, result, duration, before) -> None:
    tracer.counters["prefetch.issued"] += 1
    if result is None:
        tracer.counters["prefetch.dropped"] += 1


def _dispatch(tracer, args, kwargs, result, duration, before) -> None:
    collect_timings = args[4] if len(args) > 4 else kwargs.get("collect_timings")
    tracer._declined = result is None
    if result is None and not collect_timings:
        tracer.counters["core.compile.fallbacks"] += 1


def _pipeline_run(tracer, args, kwargs, result, duration, before) -> None:
    if tracer._declined:
        tracer.counters["core.pipeline.reference_runs"] += 1
        tracer.counters["core.pipeline.reference_s"] += duration
    tracer._declined = False


def _request_before(tracer, args):
    from repro.core.compile import compiled_ticks_total

    stats = args[0].stats
    return (compiled_ticks_total(), tracer.counters["core.compile.fallbacks"],
            stats.simulations, stats.disk_hits, stats.simulated_instructions,
            stats.simulation_seconds, time.perf_counter())


def _request(tracer, args, kwargs, result, duration, before) -> None:
    from repro.campaign.telemetry import outcome_measures
    from repro.core.compile import compiled_ticks_total

    stats = args[0].stats
    ticks, fallbacks, sims, disk_hits, insts, seconds, start = before
    end = time.perf_counter()
    executed = stats.simulations > sims
    disk = stats.disk_hits > disk_hits
    if executed:
        instructions = stats.simulated_instructions - insts
        busy = stats.simulation_seconds - seconds
    elif disk:
        instructions = outcome_measures(result)["instructions"]
        busy = end - start
    else:
        instructions, busy = 0, 0.0
    tracer.cells.append(CellRecord(
        result, executed, disk, instructions, busy,
        compiled_ticks_total() - ticks,
        int(tracer.counters["core.compile.fallbacks"] - fallbacks),
        start, end,
    ))


#: Called after a wrapped call: (tracer, args, kwargs, result, duration,
#: what the layer's before-hook returned).
AFTER_HOOKS: Dict[str, Callable] = {
    "emulator.run": _emulator_run,
    "experiments.cache.get": _cache_get,
    "experiments.cache.put": _cache_put,
    "memory.prefetch": _prefetch,
    "core.compile.dispatch": _dispatch,
    "core.pipeline.run": _pipeline_run,
    "experiments.runner.request": _request,
}

#: Called before a wrapped span call: (tracer, args) -> state for the after-hook.
BEFORE_HOOKS: Dict[str, Callable] = {
    "experiments.runner.request": _request_before,
}
