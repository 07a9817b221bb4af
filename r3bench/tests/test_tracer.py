"""The tracer observes without changing what it observes."""

import pytest

import bench
import programs
from tracer import TRACE_LAYERS, Tracer, _resolve


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.core.compile.build import reset_kernel_cache

    reset_kernel_cache()
    yield tmp_path
    reset_kernel_cache()


def _simulate_cells():
    """Digest and compiled ticks of a small BL / DLA / R3 matrix."""
    from repro.core import system as core_system
    from repro.core.compile import compiled_ticks_total
    from repro.core.config import SystemConfig
    from repro.dla import profiling
    from repro.dla.config import DlaConfig
    from repro.dla.system import DlaSystem
    from repro.emulator.machine import Emulator

    config = SystemConfig()
    program = programs.build_program("bench-test", "hash_probe",
                                     dict(table_size=2048, probes=1500))
    trace = Emulator(program).run(max_instructions=9000)
    profile = profiling.profile_workload(program, trace.window(0, 6000), config,
                                         timing_window=2000)
    warmup, timed = trace.entries[:2000], trace.entries[2000:8000]
    cells = {}
    for variant, dla_config in (("bl", None), ("dla", DlaConfig().baseline_dla()),
                                ("r3", DlaConfig().r3())):
        ticks = compiled_ticks_total()
        if dla_config is None:
            outcome = core_system.simulate_baseline(timed, config, warmup_entries=warmup)
        else:
            outcome = DlaSystem(program, config, dla_config, profile=profile).simulate(
                timed, warmup_entries=warmup)
        cells[variant] = (bench.cell_digest(outcome), compiled_ticks_total() - ticks)
    return cells


def test_tracer_leaves_digests_and_compiled_ticks_unchanged(cache_dir):
    from repro.core.compile import kernel_available

    assert kernel_available()
    untraced = _simulate_cells()
    tracer = Tracer("test").install()
    try:
        traced = _simulate_cells()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert all(ticks > 0 for _digest, ticks in traced.values())
    # The tracer saw the layers it claims to measure.
    for name in ("workloads.build_kernel", "emulator.run", "core.compile.run",
                 "memory.access", "dla.hints", "dla.system.simulate"):
        assert tracer.calls(name) > 0, name
    assert tracer.counters["core.compile.fallbacks"] == 0
    assert tracer.counters["core.pipeline.reference_runs"] == 1   # profiling timing run


def test_uninstall_restores_every_wrapped_attribute():
    import importlib

    importlib.import_module("repro.campaign.render")   # a layer to patch
    tracer = Tracer("test").install()
    patched = tracer.installed
    assert len(patched) >= len(TRACE_LAYERS)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is not original
    tracer.uninstall()
    assert tracer.installed == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    # Every layer names at least one real attribute.
    for name, module, path, _hot in TRACE_LAYERS:
        assert _resolve(importlib.import_module(module), path), (name, path)


def test_durations_leave_out_the_sampler_handler_time():
    import time

    from hostspeed import HANDLER_SECONDS

    tracer = Tracer("test")
    saved = HANDLER_SECONDS[0]
    try:
        with tracer.span("outer") as span:
            time.sleep(0.05)
            HANDLER_SECONDS[0] += 0.04     # as if the handler ran 40 ms of it
    finally:
        HANDLER_SECONDS[0] = saved
    assert span.end - span.start >= 0.05
    assert tracer.self_seconds("outer") < 0.03
