"""Lazy workload setups: a fully cached figure builds and decodes none, and a
miss pays for its setup outside the simulation it times."""

from __future__ import annotations

import pytest

from repro.core.system import simulate_baseline
from repro.dla.config import DlaConfig
from repro.experiments import fig09_speedup
from repro.experiments.runner import (
    ExperimentRunner,
    LazySetup,
    clear_setup_cache,
    setup_cache_stats,
)

WORKLOADS = ["libquantum", "mcf"]
WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


@pytest.fixture(autouse=True)
def fresh_setup_memo():
    clear_setup_cache()
    yield
    clear_setup_cache()


def test_cached_figure_rerun_resolves_no_setup(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def runner() -> ExperimentRunner:
        return ExperimentRunner(quick=True, workload_names=WORKLOADS,
                                disk_cache=True, **WINDOW)

    first = fig09_speedup.run(runner()).render()
    assert setup_cache_stats()["builds"] == len(WORKLOADS)

    clear_setup_cache()
    rerun = runner()
    second = fig09_speedup.run(rerun).render()
    stats = setup_cache_stats()
    assert stats["builds"] == 0
    assert stats["disk_hits"] == 0
    assert rerun.stats.simulations == 0
    assert second == first


def _record_order(monkeypatch) -> list:
    calls = []
    setup, begin = ExperimentRunner.setup, ExperimentRunner._begin_simulation

    def recording_setup(self, name):
        calls.append("setup")
        return setup(self, name)

    def recording_begin(self):
        calls.append("begin")
        return begin(self)

    monkeypatch.setattr(ExperimentRunner, "setup", recording_setup)
    monkeypatch.setattr(ExperimentRunner, "_begin_simulation", recording_begin)
    return calls


@pytest.mark.parametrize("kind", ["baseline", "dla", "dla_segmented", "auxiliary"])
def test_miss_resolves_setup_before_simulation_starts(kind, monkeypatch):
    calls = _record_order(monkeypatch)
    runner = ExperimentRunner(quick=True, workload_names=WORKLOADS[:1],
                              disk_cache=False, **WINDOW)
    (setup,) = runner.setups()
    assert isinstance(setup, LazySetup)
    assert setup.name == WORKLOADS[0]
    assert calls == []                       # handing setups out builds nothing

    if kind == "baseline":
        runner.baseline(setup)
    elif kind == "dla":
        runner.dla(setup, DlaConfig().baseline_dla(), "dla")
    elif kind == "dla_segmented":
        runner.dla_segmented(setup, DlaConfig().r3())
    else:
        runner.auxiliary(setup, "bl-copy", lambda s=setup: simulate_baseline(
            s.timed, runner.system_config, warmup_entries=s.warmup))
    assert calls[:2] == ["setup", "begin"]
    assert "begin" not in calls[2:]
    assert runner.stats.simulations == 1
    assert setup.timed is runner.setup(WORKLOADS[0]).timed
