"""The steadiness verdict and the benchmark's refusal outside a checkout."""

import json
import shutil
import subprocess
from pathlib import Path

import steadiness

ROOT = Path(steadiness.__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(wall=10.0, setup=2.0, speedup=1.2, ok=1.0):
    values = {metric["name"]: 1.0 for metric in BENCHMARK["end_to_end"]}
    values.update(wall_s=wall, setup_s=setup, r3_speedup=speedup, ok_share=ok)
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in values.items()}}


def _sets(*walls_per_set, **overrides):
    return {"w": [[_result(wall=wall, **overrides) for wall in walls]
                  for walls in walls_per_set]}


def test_two_agreeing_sets_pass():
    assert steadiness.judge(BENCHMARK, _sets([10, 10.1, 9.9, 10.05],
                                             [10.02, 9.95, 10.1, 10])) == []


def test_wide_spread_fails_for_every_metric():
    failures = steadiness.judge(BENCHMARK, _sets([5, 10, 15, 20]))
    assert any("wall_s spread" in failure for failure in failures)
    runs = {"w": [[_result(setup=setup) for setup in (1, 2, 3, 4)]]}
    failures = steadiness.judge(BENCHMARK, runs)
    assert any("setup_s spread" in failure for failure in failures)


def test_second_median_apart_fails_in_either_direction():
    for second in (13, 7):
        failures = steadiness.judge(BENCHMARK, _sets([10, 10, 10], [second] * 3))
        assert any("wall_s median differs" in failure for failure in failures), second


def test_simulated_metrics_must_repeat_exactly():
    runs = {"w": [[_result(speedup=1.2), _result(speedup=1.2000001)]]}
    failures = steadiness.judge(BENCHMARK, runs)
    assert any("r3_speedup differs" in failure for failure in failures)


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [*BENCHMARK["command"], "--workload", "sim_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
