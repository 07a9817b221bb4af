"""Experiment harness: one module per table/figure of the paper.

Every experiment module exposes ``run(runner=None)`` returning a result
object with the raw rows plus a ``render()``-style text table, and can also
be executed as a script (``python -m repro.experiments.fig09_speedup``).
The shared :class:`~repro.experiments.runner.ExperimentRunner` caches
workload traces, profiles and baseline simulations so that running the whole
benchmark suite does not repeat work.

Mapping to the paper (see DESIGN.md for the full index):

========================  =====================================
Module                    Paper artefact
========================  =====================================
``fig01_ilp``             Fig. 1 (implicit parallelism)
``fig05_fetch_model``     Fig. 5 (analytic fetch-buffer model)
``fig09_speedup``         Fig. 9-a and 9-b (overall speedups)
``table02_activity``      Table II (activity / energy / power)
``fig10_energy``          Fig. 10 (CPU and DRAM energy)
``fig11_smt``             Fig. 11 (SMT-core scenarios)
``table03_mpki``          Table III (strided vs. other L1 MPKI)
``fig12_t1``              Fig. 12 (T1 vs. stride prefetcher)
``fig13_breakdown``       Fig. 13-a/b/c (FB, recycle, synergy)
``fig14_queue_validation`` Fig. 14 (model vs. simulated queue)
``fig15_recycle_dist``    Fig. 15 (skeleton version distribution)
========================  =====================================
"""

from repro.experiments.cache import ResultDiskCache
from repro.experiments.fingerprint import code_salt, fingerprint
from repro.experiments.parallel import ParallelExperimentRunner, SimRequest
from repro.experiments.runner import (
    ExperimentRunner,
    LazySetup,
    RunnerStats,
    SegmentedOutcome,
    WorkloadSetup,
)

__all__ = [
    "ExperimentRunner",
    "LazySetup",
    "ParallelExperimentRunner",
    "ResultDiskCache",
    "RunnerStats",
    "SegmentedOutcome",
    "SimRequest",
    "WorkloadSetup",
    "code_salt",
    "fingerprint",
]
