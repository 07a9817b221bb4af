"""Campaign scheduling: flatten a spec into cells and drive them.

The scheduler materialises a :class:`~repro.campaign.spec.CampaignSpec`
against a :class:`~repro.experiments.parallel.ParallelExperimentRunner`:

1. the spec's (workload x variant) matrix becomes a list of *cells*
   (:class:`~repro.experiments.parallel.SimRequest`), each identified by the
   same content fingerprint the figure modules use;
2. pending cells (not in the in-memory or on-disk result cache) are
   pre-computed through the parallel runner — fan-out over worker processes
   when available, inline otherwise;
3. the campaign's experiment module assembles the artefact from the warmed
   caches (``module.run(runner)``), and its structured tables plus rendered
   text are persisted in the campaign store;
4. throughput numbers are merged into ``BENCH_sim_throughput.json`` under
   ``campaign_<name>``.

Because every cell is keyed by content fingerprint and persisted in the
shared disk cache the moment it finishes, a campaign killed mid-run resumes
exactly where it stopped: the next run screens finished cells as cache hits
and re-simulates nothing.

Beyond the single-host :meth:`CampaignScheduler.run`, the same cell matrix
drives two sharded execution modes (each a thin loop over the same
primitives, so all three are bit-identical by construction):

:meth:`run_shard`
    Deterministic *static* partitioning: shard ``i`` of ``N`` owns a fixed
    round-robin slice of the sorted cell keys
    (:func:`repro.util.sharding.partition`) — disjoint and exhaustive across
    shards with no coordination at all.  Made for CI matrices and
    orchestrators that already know the worker count.

:meth:`run_worker`
    *Dynamic* claiming through store-level cell leases: each worker
    repeatedly claims a batch of unfinished cells
    (:meth:`~repro.campaign.store.CampaignStore.claim_cells`), simulates
    them, and releases the leases as results land in the shared disk cache.
    Crash recovery is lease expiry — a worker killed mid-cell loses its
    lease after the TTL and a survivor reclaims the cell.

:meth:`finalize` (CLI: ``repro merge``)
    Assembles the final artefact from the caches once every cell is done —
    any worker or a separate fan-in job can run it; it simulates nothing.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.campaign.health import (
    CellCrashed, CellTimeout, RetryPolicy, WorkerShutdown, exception_info,
    make_failure_record, record_poisoned, record_retry_ready,
)
from repro.campaign.spec import CampaignSpec, SpecError
from repro.campaign.store import CampaignStore, DEFAULT_LEASE_TTL
from repro.campaign.telemetry import EventJournal, outcome_measures
from repro.experiments.parallel import ParallelExperimentRunner, SimRequest
from repro.util import faults
from repro.util.sharding import partition

Progress = Callable[[str], None]


def _silent(_message: str) -> None:
    return None


def default_owner() -> str:
    """A worker identity unique enough for lease stamping: host + pid."""
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


def _watchdog_cell_main(ctor_kwargs: dict, request: SimRequest, key: str,
                        prior_attempts: int, report_path: str) -> None:
    """Watchdog subprocess entry: run one cell isolated, report failures.

    The successful result travels through the shared disk cache (the child
    runner persists it the moment the simulation finishes) — only failure
    payloads come back through ``report_path``, so the parent can tell
    "crashed" from "succeeded" without unpickling outcomes across the
    process boundary.
    """
    import signal

    # A forked child inherits the worker's SIGTERM/SIGINT -> WorkerShutdown
    # handler; the watchdog's terminate() must simply end it.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    from repro.experiments.parallel import _run_group

    _workload, results, _stats, _warm = _run_group(
        (ctor_kwargs, request.workload, [request],
         {"isolate": True, "attempts": {key: prior_attempts}})
    )
    failures = {k: info for kind, k, info in results if kind == "failed"}
    Path(report_path).write_text(json.dumps(failures))


class CampaignIncomplete(RuntimeError):
    """Finalisation was requested while cells are still unsimulated."""


class ShardedExecutionError(RuntimeError):
    """Sharded execution was requested without a way to coordinate.

    Shards and workers communicate *through the shared disk cache* — a cell
    is done exactly when its result is on disk.  With the cache disabled
    (``REPRO_DISK_CACHE=0``) workers cannot see each other's results:
    they would re-simulate every cell (breaking exactly-once) and a
    separate-process merge could never find the cells.  Refuse loudly
    instead.
    """


class CampaignScheduler:
    """Plans and executes one campaign against one runner."""

    def __init__(
        self,
        spec: CampaignSpec,
        quick: bool = True,
        processes: Optional[int] = None,
        store: Optional[CampaignStore] = None,
        runner: Optional[ParallelExperimentRunner] = None,
        progress: Optional[Progress] = None,
        bench_report: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        cell_timeout: Optional[float] = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.quick = quick
        self.store = store or CampaignStore(spec.name)
        self.progress = progress or _silent
        self.bench_report = bench_report
        #: Bounded-retry policy for failing cells (see campaign.health).
        self.retry_policy = retry_policy or RetryPolicy()
        #: Per-cell wall-clock budget; ``None`` disables the subprocess
        #: watchdog (cells then run inline in the worker, hangs and all).
        self.cell_timeout = cell_timeout
        self.runner = runner or ParallelExperimentRunner(
            quick=quick,
            workload_names=spec.resolve_workloads(),
            warmup_instructions=spec.warmup_instructions,
            timed_instructions=spec.timed_instructions,
            processes=processes,
        )
        #: Lazy keyed-cell matrix — spec and runner are fixed for this
        #: scheduler's lifetime, so the (key, request) list is computed once.
        self._keyed_cells: Optional[List[Tuple[str, SimRequest]]] = None
        #: Per-owner event journal (campaign telemetry).  ``None`` until an
        #: execution entry point opens one, so every ``_emit`` is a no-op
        #: outside campaign runs — telemetry is inert by default and only
        #: ever fires at cell granularity, never on the simulator hot path.
        self.journal: Optional[EventJournal] = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _open_journal(self, owner: str) -> None:
        """Open this scheduler's event journal (idempotent; first owner
        wins — a worker that finalises keeps journaling as itself)."""
        if self.journal is None:
            self.journal = EventJournal(self.store.events_path, owner)

    def _emit(self, event: str, key: Optional[str] = None,
              **fields: object) -> None:
        if self.journal is not None:
            self.journal.emit(event, key=key, **fields)

    def _cell_measures(self, key: str,
                       stats_delta=None) -> Dict[str, object]:
        """Per-cell measures for a ``cell.finished`` event.

        Content-determined parts (instructions, cycles, stall share) come
        from the cached outcome; volatile parts (sim wall seconds, inst/s)
        from the runner-stats delta around the cell — only present when
        this process actually simulated (a cache-served cell has no
        meaningful wall time).
        """
        measures: Dict[str, object] = {}
        outcome = self.runner.cached_outcome(key)
        if outcome is not None:
            measures.update(outcome_measures(outcome))
        if stats_delta is not None and stats_delta.simulations > 0:
            measures["sim_seconds"] = round(
                stats_delta.simulation_seconds, 3)
            measures["inst_per_second"] = round(
                stats_delta.instructions_per_second, 1)
        return measures

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        return "quick" if self.quick else "full"

    def cell_workloads(self) -> List[str]:
        """Workloads that get matrix cells (may sub-sample in quick mode)."""
        names = list(self.runner.workload_names)
        limit = self.spec.max_cell_workloads_quick
        if self.quick and limit is not None:
            names = names[:limit]
        return names

    def cells(self) -> List[SimRequest]:
        """The flattened (workload, variant) simulation matrix."""
        base = self.runner.system_config
        requests: List[SimRequest] = []
        for workload in self.cell_workloads():
            for variant in self.spec.variants:
                requests.append(
                    SimRequest(
                        workload=workload,
                        kind=variant.kind,
                        label=variant.name,
                        system_config=variant.system_config(base),
                        dla_config=variant.dla_config(),
                        dynamic=variant.dynamic,
                    )
                )
        return requests

    def keyed_cells(self) -> List[Tuple[str, SimRequest]]:
        """(content key, request) per cell, de-duplicated by key.

        Two variants that materialise to the same configuration share one
        content key — and one cache slot — so they are one unit of sharded
        work; the first spelling wins.
        """
        if self._keyed_cells is None:
            keyed: Dict[str, SimRequest] = {}
            for request in self.cells():
                keyed.setdefault(self.runner.request_key(request), request)
            self._keyed_cells = list(keyed.items())
        return list(self._keyed_cells)

    def shard_cells(self, index: int, count: int) -> List[Tuple[str, SimRequest]]:
        """The keyed cells owned by shard ``index`` of ``count``.

        Round-robin over the *sorted* content keys: every shard computes the
        same partition independently, and across ``0..count-1`` the slices
        are disjoint and exhaustive.
        """
        keyed = dict(self.keyed_cells())
        members = partition(keyed.keys(), index, count)
        return [(key, keyed[key]) for key in members]

    def prepare(self) -> Dict[str, object]:
        """Open the manifest and seed the full planned-cell set, running
        nothing.

        The fabric dispatcher calls this in the shared root before any host
        job starts, so ``repro status``/``repro monitor`` report meaningful
        done/leased/pending counts while the fleet is still warming up, and
        so ``repro sync --campaign`` can resolve the campaign's cell keys
        from the shared manifest alone.
        """
        manifest = self.store.begin(self.spec, self.mode)
        self._seed_cells(manifest)
        return manifest

    # ------------------------------------------------------------------
    # single-host execution (simulate everything, then assemble)
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Execute the campaign; returns the run summary (also persisted).

        Cells run under failure isolation with bounded retries: a raising
        cell is retried (capped exponential backoff, deterministic jitter)
        up to ``retry_policy.max_attempts`` total attempts, then poisoned —
        recorded as a durable failure, skipped, and surfaced through a
        ``health`` section in the assembled result instead of aborting the
        whole campaign.
        """
        manifest = self.prepare()
        requests = self.cells()
        started = time.perf_counter()
        stats_before = self.runner.stats.copy()

        self._open_journal(f"run-{default_owner()}")
        self._emit("worker.started", mode="run", run_mode=self.mode,
                   cells=len(self.keyed_cells()))
        self.progress(
            f"[{self.spec.name}] {len(requests)} cells across "
            f"{len(self.cell_workloads())} workloads ({self.mode} mode)"
        )
        executed, failures = (
            self._drive_cells(requests) if requests else (0, {})
        )
        cell_stats = self.runner.stats.since(stats_before)
        succeeded = [
            request for request in requests
            if self.runner.request_key(request) not in failures
        ]
        self._record_cells(manifest, succeeded)
        if failures:
            self._record_failed_cells(manifest, failures)
            self.progress(
                f"[{self.spec.name}] WARNING: {len(failures)} cell(s) "
                f"poisoned after {self.retry_policy.max_attempts} attempts "
                f"— assembling a degraded artefact"
            )
        if requests:
            self.progress(
                f"[{self.spec.name}] cells done: {executed} simulated, "
                f"{len(succeeded) - executed} from cache "
                f"({cell_stats.simulation_seconds:.1f}s simulating)"
            )
        summary = self._assemble(manifest, started, stats_before,
                                 cells_total=len(requests), executed=executed,
                                 failures=failures or None)
        self._emit("worker.stopped", mode="run",
                   **self.runner.stats.since(stats_before).as_dict())
        return summary

    def _drive_cells(
        self, requests: List[SimRequest], processes: Optional[int] = None,
    ) -> Tuple[int, Dict[str, Dict[str, object]]]:
        """Simulate ``requests`` with isolation + bounded, backed-off retries.

        Returns ``(executed, poisoned)``: the number of simulations actually
        run, and the final failure record of every cell that exhausted its
        retry budget.  Successes land in the caches exactly as with
        :meth:`ParallelExperimentRunner.warm`.
        """
        policy = self.retry_policy
        attempts: Dict[str, int] = {
            key: int(record.get("attempts", 0))
            for key, record in self.store.failures().items()
        }
        owner = default_owner()
        executed_total = 0
        dead: Dict[str, Dict[str, object]] = {}
        pending: List[Tuple[SimRequest, str]] = []
        for request in requests:
            key = self.runner.request_key(request)
            if policy.poisoned(attempts.get(key, 0)):
                # Poisoned by an earlier run; don't burn attempts re-proving it.
                dead[key] = self.store.read_failure(key) or {
                    "key": key, "attempts": attempts.get(key, 0),
                    "poisoned": True,
                }
            else:
                pending.append((request, key))
        while pending:
            for request, key in pending:
                prior = attempts.get(key, 0)
                self._emit("cell.started", key=key, attempt=prior + 1,
                           workload=request.workload, variant=request.label)
                if prior > 0:
                    self._emit("cell.retried", key=key, attempt=prior + 1)
            executed, failures = self.runner.warm_isolated(
                [request for request, _key in pending],
                processes=processes,
                attempts={key: attempts.get(key, 0) for _request, key in pending},
            )
            executed_total += executed
            retrying: List[Tuple[SimRequest, str]] = []
            for request, key in pending:
                info = failures.get(key)
                if info is None:
                    self._emit("cell.finished", key=key,
                               workload=request.workload,
                               variant=request.label,
                               **self._cell_measures(key))
                    continue
                count = attempts.get(key, 0) + 1
                attempts[key] = count
                record = make_failure_record(
                    key, info, count, policy, owner=owner,
                    workload=request.workload, variant=request.label,
                )
                self.store.record_failure(key, record)
                poisoned_now = record_poisoned(record)
                self._emit("cell.failed", key=key, attempt=count,
                           workload=request.workload, variant=request.label,
                           error_type=info.get("error_type"),
                           message=info.get("message"),
                           poisoned=poisoned_now)
                if info.get("error_type") == "CellTimeout":
                    self._emit("watchdog.timeout", key=key, attempt=count)
                if poisoned_now:
                    self._emit("cell.poisoned", key=key, attempts=count)
                    dead[key] = record
                else:
                    retrying.append((request, key))
            pending = retrying
            if pending:
                # One deterministic-jitter backoff per round — the shortest
                # pending delay, so no cell waits longer than its own budget.
                time.sleep(min(
                    policy.backoff_seconds(key, attempts[key])
                    for _request, key in pending
                ))
        return executed_total, dead

    # ------------------------------------------------------------------
    # sharded execution
    # ------------------------------------------------------------------
    def run_shard(self, index: int, count: int) -> Dict[str, object]:
        """Simulate the static shard ``index``/``count`` of the cell matrix.

        Artefact assembly is deliberately *not* part of a shard run — once
        every shard has landed its cells in the shared disk cache, any
        process renders the final artefacts with :meth:`finalize`
        (``repro merge``).
        """
        self._require_disk_cache(f"--shard {index}/{count}")
        manifest = self.prepare()
        keyed = self.shard_cells(index, count)
        requests = [request for _key, request in keyed]
        total = len(self.keyed_cells())
        started = time.perf_counter()
        stats_before = self.runner.stats.copy()

        self._open_journal(f"shard-{index}-of-{count}-{default_owner()}")
        self._emit("worker.started", mode="shard", shard=f"{index}/{count}",
                   run_mode=self.mode, cells=len(requests),
                   cells_total=total)
        self.progress(
            f"[{self.spec.name}] shard {index}/{count}: {len(requests)} of "
            f"{total} cells ({self.mode} mode)"
        )
        for key, request in keyed:
            # Static assignment is this mode's "claim": the partition is the
            # lease, computed identically by every shard.
            self._emit("cell.claimed", key=key, static=True,
                       workload=request.workload, variant=request.label)
        executed = self.runner.warm(requests) if requests else 0
        for key, request in keyed:
            self._emit("cell.finished", key=key, workload=request.workload,
                       variant=request.label, **self._cell_measures(key))
        self._record_cells(manifest, requests, owner=f"shard-{index}/{count}")
        run_stats = self.runner.stats.since(stats_before)

        summary: Dict[str, object] = {
            "mode": self.mode,
            "shard": f"{index}/{count}",
            "cells_total": total,
            "cells_in_shard": len(requests),
            "cells_simulated": executed,
            "cells_from_cache": len(requests) - executed,
            "wall_seconds": round(time.perf_counter() - started, 2),
        }
        summary.update(run_stats.as_dict())
        self.store.record_run(manifest, summary)
        self._emit("worker.stopped", mode="shard", shard=f"{index}/{count}",
                   **run_stats.as_dict())
        self.progress(
            f"[{self.spec.name}] shard {index}/{count} done: {executed} "
            f"simulated, {len(requests) - executed} from cache"
        )
        return summary

    def run_worker(
        self,
        owner: Optional[str] = None,
        ttl: float = DEFAULT_LEASE_TTL,
        batch_size: int = 4,
        poll_seconds: float = 2.0,
        max_cells: Optional[int] = None,
        finalize: bool = True,
    ) -> Dict[str, object]:
        """Lease-driven worker loop: claim, simulate, release, repeat.

        The loop ends when every cell of the campaign is in the shared disk
        cache (no matter who computed it).  While other live workers hold
        leases on the remaining cells, this worker polls every
        ``poll_seconds``; leases of crashed workers expire after ``ttl``
        seconds and are reclaimed here.  Within a claimed batch, cells are
        simulated one at a time and the not-yet-started leases renewed after
        each, so ``ttl`` only needs to outlast a single cell.

        ``max_cells`` bounds how many cells this worker may claim (testing /
        budgeted orchestrators); the loop then exits without waiting for the
        campaign to complete.  When the campaign does complete and
        ``finalize`` is set, the final artefact is assembled right here —
        any worker can do it, the result is deterministic and the write
        atomic, so concurrent finalisers are harmless.
        """
        if batch_size < 1:
            # claim_cells(limit=0) returns [] which the loop would misread
            # as "everything is leased elsewhere" and poll forever.
            raise ValueError(f"batch_size must be >= 1 (got {batch_size})")
        self._require_disk_cache("--worker")
        owner = owner or default_owner()
        policy = self.retry_policy
        manifest = self.prepare()
        keyed = self.keyed_cells()
        requests_by_key = dict(keyed)
        all_requests = [request for _key, request in keyed]
        started = time.perf_counter()
        stats_before = self.runner.stats.copy()
        claimed_total = 0
        waiting_logged = False
        interrupted = False

        self._open_journal(owner)
        self._emit("worker.started", mode="worker", run_mode=self.mode,
                   cells=len(keyed), ttl=ttl, batch_size=batch_size)
        self.progress(
            f"[{self.spec.name}] worker {owner}: {len(keyed)} cells "
            f"({self.mode} mode, ttl {ttl:g}s)"
        )
        all_keys = [key for key, _request in keyed]
        screen_logged = False
        previous_handlers = self._install_signal_handlers()
        try:
            while True:
                reclaimed = self.store.reclaim_stale()
                if reclaimed:
                    self._emit("lease.reclaimed", count=len(reclaimed),
                               keys=sorted(reclaimed))
                availability = self.runner.screen(all_requests, keys=all_keys)
                if not screen_logged:
                    # Only the first screen is journaled: the poll loop
                    # re-screens every few seconds and a per-poll event
                    # would bloat the journal without adding information.
                    hits = sum(1 for done in availability.values() if done)
                    self._emit("cache.screen", hits=hits,
                               misses=len(availability) - hits)
                    screen_logged = True
                records = self.store.failures()
                unfinished = [key for key, _request in keyed
                              if not availability[key]]
                # Poisoned cells are permanently failed: no worker touches
                # them again; the campaign converges around them (degraded).
                open_cells = [key for key in unfinished
                              if not record_poisoned(records.get(key))]
                if not open_cells:
                    break
                if max_cells is not None and claimed_total >= max_cells:
                    break
                # Back-off gate: a cell that just failed is only claimable
                # again once its (deterministically jittered) retry_at
                # passes — shared through the store, so *no* worker claims
                # it early.
                ready = [key for key in open_cells
                         if record_retry_ready(records.get(key))]
                limit = batch_size
                if max_cells is not None:
                    limit = min(limit, max_cells - claimed_total)
                claimed = (
                    self.store.claim_cells(ready, owner, ttl=ttl, limit=limit)
                    if ready else []
                )
                if not claimed:
                    # Every open cell is leased to another live worker or
                    # waiting out a retry backoff: poll until claimable.
                    if not waiting_logged:
                        self.progress(
                            f"[{self.spec.name}] worker {owner}: waiting on "
                            f"{len(open_cells)} leased/backing-off cell(s)"
                        )
                        waiting_logged = True
                    time.sleep(poll_seconds)
                    continue
                waiting_logged = False
                claimed_total += len(claimed)
                remaining = list(claimed)
                for key in claimed:
                    claimed_request = requests_by_key[key]
                    self._emit("cell.claimed", key=key,
                               workload=claimed_request.workload,
                               variant=claimed_request.label)
                try:
                    for key in claimed:
                        # Chaos site: a seeded kill fault drops the whole
                        # worker process right here — holding leases, like a
                        # real OOM kill.  Survivors reclaim after the TTL.
                        faults.probe(faults.SITE_WORKER_KILL, key=key)
                        request = requests_by_key[key]
                        prior = int((records.get(key) or {}).get("attempts", 0))
                        self._emit("cell.started", key=key, attempt=prior + 1,
                                   workload=request.workload,
                                   variant=request.label)
                        if prior > 0:
                            self._emit("cell.retried", key=key,
                                       attempt=prior + 1)
                        cell_stats_before = self.runner.stats.copy()
                        # Inline execution (one cell = one workload group, so
                        # a pool adds overhead without parallelism) — or a
                        # watchdog subprocess when --cell-timeout is set.
                        info = self._run_cell_guarded(request, key, prior)
                        cell_stats = self.runner.stats.since(cell_stats_before)
                        remaining.remove(key)
                        if info is None:
                            self._emit("cell.finished", key=key,
                                       workload=request.workload,
                                       variant=request.label,
                                       **self._cell_measures(key, cell_stats))
                            self._record_cells(manifest, [request], owner=owner)
                            self.store.release_leases([key], owner)
                            self.progress(
                                f"[{self.spec.name}] worker {owner}: cell "
                                f"{request.workload}/"
                                f"{request.label or request.kind} done"
                            )
                        else:
                            count = prior + 1
                            record = make_failure_record(
                                key, info, count, policy, owner=owner,
                                workload=request.workload,
                                variant=request.label,
                            )
                            self.store.record_failure(key, record)
                            records[key] = record
                            self._emit("cell.failed", key=key, attempt=count,
                                       workload=request.workload,
                                       variant=request.label,
                                       error_type=info.get("error_type"),
                                       message=info.get("message"),
                                       poisoned=record_poisoned(record))
                            if info.get("error_type") == "CellTimeout":
                                self._emit("watchdog.timeout", key=key,
                                           attempt=count)
                            if record_poisoned(record):
                                self._emit("cell.poisoned", key=key,
                                           attempts=count)
                                self._record_failed_cells(
                                    manifest, {key: record})
                            self.store.release_leases([key], owner)
                            state = ("poisoned" if record_poisoned(record)
                                     else "will retry")
                            self.progress(
                                f"[{self.spec.name}] worker {owner}: cell "
                                f"{request.workload}/"
                                f"{request.label or request.kind} FAILED "
                                f"(attempt {count}/{policy.max_attempts}, "
                                f"{info.get('error_type')}: "
                                f"{info.get('message')}) — {state}"
                            )
                        if remaining:
                            renewed = self.store.renew_leases(
                                remaining, owner, ttl=ttl)
                            self._emit("lease.renewed", count=renewed,
                                       held=len(remaining))
                finally:
                    # On an exception, signal or Ctrl-C mid-batch, hand the
                    # unfinished claims straight back instead of making
                    # everyone (including our own restart, which gets a
                    # fresh pid-based owner) wait out the TTL.
                    if remaining:
                        self.store.release_leases(remaining, owner)
        except WorkerShutdown as shutdown:
            interrupted = True
            self._emit("worker.signal", reason=str(shutdown))
            self.progress(
                f"[{self.spec.name}] worker {owner}: {shutdown} — leases "
                f"released, exiting cleanly (rerun to resume)"
            )
        finally:
            self._restore_signal_handlers(previous_handlers)

        run_stats = self.runner.stats.since(stats_before)
        unfinished = self.unfinished_cells()
        failure_records = self.store.failures()
        poisoned = {key: failure_records[key] for key in unfinished
                    if record_poisoned(failure_records.get(key))}
        complete = not unfinished
        # Converged: nothing left to run — every cell is either done or
        # permanently failed.  That is finalisable (degraded when poisoned
        # cells exist); an interrupted worker never finalises.
        converged = (not interrupted
                     and all(key in poisoned for key in unfinished))
        summary: Dict[str, object] = {
            "mode": self.mode,
            "worker": owner,
            "cells_total": len(keyed),
            "cells_claimed": claimed_total,
            "cells_simulated": run_stats.simulations,
            "cells_failed": len(poisoned),
            "wall_seconds": round(time.perf_counter() - started, 2),
        }
        if interrupted:
            summary["interrupted"] = True
        summary.update(run_stats.as_dict())
        self.store.record_run(manifest, summary)
        summary["complete"] = complete
        if (self.runner.disk_cache is not None
                and self.runner.disk_cache.quarantine_count() > 0):
            self._emit("cache.quarantine",
                       count=self.runner.disk_cache.quarantine_count())
        self._emit("worker.stopped", mode="worker",
                   cells_claimed=claimed_total, interrupted=interrupted,
                   complete=complete, **run_stats.as_dict())
        if converged and finalize:
            summary["finalized"] = True
            self.finalize(manifest=manifest)
        return summary

    # ------------------------------------------------------------------
    def _install_signal_handlers(self) -> Dict[int, object]:
        """Route SIGTERM/SIGINT into :class:`WorkerShutdown` (main thread
        only — worker loops driven from helper threads keep the process
        defaults, and tests do exactly that)."""
        import signal
        import threading

        if threading.current_thread() is not threading.main_thread():
            return {}
        previous: Dict[int, object] = {}

        def _handler(signum: int, _frame) -> None:
            raise WorkerShutdown(f"received signal {signum}")

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):   # non-main interpreter quirks
                pass
        return previous

    def _restore_signal_handlers(self, previous: Dict[int, object]) -> None:
        import signal

        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError, TypeError):
                pass

    # ------------------------------------------------------------------
    def _run_cell_guarded(self, request: SimRequest, key: str,
                          prior_attempts: int) -> Optional[Dict[str, object]]:
        """Execute one cell; returns its failure payload, or None on success.

        Without a ``cell_timeout`` the cell runs inline under isolation;
        with one, it runs in a watchdog subprocess whose result lands in the
        shared disk cache — exceeding the wall-clock budget terminates the
        subprocess and reports a retryable :class:`CellTimeout`.
        """
        if self.cell_timeout is None:
            _executed, failures = self.runner.warm_isolated(
                [request], processes=1, attempts={key: prior_attempts})
            return failures.get(key)
        return self._run_cell_watchdog(request, key, prior_attempts)

    def _run_cell_watchdog(self, request: SimRequest, key: str,
                           prior_attempts: int) -> Optional[Dict[str, object]]:
        import multiprocessing
        import tempfile

        self._require_disk_cache("--cell-timeout")
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        fd, report_name = tempfile.mkstemp(prefix="repro-watchdog-",
                                           suffix=".json")
        os.close(fd)
        report = Path(report_name)
        started = time.monotonic()
        process = ctx.Process(
            target=_watchdog_cell_main,
            args=(self.runner._ctor_kwargs(), request, key, prior_attempts,
                  report_name),
        )

        def _payload(error: BaseException) -> Dict[str, object]:
            info = exception_info(error, time.monotonic() - started)
            info.update({"workload": request.workload, "kind": request.kind,
                         "label": request.label})
            return info

        try:
            process.start()
            process.join(self.cell_timeout)
            if process.is_alive():
                process.terminate()
                process.join(5.0)
                if process.is_alive():
                    process.kill()
                    process.join(5.0)
                return _payload(CellTimeout(
                    f"cell exceeded --cell-timeout "
                    f"{self.cell_timeout:g}s wall clock"
                ))
            if process.exitcode == 0:
                try:
                    reported = json.loads(report.read_text())
                except (OSError, ValueError):
                    reported = {}
                if key in reported:
                    return reported[key]
                # Success: the child persisted the outcome to the shared
                # disk cache; pull it into this runner's memory caches.
                self.runner.screen([request], keys=[key])
                return None
            return _payload(CellCrashed(
                f"watchdog subprocess died with exit code {process.exitcode}"
            ))
        finally:
            try:
                report.unlink()
            except OSError:
                pass
            if process.is_alive():   # belt and braces on unexpected exits
                process.kill()

    def unfinished_cells(self) -> List[str]:
        """Content keys of cells whose results are not in any cache yet."""
        keyed = self.keyed_cells()
        availability = self.runner.screen(
            [request for _key, request in keyed],
            keys=[key for key, _request in keyed],
        )
        return [key for key, _request in keyed if not availability[key]]

    def finalize(self, manifest: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Assemble and persist the final artefact from cached cells.

        Raises :class:`CampaignIncomplete` when cells are still missing —
        finalisation never simulates matrix cells, so shard/worker runs must
        land first.  *Poisoned* cells (permanently failed after exhausting
        their retry budget) do not block finalisation: the artefact is
        assembled around them, carrying an explicit ``health`` section, so a
        partly-failed campaign yields partial artifacts instead of nothing.

        Deterministic by construction: the assembled tables and text depend
        only on the cached outcomes, so a merge after sharded execution is
        bit-identical to a single-host :meth:`run`.
        """
        if manifest is None:
            manifest = self.store.begin(self.spec, self.mode)
        self._open_journal(f"merge-{default_owner()}")
        keyed = self.keyed_cells()
        availability = self.runner.screen(
            [request for _key, request in keyed],
            keys=[key for key, _request in keyed],
        )
        missing = [key for key, _request in keyed if not availability[key]]
        failures: Optional[Dict[str, Dict[str, object]]] = None
        if missing:
            records = self.store.failures()
            poisoned = {key: records[key] for key in missing
                        if record_poisoned(records.get(key))}
            unaccounted = [key for key in missing if key not in poisoned]
            if unaccounted:
                hint = (
                    " (note: the disk cache is disabled in this process, so "
                    "results computed elsewhere are invisible — unset "
                    "REPRO_DISK_CACHE=0)"
                    if self.runner.disk_cache is None else ""
                )
                raise CampaignIncomplete(
                    f"campaign {self.spec.name!r}: {len(unaccounted)} of "
                    f"{len(keyed)} cells not simulated yet — run the "
                    f"remaining shards/workers before merging{hint}"
                )
            failures = poisoned
            self._record_failed_cells(manifest, poisoned)
        started = time.perf_counter()
        stats_before = self.runner.stats.copy()
        return self._assemble(manifest, started, stats_before,
                              cells_total=len(keyed), executed=0,
                              failures=failures)

    # ------------------------------------------------------------------
    def _assemble(self, manifest: Dict[str, object], started: float,
                  stats_before, cells_total: int, executed: int,
                  failures: Optional[Dict[str, Dict[str, object]]] = None,
                  ) -> Dict[str, object]:
        """Run the experiment module over the warmed caches and persist.

        ``failures`` (poisoned-cell records) switches degraded assembly on:
        the result gains a deterministic ``health`` section, and an
        exception from the experiment module — which may legitimately hit
        the same crash the poisoned cell did, since modules re-simulate
        missing cells — degrades to a stub artefact instead of propagating.
        The key is *absent* on clean runs, keeping fault-free artifacts
        byte-identical to earlier releases.
        """
        module = importlib.import_module(self.spec.experiment)
        try:
            result = module.run(self.runner)
            tables = self._tables(module, result)
            text = result.render()
        except Exception as error:
            if not failures:
                raise
            tables = {}
            text = (
                f"DEGRADED: artefact assembly failed over "
                f"{len(failures)} poisoned cell(s): "
                f"{type(error).__name__}: {error}"
            )
        run_stats = self.runner.stats.since(stats_before)
        wall = time.perf_counter() - started

        summary: Dict[str, object] = {
            "mode": self.mode,
            "cells_total": cells_total,
            "cells_simulated": executed,
            "cells_from_cache": cells_total - executed,
            "wall_seconds": round(wall, 2),
        }
        if failures:
            summary["cells_failed"] = len(failures)
        summary.update(run_stats.as_dict())
        self.store.record_run(manifest, summary)
        payload: Dict[str, object] = {
            "campaign": self.spec.name,
            "title": self.spec.title,
            "description": self.spec.description,
            "experiment": self.spec.experiment,
            "spec_fingerprint": self.spec.fingerprint(),
            "mode": self.mode,
            # Deterministic planned-cell count (deduped by content key);
            # the volatile per-run counters live under "run".
            "cells": len(self.keyed_cells()),
        }
        if failures:
            payload["health"] = self._health_section(failures)
        payload.update(
            {
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "tables": tables,
                "text": text,
                "run": summary,
            }
        )
        self.store.save_result(payload)

        self._emit("campaign.assembled",
                   health="degraded" if failures else "ok",
                   cells_total=cells_total,
                   cells_failed=len(failures) if failures else 0,
                   wall_seconds=round(wall, 2))
        # A fully cache-served assembly ran zero simulations, so its
        # instructions-per-second is 0.0 by construction — recording it
        # would poison the throughput trajectory with cache-hit noise.
        if self.bench_report and summary.get("simulations"):
            from repro.experiments.bench import update_bench_report

            try:
                update_bench_report(f"campaign_{self.spec.name}", summary)
            except OSError:
                pass   # read-only checkout: trajectory is best-effort
        self.progress(
            f"[{self.spec.name}] assembled in {wall:.1f}s "
            f"({run_stats.simulations} simulations, "
            f"{run_stats.memory_hits + run_stats.disk_hits} cache hits)"
        )
        return summary

    # ------------------------------------------------------------------
    def _require_disk_cache(self, what: str) -> None:
        if self.runner.disk_cache is None:
            raise ShardedExecutionError(
                f"{what} needs the shared disk cache to coordinate between "
                f"processes, but it is disabled (REPRO_DISK_CACHE=0) — "
                f"enable it, or run without sharding"
            )

    def _seed_cells(self, manifest: Dict[str, object]) -> None:
        """Register every planned cell as ``status: planned`` (idempotent).

        Seeding the full key set up front is what makes ``repro status``
        meaningful mid-campaign (done/leased/pending partition the whole
        matrix, not just the cells this process touched) and makes the
        lock-free manifest merge safe: counts derive from the seeded key
        set plus disk-cache truth, never from per-worker updates alone.
        """
        records: Dict[str, Dict[str, object]] = {}
        for key, request in self.keyed_cells():
            records[key] = {
                "workload": request.workload,
                "variant": request.label,
                "kind": request.kind,
                "status": "planned",
            }
        self.store.record_cells(manifest, records, overwrite=False)

    def _record_cells(self, manifest: Dict[str, object],
                      requests: List[SimRequest],
                      owner: Optional[str] = None) -> None:
        records: Dict[str, Dict[str, object]] = {}
        for request in requests:
            key = self.runner.request_key(request)
            record: Dict[str, object] = {
                "workload": request.workload,
                "variant": request.label,
                "kind": request.kind,
                "status": "done",
            }
            if owner is not None:
                record["completed_by"] = owner
            records[key] = record
        self.store.record_cells(manifest, records)

    @staticmethod
    def _health_section(
        failures: Dict[str, Dict[str, object]],
    ) -> Dict[str, object]:
        """The deterministic ``health`` block of a degraded result.

        Only content-determined fields (keys, exception identity, attempt
        counts) — no owners, timestamps or durations — so a degraded merge
        stays byte-identical to a degraded single-host run hitting the same
        deterministic failures.
        """
        return {
            "state": "degraded",
            "failed": [
                {
                    "key": key,
                    "workload": record.get("workload"),
                    "variant": record.get("variant"),
                    "error_type": record.get("error_type"),
                    "message": record.get("message"),
                    "traceback_digest": record.get("traceback_digest"),
                    "attempts": record.get("attempts"),
                }
                for key, record in sorted(failures.items())
            ],
        }

    def _record_failed_cells(self, manifest: Dict[str, object],
                             failures: Dict[str, Dict[str, object]]) -> None:
        """Mark poisoned cells ``status: failed`` in the manifest."""
        records: Dict[str, Dict[str, object]] = {}
        for key, record in failures.items():
            records[key] = {
                "workload": record.get("workload"),
                "variant": record.get("variant"),
                "kind": record.get("kind"),
                "status": "failed",
            }
        if records:
            self.store.record_cells(manifest, records)

    @staticmethod
    def _tables(module, result) -> Dict[str, List[Dict[str, object]]]:
        hook = getattr(module, "artifact_tables", None)
        if hook is None:
            return {}
        return {name: list(rows) for name, rows in hook(result).items()}


def _resolve_spec(campaign: Union[str, CampaignSpec]) -> CampaignSpec:
    if isinstance(campaign, str):
        from repro.campaign.registry import get_campaign

        spec = get_campaign(campaign)
        if spec is None:
            raise SpecError(f"unknown campaign {campaign!r} (try `repro list`)")
        return spec
    return campaign


def run_campaign(
    campaign: Union[str, CampaignSpec],
    quick: bool = True,
    processes: Optional[int] = None,
    store: Optional[CampaignStore] = None,
    runner: Optional[ParallelExperimentRunner] = None,
    progress: Optional[Progress] = None,
    bench_report: bool = True,
    retry_policy: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Resolve ``campaign`` (name or spec) and execute it."""
    scheduler = CampaignScheduler(
        _resolve_spec(campaign), quick=quick, processes=processes, store=store,
        runner=runner, progress=progress, bench_report=bench_report,
        retry_policy=retry_policy, cell_timeout=cell_timeout,
    )
    return scheduler.run()
