"""Host-speed sampling, to report host times at one reference speed.

The host this benchmark was tuned on, a 2-CPU virtual machine sharing its
physical host, drifts: the same work runs 0.7x to 1.3x its median speed in
phases lasting from seconds to minutes.  A whole run can fall inside a slow
phase, so more work per run does not average the drift out.

While a round runs, :class:`HostSpeed` interrupts it every :data:`INTERVAL`
seconds (``SIGALRM``) and times two fixed calibration loops, which
therefore see the same phases as the work:

* scattered lookups in a 200k-entry dictionary, a working set larger than
  the host's per-core caches, like the simulator's;
* a tight integer loop that stays in the core.

Alone, the first moved less than the simulator and the second more; the
geometric mean of their speeds tracked it best.  Timed between simulations
over 15 s windows, the quartile spread of the simulator's speed was 0.21 to
0.24 in a noisy period and its ratio to this combined speed 0.07 to 0.08.
The simulator reacts more strongly than the combined speed, so the speed is
raised to :data:`SENSITIVITY` before it scales work.

A round's host times are then converted to *reference seconds*: the time
spent in the handler counts zero, and every stretch of work is scaled by the
combined speed measured around it relative to the reference host's.  On a
host running at the reference speed a reference second is a second.

The handler adds its seconds to :data:`HANDLER_SECONDS`, so a timer that
reads it at both ends of a section can leave the handler's time out, and
:func:`build_table` reports the resident memory the lookup table takes, so
a memory figure can leave the table out.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between calibration samples.
INTERVAL = 0.05
#: Calibration samples in the running median that sets the local speed.
SMOOTHING = 9
#: How strongly the benchmark's host times follow the combined speed: over
#: twenty runs of each workload, the log-log slope of a round's host wall
#: time against the combined speed was 1.6 for ``campaign_cold``,
#: ``sim_long`` and ``memsys_contended`` and 0.8 for ``campaign_warm``
#: (unpickling and file reads).  1.3 narrowed the run-to-run spread of all
#: four from what 1.0 left.
SENSITIVITY = 1.3
#: Median in-round times of the two loops on the reference host (a 2-CPU
#: Intel Xeon virtual machine, Python 3.11.7).
REFERENCE_LOOKUPS_S = 0.0012
REFERENCE_ARITHMETIC_S = 0.0004

#: Host seconds spent in the sampling handler so far in this process.  A
#: one-element list, so timing wrappers can read it at little cost.
HANDLER_SECONDS = [0.0]

_TABLE_SIZE = 200_000
_TABLE = {}


def _resident_kib() -> int:
    try:
        resident_pages = int(open("/proc/self/statm").read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    return resident_pages * (os.sysconf("SC_PAGE_SIZE") // 1024)


def build_table() -> int:
    """Build the lookup table now; the resident KiB it added."""
    before = _resident_kib()
    lookups(1)
    return max(_resident_kib() - before, 0)


def lookups(loops: int = 1000) -> int:
    table = _TABLE
    if not table:
        table.update((key * 7919, key) for key in range(_TABLE_SIZE))
    total = 0
    for i in range(loops):
        total += table.get(((i * 2654435761) % _TABLE_SIZE) * 7919, 0)
    return total


def arithmetic(loops: int = 5000) -> int:
    total = 0
    for i in range(loops):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the calibration loops on a timer signal while active.

    After the window closes, :meth:`reference` converts any host-time
    section inside it to reference seconds by integrating the host speed
    over the section.  Each stretch of work between two samples is scaled
    by the combined speed around it (running medians of :data:`SMOOTHING`
    samples per loop), and the handler's own time counts zero.
    """

    def __init__(self) -> None:
        #: (handler start, handler seconds, lookups s, arithmetic s).
        self.samples: List[Tuple[float, float, float, float]] = []
        self.started = 0.0
        self.stopped = 0.0
        self.cpu_seconds = 0.0
        self._cpu = 0.0
        self._previous = None
        self._edges: List[float] = []
        self._clock: List[float] = []
        self._work: List[float] = []
        self._scales: List[float] = []

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        lookups()
        middle = time.perf_counter()
        arithmetic()
        ended = time.perf_counter()
        HANDLER_SECONDS[0] += ended - started
        self.samples.append((started, ended - started, middle - started, ended - middle))

    def __enter__(self) -> "HostSpeed":
        lookups(1)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.started = time.perf_counter()
        self._cpu = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.stopped = time.perf_counter()
        self.cpu_seconds = time.process_time() - self._cpu
        signal.signal(signal.SIGALRM, self._previous)
        self._integrate()

    def medians(self) -> Tuple[float, float]:
        """Median host seconds of the lookup loop and of the arithmetic loop."""
        if not self.samples:
            return 0.0, 0.0
        return (statistics.median(s[2] for s in self.samples),
                statistics.median(s[3] for s in self.samples))

    def _integrate(self) -> None:
        """Reference time and host work time at the start and end of every
        work stretch."""
        lookups_s = [s[2] for s in self.samples]
        arithmetic_s = [s[3] for s in self.samples]
        half = SMOOTHING // 2
        edges, clock, work, scales = [self.started], [0.0], [0.0], []
        for index, (start, spent, _lookups, _arithmetic) in enumerate(self.samples):
            window = slice(max(0, index - half), index + half + 1)
            speed = math.sqrt(REFERENCE_LOOKUPS_S / statistics.median(lookups_s[window])
                              * REFERENCE_ARITHMETIC_S
                              / statistics.median(arithmetic_s[window]))
            scale = speed ** SENSITIVITY
            scales.append(scale)
            clock.append(clock[-1] + (start - edges[-1]) * scale)   # work
            work.append(work[-1] + (start - edges[-1]))
            edges.append(start)
            clock.append(clock[-1])                                 # handler
            work.append(work[-1])
            edges.append(start + spent)
        scales.append(scales[-1] if scales else 1.0)
        clock.append(clock[-1] + (self.stopped - edges[-1]) * scales[-1])
        work.append(work[-1] + (self.stopped - edges[-1]))
        edges.append(self.stopped)
        self._edges, self._clock, self._work, self._scales = edges, clock, work, scales

    def _at(self, moment: float, scaled: bool = True) -> float:
        """Reference seconds (or, unscaled, host seconds of work) elapsed from
        the window's start to ``moment``."""
        edges = self._edges
        totals = self._clock if scaled else self._work
        moment = min(max(moment, edges[0]), edges[-1])
        index = max(bisect.bisect_right(edges, moment) - 1, 0)
        if index >= len(edges) - 1:
            return totals[-1]
        if index % 2 == 1:        # inside a handler: the clock stands still
            return totals[index]
        scale = self._scales[index // 2] if scaled else 1.0
        return totals[index] + (moment - edges[index]) * scale

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the host-time section ``[start, end]``."""
        return self._at(end) - self._at(start)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``."""
        return self.reference(start, end) / (end - start) if end > start else 1.0

    def work_factor(self, start: float, end: float) -> float:
        """Reference seconds per host second of work, the handler's time left
        out, over ``[start, end]``: the factor for times that already leave
        the handler out."""
        work = self._at(end, scaled=False) - self._at(start, scaled=False)
        return self.reference(start, end) / work if work > 0 else 1.0
