"""Generated programs for the simulation workloads.

Each program is a registered kernel built with larger parameters than any
registered workload and a seed of CRC-32 over ``"<program seed>:<label>"``
(never ``hash()``, which is salted per process).  Labels start with
``bench-``, so no program collides with a registered workload name, and the
goldens, which use registered workloads only, never see these inputs.

The program seed is fixed at :data:`PROGRAM_SEED`: the benchmark's digests
in ``data/digests.json`` are recorded for it, so every run can check its
simulated statistics exactly.  A run's ``--seed`` orders the cells instead.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

#: Seed the recorded digests belong to.
PROGRAM_SEED = 1

#: Warm-up and timed window lengths (dynamic instructions).  The warm-up
#: window replays through the caches before statistics start.
WARMUP = 10_000
TIMED = 40_000

#: (label, kernel, parameters) per workload.
PROGRAMS: Dict[str, Tuple[Tuple[str, str, Dict[str, object]], ...]] = {
    # Latency-, branch- and indirection-bound kernels on the default machine.
    "sim_long": (
        ("bench-pointer-chase", "pointer_chase", dict(nodes=8192, hops=40_000)),
        ("bench-branchy", "branchy_compute", dict(elements=40_000)),
        ("bench-graph", "graph_traverse", dict(nodes=4096, sweeps=4)),
        ("bench-spmv", "spmv", dict(rows=4096)),
    ),
    # Memory-bound and store-heavy kernels on the contended machine.  With
    # no payload work between accesses the triad's stores fill the write
    # buffers and the probes fill the DRAM queues; the stencil writes back
    # without stalling.
    "memsys_contended": (
        ("bench-stencil", "stencil", dict(width=256, height=128, iterations=2)),
        ("bench-triad", "stream_triad", dict(elements=20_000, payload=0)),
        ("bench-hash-probe", "hash_probe", dict(table_size=32_768, probes=20_000,
                                                payload=0)),
    ),
}


def program_seed(label: str, seed: int = PROGRAM_SEED) -> int:
    return zlib.crc32(f"{seed}:{label}".encode("utf-8")) & 0x7FFFFFFF


def build_program(label: str, kernel: str, params: Dict[str, object]):
    """Build one generated program through the public kernel builder.

    ``build_kernel`` is looked up on its module at call time so an
    installed tracer sees the call.
    """
    from repro.util.rng import DeterministicRng
    from repro.workloads import kernels

    rng = DeterministicRng(program_seed(label))
    return kernels.build_kernel(kernel, rng=rng, name=label, **params)


def program_digest(program) -> str:
    """Content digest of a program's instructions and initial memory."""
    import hashlib

    digest = hashlib.sha256()
    for inst in program.instructions:
        digest.update(repr((inst.pc, inst.opcode.name, inst.dst, inst.srcs,
                            inst.imm, inst.target)).encode("utf-8"))
    digest.update(repr(sorted(program.data.items())).encode("utf-8"))
    return digest.hexdigest()[:16]
