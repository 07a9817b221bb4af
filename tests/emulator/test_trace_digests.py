"""The functional emulator's traces, pinned per registered workload.

``tests/data/trace_digests.json`` holds one SHA-256 digest per workload over
every committed entry's ``(pc, opcode, result, effective_address, taken,
next_pc)``.  The digests were recorded with the original opcode-dispatch
emulator, so any rewrite of :mod:`repro.emulator.machine` must reproduce its
traces exactly.  Re-record (only after a deliberate ISA change) with::

    PYTHONPATH=src python tests/emulator/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.emulator.machine import Emulator
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.workloads.suites import all_workloads

DIGESTS = Path(__file__).resolve().parents[1] / "data" / "trace_digests.json"

#: Instructions emulated per workload: the full-mode set-up window
#: (15k warm-up + 15k timed + 1k slack), the longest any runner requests.
CAP = 31_000


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for entry in trace:
        digest.update((
            f"{entry.static.pc},{entry.static.opcode.name},{entry.result},"
            f"{entry.effective_address},{entry.taken},{entry.next_pc};"
        ).encode())
    return digest.hexdigest()


def workload_digests() -> dict:
    return {
        workload.name: trace_digest(
            Emulator(workload.build_program()).run(max_instructions=CAP))
        for workload in all_workloads()
    }


def test_workload_traces_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert recorded["cap"] == CAP
    assert workload_digests() == recorded["workloads"]


@pytest.mark.parametrize("target", [1000, -1])
def test_ret_to_invalid_pc_raises_when_executed(target):
    b = ProgramBuilder("bad-ret")
    b.li(31, target)
    b.ret()
    b.halt()
    emulator = Emulator(b.build())
    with pytest.raises(RuntimeError, match=f"invalid pc {target} from pc 1"):
        emulator.run(max_instructions=10)


def test_running_off_the_end_raises_when_executed():
    program = Program([
        Instruction(pc=0, opcode=Opcode.LI, dst=1, imm=3),
        Instruction(pc=1, opcode=Opcode.ADDI, dst=1, srcs=(1,), imm=1),
    ], name="no-halt")
    # Building the program and running it short of its end is fine.
    assert len(Emulator(program).run(max_instructions=1)) == 1
    with pytest.raises(RuntimeError, match="invalid pc 2 from pc 1"):
        Emulator(program).run(max_instructions=10)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {"cap": CAP, "workloads": workload_digests()}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {DIGESTS}")
