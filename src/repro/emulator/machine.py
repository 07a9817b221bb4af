"""Architectural interpreter producing committed dynamic traces."""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Tuple

from repro.emulator.trace import DynamicInst, Trace
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, ZERO_REGISTER

#: Values are wrapped to 64-bit two's complement, as on a real machine.
_MASK64 = (1 << 64) - 1
_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1


def _to_signed(value: int) -> int:
    return ((value - _MIN64) & _MASK64) + _MIN64


#: Two-operand ALU semantics.  Immediate forms take the immediate as their
#: second operand (``LI`` adds it to the zero register); ``MOV`` adds 0.
_ALU: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: operator.add, Opcode.FADD: operator.add, Opcode.ADDI: operator.add,
    Opcode.LI: operator.add, Opcode.MOV: operator.add, Opcode.SUB: operator.sub,
    Opcode.AND: operator.and_, Opcode.ANDI: operator.and_, Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor, Opcode.MUL: operator.mul, Opcode.FMUL: operator.mul,
    Opcode.SHL: lambda a, b: a << (b & 63),
    Opcode.SHR: lambda a, b: (a & _MASK64) >> (b & 63),
    Opcode.SLT: lambda a, b: int(a < b), Opcode.SEQ: lambda a, b: int(a == b),
    Opcode.DIV: lambda a, b: 0 if b == 0 else a // b,
    Opcode.FDIV: lambda a, b: 0 if b == 0 else a // b,
    Opcode.MOD: lambda a, b: 0 if b == 0 else a % b,
}
_IMMEDIATE = {Opcode.ADDI, Opcode.ANDI, Opcode.LI}

#: Branches and jumps: ``taken`` from the two source values.
_BRANCH: Dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQZ: lambda a, b: a == 0, Opcode.BNEZ: lambda a, b: a != 0,
    Opcode.BLT: operator.lt, Opcode.BGE: operator.ge, Opcode.JUMP: lambda a, b: True,
}

#: One pre-decoded static instruction: ``seq -> (record, next_pc)``.
Step = Callable[[int], Tuple[DynamicInst, int]]


class ExecutionLimitExceeded(RuntimeError):
    """Raised when ``strict`` execution hits the dynamic instruction limit."""


class _Halted(Exception):
    """Raised by a ``HALT`` step to end the run loop; its argument is the record."""


def _checked(step: Step, pc: int, size: int) -> Step:
    """``step`` plus the check that control stays inside the program."""
    def run(seq):
        record, next_pc = step(seq)
        if not 0 <= next_pc < size:
            raise RuntimeError(f"control transfer to invalid pc {next_pc} from pc {pc}")
        return record, next_pc
    return run


def _decode(inst: Instruction, size: int, regs: List[int], mem: Dict[int, int]) -> Step:
    """The closure that executes ``inst`` over ``regs`` and ``mem``.

    Register 0 is never written, so it always reads 0; every register holds
    a wrapped value, so copies and stores need no wrapping.
    """
    op, pc, imm, target = inst.opcode, inst.pc, inst.imm, inst.target
    a, b = (tuple(inst.srcs) + (ZERO_REGISTER, ZERO_REGISTER))[:2]
    dst = inst.dst if inst.dst != ZERO_REGISTER else None
    nxt = pc + 1
    if op is Opcode.LOAD:
        def step(seq):
            ea = regs[a] + imm
            value = None
            if dst is not None:
                value = mem.get(ea, 0)
                if not _MIN64 <= value <= _MAX64:
                    value = _to_signed(value)
                regs[dst] = value
            return DynamicInst(seq, inst, value, ea, None, nxt), nxt
    elif op is Opcode.STORE:
        def step(seq):
            ea = regs[a] + imm
            mem[ea] = regs[b]
            return DynamicInst(seq, inst, None, ea, None, nxt), nxt
    elif op in _ALU and dst is not None:
        fn, offset = _ALU[op], 0
        if op in _IMMEDIATE:   # the zero register plus the immediate
            b, offset = ZERO_REGISTER, imm

        def step(seq):
            value = fn(regs[a], regs[b] + offset)
            if not _MIN64 <= value <= _MAX64:
                value = _to_signed(value)
            regs[dst] = value
            return DynamicInst(seq, inst, value, None, None, nxt), nxt
    elif op in _BRANCH:
        taken_if = _BRANCH[op]

        def step(seq):
            if taken_if(regs[a], regs[b]):
                return DynamicInst(seq, inst, None, None, True, target), target
            return DynamicInst(seq, inst, None, None, False, nxt), nxt
    elif op is Opcode.CALL:
        def step(seq):
            if dst is not None:
                regs[dst] = nxt
            return DynamicInst(seq, inst, None if dst is None else nxt, None, True,
                               target), target
    elif op is Opcode.RET:
        def step(seq):
            return_pc = regs[a]
            return DynamicInst(seq, inst, None, None, True, return_pc), return_pc
    elif op is Opcode.HALT:
        def step(seq):
            raise _Halted(DynamicInst(seq, inst, None, None, None, pc))
    elif op is Opcode.NOP or op in _ALU:   # ALU ops writing no register
        def step(seq):
            return DynamicInst(seq, inst, None, None, None, nxt), nxt
    else:  # pragma: no cover - every opcode is handled above
        raise NotImplementedError(f"unhandled opcode {op}")
    return _checked(step, pc, size) if nxt == size or op is Opcode.RET else step


class Emulator:
    """Functional execution engine.

    The emulator is deterministic and side-effect free with respect to the
    :class:`~repro.isa.program.Program` it runs: the program's initial data
    image is copied at reset, so running the same program twice yields
    identical traces.  Each run pre-decodes every static instruction into a
    closure over the architectural state, so the run loop does no opcode
    dispatch.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore architectural state to the program's initial image."""
        self.registers: List[int] = [0] * NUM_REGISTERS
        self.memory: Dict[int, int] = dict(self.program.data)
        self.pc = self.program.entry_point
        self.halted = False

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 1_000_000, strict: bool = False) -> Trace:
        """Execute until ``HALT`` or the dynamic-instruction limit.

        Parameters
        ----------
        max_instructions:
            Upper bound on committed instructions.
        strict:
            When ``True`` an :class:`ExecutionLimitExceeded` is raised if the
            limit is hit before the program halts; otherwise the partial
            trace is returned with ``completed=False``.
        """
        self.reset()
        size = len(self.program)
        steps = [_decode(inst, size, self.registers, self.memory) for inst in self.program]
        entries: List[DynamicInst] = []
        append = entries.append
        pc = self.pc
        try:
            for seq in range(max_instructions):
                record, pc = steps[pc](seq)
                append(record)
        except _Halted as halt:
            append(halt.args[0])
            self.halted = True
        finally:
            self.pc = pc
        if not self.halted and strict:
            raise ExecutionLimitExceeded(
                f"program {self.program.name!r} did not halt within "
                f"{max_instructions} instructions"
            )
        return Trace(self.program, entries, completed=self.halted)


def run_program(program: Program, max_instructions: int = 1_000_000) -> Trace:
    """Convenience wrapper: execute ``program`` and return its trace."""
    return Emulator(program).run(max_instructions=max_instructions)
