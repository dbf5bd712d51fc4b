"""Functional (architectural) simulation.

Two executors live here:

* :class:`FunctionalSimulator` — the golden model.  Executes a program
  sequentially on one architectural state, optionally recording the dynamic
  trace that drives the timing simulators.

* :class:`DecoupledFunctionalSimulator` — executes an *annotated* program
  with **two register files** (CP and AP) connected only by the LDQ/SDQ
  queues, exactly like the real HiDISC datapath.  Each instruction executes
  on its stream's register file; values cross streams only through explicit
  communication instructions.  Running this and comparing final memory with
  the golden model is the soundness check for the stream separation
  (DESIGN.md "Separation soundness").

Both share one interpreter: the program text becomes a per-pc table of
``(state, step)`` entries and :func:`_run` is the one run loop over it (the
sequential executor is the one-state case).  A step is a zero-argument
closure returning ``(addr, next_pc)``.  By default each step is compiled
for its static instruction by :func:`_compile_step`; ``fast=False`` builds
the reference table instead, whose every entry calls :func:`_execute`, the
if/elif interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from ..asm.program import DATA_BASE, MEMORY_BYTES, STACK_TOP, Program
from ..errors import SimulationError
from ..isa.instruction import Instruction, Stream
from ..isa.opcodes import COMM_OPS, Op
from ..isa.registers import NAME_TO_REG, ZERO
from ..utils import sign_extend, to_signed64, to_unsigned64
from .memory import MainMemory
from .queues import QueueSet


class ArchState:
    """Registers + memory + pc of one logical processor."""

    __slots__ = ("regs", "memory", "pc", "halted")

    def __init__(self, memory: MainMemory):
        # Indices 0..31 integer registers (Python ints, canonical signed
        # 64-bit), 32..63 FP registers (Python floats).
        self.regs: list = [0] * 32 + [0.0] * 32
        self.memory = memory
        self.pc = 0
        self.halted = False


def load_program(program: Program) -> ArchState:
    """Create an architectural state with the program's data image loaded."""
    memory = MainMemory(MEMORY_BYTES)
    if program.data:
        memory.write_bytes(DATA_BASE, bytes(program.data))
    state = ArchState(memory)
    state.regs[NAME_TO_REG["sp"]] = STACK_TOP - 64
    state.pc = program.entry
    return state


@dataclass
class DynInstr:
    """One dynamic instruction instance (a trace record).

    ``pc`` is the static instruction index; ``addr`` the effective byte
    address for memory operations (-1 otherwise); ``next_pc`` the *actual*
    next instruction index (the branch oracle for the timing front-end).
    """

    __slots__ = ("pc", "addr", "next_pc")

    pc: int
    addr: int
    next_pc: int


def _recorder(trace, top: int):
    """``(record, pc_append, addr_append, finish)`` for one run.

    The run appends to two lists (a ``list.append`` costs half an
    ``array.append`` or less), and ``finish``, called however the run
    stops, converts them once.  A :class:`~repro.sim.trace.Trace` takes
    them as compact columns, its pc typecode sized by *top*, the
    program's largest static index
    (:meth:`~repro.sim.trace.Trace.append_run`).  A list receives
    ``DynInstr`` records, with ``next_pc`` derived from the next record's
    pc.  ``None`` records nothing.
    """
    if trace is None:
        return False, None, None, lambda: None
    pcs: list[int] = []
    addrs: list[int] = []
    if isinstance(trace, list):
        from .trace import Trace

        def finish() -> None:
            trace.extend(Trace(pcs, addrs).records())
    else:
        def finish() -> None:
            trace.append_run(pcs, addrs, top)
    return True, pcs.append, addrs.append, finish


class _Halt(Exception):
    """Internal signal: the program executed HALT."""


def _run(table: list, pc: int, max_steps: int, trace, limit: str,
         resume: ArchState | None = None) -> int:
    """The run loop: execute *table* from *pc* until HALT.

    Each entry is ``(state, step)``: the loop sets ``state.pc`` and calls
    ``step()``, which returns ``(addr, next_pc)`` or raises ``_Halt``.
    Returns the instructions executed, HALT included; raises
    ``SimulationError(limit)`` once *max_steps* have run.  *trace* is as
    for :meth:`FunctionalSimulator.run`.  However the run stops, *resume*
    (if given) is left at the loop's pc: the HALT, the faulting
    instruction, or the next one to execute.
    """
    n = len(table)
    record, pc_append, addr_append, finish = _recorder(trace, n - 1)
    try:
        for steps in range(max_steps):
            if not 0 <= pc < n:
                raise SimulationError(f"pc {pc} outside text segment")
            state, step = table[pc]
            state.pc = pc
            addr, next_pc = step()
            if record:
                pc_append(pc)
                addr_append(addr)
            pc = next_pc
        raise SimulationError(limit)
    except _Halt:
        if record:
            pc_append(pc)
            addr_append(-1)
        return steps + 1
    finally:
        finish()
        if resume is not None:
            resume.pc = pc


class FunctionalSimulator:
    """Sequential golden-model executor."""

    def __init__(self, program: Program):
        self.program = program
        self.state = load_program(program)
        self.instructions_executed = 0

    # ------------------------------------------------------------------
    def run(self, max_steps: int = 50_000_000, trace=None,
            fast: bool = True) -> ArchState:
        """Run to HALT (or *max_steps*); optionally record the trace.

        *trace* is a :class:`~repro.sim.trace.Trace` to fill, or a list
        to fill with ``DynInstr`` records.  *fast* selects the compiled
        step table; ``fast=False`` runs the reference table, every entry
        of which is the if/elif interpreter :func:`_execute`.  The two are
        architecturally identical (pinned by
        ``tests/test_functional_fast.py`` and fuzz stage 1).  A run
        stopped by *max_steps* leaves ``state.pc`` at the next
        instruction to execute.
        """
        state = self.state
        if state.halted:
            return state
        compile_step = _compile_step if fast else _reference_step
        table = [(state, compile_step(pc, instr, state, None))
                 for pc, instr in enumerate(self.program.text)]
        self.instructions_executed += _run(
            table, state.pc, max_steps, trace,
            f"{self.program.name}: exceeded {max_steps} steps "
            f"(infinite loop?)", resume=state)
        state.halted = True
        return state


class DecoupledFunctionalSimulator:
    """Execute an annotated program on split CP/AP register files.

    The interleaved (sequential) instruction order is preserved — this is a
    *functional* model of the separator + two processors, not a timing
    model.  Architectural memory is shared (only the AP touches it).
    """

    def __init__(self, program: Program):
        self.program = program
        self.ap_state = load_program(program)
        # The CP starts from the same registers and shares the AP's memory,
        # which it never accesses.
        self.cp_state = ArchState(self.ap_state.memory)
        self.cp_state.regs = list(self.ap_state.regs)
        self.queues = QueueSet()
        self.instructions_executed = 0

    def run(self, max_steps: int = 50_000_000, trace=None,
            fast: bool = True) -> ArchState:
        """Run to HALT; returns the AP state (owner of memory).

        *trace* and *fast* are as for :meth:`FunctionalSimulator.run`; the
        trace is the interleaved dynamic stream the decoupled timing
        models replay.  Each step is bound to its stream's register file,
        and each state's ``pc`` is the last instruction it executed.  An
        unannotated instruction raises when it executes, not when the
        table is built.
        """
        program = self.program
        compile_step = _compile_step if fast else _reference_step
        files = {Stream.CS: self.cp_state, Stream.AS: self.ap_state}
        table = []
        for pc, instr in enumerate(program.text):
            state = files.get(instr.ann.stream)
            if state is None:
                # Belongs to no register file: the step raises first.
                table.append((SimpleNamespace(), _raising(
                    f"instruction {pc} has no stream annotation; "
                    f"run the slicer first")))
            else:
                table.append(
                    (state, compile_step(pc, instr, state, self.queues)))
        self.instructions_executed += _run(
            table, program.entry, max_steps, trace,
            f"{program.name}: exceeded {max_steps} steps in decoupled "
            f"functional run")
        self.ap_state.halted = True
        return self.ap_state


# ----------------------------------------------------------------------
# The reference interpreter.
#
# Returns (effective_address_or_-1, next_pc).  Raises _Halt on HALT.
# `queues` is None for the sequential golden model; communication opcodes
# are illegal there (the original program has none).
# ----------------------------------------------------------------------
def _execute(instr: Instruction, state: ArchState,
             queues: QueueSet | None) -> tuple[int, int]:
    op = instr.op
    regs = state.regs
    pc = state.pc
    next_pc = pc + 1
    addr = -1

    # "$LDQ" source operands (paper Figure 6): the value comes from the
    # queue, not the register file.  The register is temporarily shadowed
    # for the duration of this instruction and restored afterwards (unless
    # the instruction overwrote it as its destination).
    restore: tuple | None = None
    ann = instr.ann
    if queues is not None and (ann.ldq_rs1 or ann.ldq_rs2):
        restore = ()
        if ann.ldq_rs1:
            restore += ((instr.rs1, regs[instr.rs1]),)
            regs[instr.rs1] = queues.ldq.pop()
        if ann.ldq_rs2:
            restore += ((instr.rs2, regs[instr.rs2]),)
            regs[instr.rs2] = queues.ldq.pop()
    try:
        addr, next_pc = _execute_op(instr, state, queues, op, regs, pc,
                                    next_pc, addr)
    finally:
        if restore is not None:
            dest = instr.dest_reg()
            for reg, old in restore:
                if reg != dest:
                    regs[reg] = old
    # "$SDQ" destination (paper Figure 3/6): the result is also deposited
    # in the Store Data Queue for a downstream store.
    if queues is not None and ann.to_sdq:
        dest = instr.dest_reg()
        if dest is None:
            raise SimulationError(f"to_sdq on an instruction without a "
                                  f"destination (pc {pc})")
        queues.sdq.push(regs[dest])
    return addr, next_pc


def _execute_op(instr: Instruction, state: ArchState,
                queues: QueueSet | None, op, regs, pc: int, next_pc: int,
                addr: int) -> tuple[int, int]:

    # Grouped by frequency: ALU, memory, control, FP, communication.
    if op is Op.ADD:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] + regs[instr.rs2]))
    elif op is Op.ADDI:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] + instr.imm))
    elif op is Op.SUB:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] - regs[instr.rs2]))
    elif op is Op.MUL:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] * regs[instr.rs2]))
    elif op is Op.MULI:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] * instr.imm))
    elif op is Op.DIV or op is Op.REM:
        a, b = regs[instr.rs1], regs[instr.rs2]
        if b == 0:
            # RISC-V-defined division by zero: quotient all-ones (-1),
            # remainder the dividend.  No trap.
            q, r = -1, a
        else:
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            r = a - q * b
        _wr(regs, instr.rd, to_signed64(q if op is Op.DIV else r))
    elif op is Op.AND:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] & regs[instr.rs2]))
    elif op is Op.OR:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] | regs[instr.rs2]))
    elif op is Op.XOR:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] ^ regs[instr.rs2]))
    elif op is Op.NOR:
        _wr(regs, instr.rd, to_signed64(~(regs[instr.rs1] | regs[instr.rs2])))
    elif op is Op.SLL:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] << (regs[instr.rs2] & 63)))
    elif op is Op.SRL:
        _wr(regs, instr.rd,
            to_signed64(to_unsigned64(regs[instr.rs1]) >> (regs[instr.rs2] & 63)))
    elif op is Op.SRA:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] >> (regs[instr.rs2] & 63)))
    elif op is Op.SLT:
        _wr(regs, instr.rd, int(regs[instr.rs1] < regs[instr.rs2]))
    elif op is Op.SLTU:
        _wr(regs, instr.rd,
            int(to_unsigned64(regs[instr.rs1]) < to_unsigned64(regs[instr.rs2])))
    elif op is Op.ANDI:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] & instr.imm))
    elif op is Op.ORI:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] | instr.imm))
    elif op is Op.XORI:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] ^ instr.imm))
    elif op is Op.SLLI:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] << (instr.imm & 63)))
    elif op is Op.SRLI:
        _wr(regs, instr.rd,
            to_signed64(to_unsigned64(regs[instr.rs1]) >> (instr.imm & 63)))
    elif op is Op.SRAI:
        _wr(regs, instr.rd, to_signed64(regs[instr.rs1] >> (instr.imm & 63)))
    elif op is Op.SLTI:
        _wr(regs, instr.rd, int(regs[instr.rs1] < instr.imm))
    elif op is Op.LI:
        _wr(regs, instr.rd, to_signed64(instr.imm))
    elif op is Op.MOV:
        _wr(regs, instr.rd, regs[instr.rs1])

    # --- memory --------------------------------------------------------
    elif op is Op.LD or op is Op.LW or op is Op.LBU or op is Op.FLD:
        addr = to_unsigned64(regs[instr.rs1] + instr.imm)
        if op is Op.FLD:
            value = regs[instr.rd] = state.memory.load_f64(addr)
        else:
            value = state.memory.load(addr, op.info.mem_bytes)
            if op is Op.LW:
                value = sign_extend(value, 32)
            _wr(regs, instr.rd, value)
        if instr.ann.to_ldq:
            if queues is None:
                raise SimulationError(f"$LDQ load outside decoupled run (pc {pc})")
            queues.ldq.push(value)
    elif op is Op.SD or op is Op.SW or op is Op.SB or op is Op.FSD:
        addr = to_unsigned64(regs[instr.rs1] + instr.imm)
        if instr.ann.sdq_data:
            if queues is None:
                raise SimulationError(f"SDQ store outside decoupled run (pc {pc})")
            value = queues.sdq.pop()
        else:
            value = regs[instr.rs2]
        if op is Op.FSD:
            state.memory.store_f64(addr, float(value))
        else:
            state.memory.store(addr, to_unsigned64(int(value)),
                               op.info.mem_bytes)

    # --- control ---------------------------------------------------------
    elif op is Op.BEQ:
        if regs[instr.rs1] == regs[instr.rs2]:
            next_pc = instr.target
    elif op is Op.BNE:
        if regs[instr.rs1] != regs[instr.rs2]:
            next_pc = instr.target
    elif op is Op.BLT:
        if regs[instr.rs1] < regs[instr.rs2]:
            next_pc = instr.target
    elif op is Op.BGE:
        if regs[instr.rs1] >= regs[instr.rs2]:
            next_pc = instr.target
    elif op is Op.BEQZ:
        if regs[instr.rs1] == 0:
            next_pc = instr.target
    elif op is Op.BNEZ:
        if regs[instr.rs1] != 0:
            next_pc = instr.target
    elif op is Op.J:
        next_pc = instr.target
    elif op is Op.JAL:
        _wr(regs, NAME_TO_REG["ra"], pc + 1)
        next_pc = instr.target
    elif op is Op.JR:
        next_pc = regs[instr.rs1]
    elif op is Op.HALT:
        raise _Halt()
    elif op is Op.NOP:
        pass

    # --- floating point --------------------------------------------------
    elif op is Op.FADD:
        regs[instr.rd] = regs[instr.rs1] + regs[instr.rs2]
    elif op is Op.FSUB:
        regs[instr.rd] = regs[instr.rs1] - regs[instr.rs2]
    elif op is Op.FMUL:
        regs[instr.rd] = regs[instr.rs1] * regs[instr.rs2]
    elif op is Op.FDIV:
        b = regs[instr.rs2]
        if b == 0.0:
            raise SimulationError(f"FP division by zero at pc {pc}")
        regs[instr.rd] = regs[instr.rs1] / b
    elif op is Op.FNEG:
        regs[instr.rd] = -regs[instr.rs1]
    elif op is Op.FABS:
        regs[instr.rd] = abs(regs[instr.rs1])
    elif op is Op.FSQRT:
        v = regs[instr.rs1]
        if v < 0.0:
            raise SimulationError(f"FSQRT of negative value at pc {pc}")
        regs[instr.rd] = v ** 0.5
    elif op is Op.FMOV:
        regs[instr.rd] = regs[instr.rs1]
    elif op is Op.FMIN:
        regs[instr.rd] = min(regs[instr.rs1], regs[instr.rs2])
    elif op is Op.FMAX:
        regs[instr.rd] = max(regs[instr.rs1], regs[instr.rs2])
    elif op is Op.FEQ:
        _wr(regs, instr.rd, int(regs[instr.rs1] == regs[instr.rs2]))
    elif op is Op.FLT:
        _wr(regs, instr.rd, int(regs[instr.rs1] < regs[instr.rs2]))
    elif op is Op.FLE:
        _wr(regs, instr.rd, int(regs[instr.rs1] <= regs[instr.rs2]))
    elif op is Op.ITOF:
        regs[instr.rd] = float(regs[instr.rs1])
    elif op is Op.FTOI:
        _wr(regs, instr.rd, to_signed64(int(regs[instr.rs1])))

    # --- HiDISC communication ---------------------------------------------
    elif op in COMM_OPS:
        if queues is None:
            raise SimulationError(f"queue op outside decoupled run (pc {pc})")
        if op is Op.POP_LDQ:
            _wr(regs, instr.rd, int(queues.ldq.pop()))
        elif op is Op.POP_LDQF:
            regs[instr.rd] = float(queues.ldq.pop())
        elif op is Op.PUSH_LDQ or op is Op.PUSH_LDQF:
            queues.ldq.push(regs[instr.rs1])
        else:  # PUSH_SDQ / PUSH_SDQF
            queues.sdq.push(regs[instr.rs1])
    else:  # pragma: no cover - exhaustive over Op
        raise SimulationError(f"unimplemented opcode {op}")

    return addr, next_pc


def _wr(regs: list, rd: int, value: int) -> None:
    """Write an integer register, keeping ``r0`` hardwired to zero."""
    if rd != ZERO:
        regs[rd] = value


def _reference_step(pc: int, instr: Instruction, state: ArchState,
                    queues: QueueSet | None):
    """A reference-table entry: ``_execute`` on this instruction, looked
    up by name each time the entry runs."""
    return lambda: _execute(instr, state, queues)


# ----------------------------------------------------------------------
# The compiled step table.
#
# `_compile_step` turns one *static* instruction into a zero-argument step
# closure with the register file, memory, queues, operand indices,
# immediate and fall-through pc pre-bound, so the run loop pays one
# indexed call per instruction instead of walking the if/elif chain and
# re-reading ``instr`` attributes.  `_base_step` specialises the opcode;
# the annotations then wrap it in `_execute`'s own order.  Every step
# returns the same ``(addr, next_pc)`` pair as `_execute` and raises the
# same exceptions (pc is baked into the error messages at compile time).
# ----------------------------------------------------------------------
_s64 = to_signed64
_u64 = to_unsigned64

#: rd <- f(regs[rs1], regs[rs2]) for canonical-int results.
_ALU_RR = {
    Op.ADD: lambda a, b: _s64(a + b),
    Op.SUB: lambda a, b: _s64(a - b),
    Op.MUL: lambda a, b: _s64(a * b),
    Op.AND: lambda a, b: _s64(a & b),
    Op.OR: lambda a, b: _s64(a | b),
    Op.XOR: lambda a, b: _s64(a ^ b),
    Op.NOR: lambda a, b: _s64(~(a | b)),
    Op.SLL: lambda a, b: _s64(a << (b & 63)),
    Op.SRL: lambda a, b: _s64(_u64(a) >> (b & 63)),
    Op.SRA: lambda a, b: _s64(a >> (b & 63)),
    Op.SLT: lambda a, b: int(a < b),
    Op.SLTU: lambda a, b: int(_u64(a) < _u64(b)),
    Op.FEQ: lambda a, b: int(a == b),
    Op.FLT: lambda a, b: int(a < b),
    Op.FLE: lambda a, b: int(a <= b),
}

#: rd <- f(regs[rs1], imm) for canonical-int results.
_ALU_RI = {
    Op.ADDI: lambda a, imm: _s64(a + imm),
    Op.MULI: lambda a, imm: _s64(a * imm),
    Op.ANDI: lambda a, imm: _s64(a & imm),
    Op.ORI: lambda a, imm: _s64(a | imm),
    Op.XORI: lambda a, imm: _s64(a ^ imm),
    Op.SLLI: lambda a, imm: _s64(a << (imm & 63)),
    Op.SRLI: lambda a, imm: _s64(_u64(a) >> (imm & 63)),
    Op.SRAI: lambda a, imm: _s64(a >> (imm & 63)),
    Op.SLTI: lambda a, imm: int(a < imm),
}

#: FP-dest two-source ops (no r0 hardwiring in the FP file).
_FP_RR = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FMIN: min,
    Op.FMAX: max,
}

#: FP-dest single-source ops.
_FP_R1 = {
    Op.FNEG: lambda a: -a,
    Op.FABS: abs,
    Op.FMOV: lambda a: a,
    Op.ITOF: float,
}

#: conditional branches as predicates over (regs[rs1], regs[rs2]).
_BRANCHES = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: a < b,
    Op.BGE: lambda a, b: a >= b,
    Op.BEQZ: lambda a, b: a == 0,
    Op.BNEZ: lambda a, b: a != 0,
}

#: ops whose integer ``rd`` `_execute` writes through `_wr` (r0 stays 0).
_INT_RD = frozenset(_ALU_RR) | frozenset(_ALU_RI) | {
    Op.LI, Op.MOV, Op.LD, Op.LW, Op.LBU, Op.FTOI, Op.DIV, Op.REM, Op.POP_LDQ}

_RA = NAME_TO_REG["ra"]


def _raising(message: str, inner=None):
    """A step that runs *inner* (if any), then raises
    ``SimulationError(message)``."""
    def step():
        if inner is not None:
            inner()
        raise SimulationError(message)
    return step


def _keep_r0(inner, regs):
    """``rd == r0``: *inner*'s write to r0 is undone (r0 is hardwired)."""
    def step():
        result = inner()
        regs[ZERO] = 0
        return result
    return step


def _push_after(inner, regs, reg: int, push):
    """``to_ldq``/``to_sdq``: after *inner*, push register *reg*."""
    def step():
        result = inner()
        push(regs[reg])
        return result
    return step


def _shadow_ldq(inner, regs, instr: Instruction, pop):
    """``$LDQ`` source operands: each flagged register (rs1, then rs2)
    holds a popped value while *inner* runs, and is restored afterwards
    unless it is the destination."""
    ann = instr.ann
    dest = instr.dest_reg()
    if ann.ldq_rs1 and ann.ldq_rs2:
        r1, r2 = instr.rs1, instr.rs2
        def step():
            old1 = regs[r1]
            regs[r1] = pop()
            old2 = regs[r2]
            regs[r2] = pop()
            try:
                return inner()
            finally:
                if r1 != dest:
                    regs[r1] = old1
                if r2 != dest:
                    regs[r2] = old2
        return step
    reg = instr.rs1 if ann.ldq_rs1 else instr.rs2
    restore = reg != dest
    def step():
        old = regs[reg]
        regs[reg] = pop()
        try:
            return inner()
        finally:
            if restore:
                regs[reg] = old
    return step


def _sdq_store(regs, rs1: int, imm: int, npc: int, write, pop):
    """SDQ-fed store: the data is popped from the Store Data Queue (after
    the address is formed) and handed to ``write(addr, value)``."""
    def step():
        a = _u64(regs[rs1] + imm)
        write(a, pop())
        return a, npc
    return step


def _compile_step(pc: int, instr: Instruction, state: ArchState,
                  queues: QueueSet | None):
    """Compile one static instruction into a zero-arg ``() -> (addr, next_pc)``.

    *queues* is None in a sequential run, where queue ops, SDQ-fed stores
    and ``to_ldq`` loads raise the reference interpreter's message and the
    other queue annotations are ignored.
    """
    op = instr.op
    info = op.info
    ann = instr.ann
    regs = state.regs
    if queues is None:
        if op in COMM_OPS:
            return _raising(f"queue op outside decoupled run (pc {pc})")
        if info.is_store and ann.sdq_data:
            return _raising(f"SDQ store outside decoupled run (pc {pc})")
    # Wrapped innermost first, in _execute's order: the to_ldq push reads
    # rd before _keep_r0 undoes an r0 write, and the $LDQ restore and the
    # to_sdq push follow the op.
    step = _base_step(pc, instr, regs, state.memory, queues)
    to_ldq = info.is_load and ann.to_ldq
    if to_ldq and queues is not None:
        step = _push_after(step, regs, instr.rd, queues.ldq.push)
    if instr.rd == ZERO and op in _INT_RD:
        step = _keep_r0(step, regs)
    if queues is None:
        if to_ldq:
            step = _raising(f"$LDQ load outside decoupled run (pc {pc})",
                            step)
        return step
    if ann.ldq_rs1 or ann.ldq_rs2:
        step = _shadow_ldq(step, regs, instr, queues.ldq.pop)
    if ann.to_sdq:
        dest = instr.dest_reg()
        if dest is None:
            step = _raising(f"to_sdq on an instruction without a "
                            f"destination (pc {pc})", step)
        else:
            step = _push_after(step, regs, dest, queues.sdq.push)
    return step


def _base_step(pc: int, instr: Instruction, regs: list, memory: MainMemory,
               queues: QueueSet | None):
    """The opcode's own semantics, specialised on the instruction's fields
    (an SDQ-fed store pops its data here)."""
    op = instr.op
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
    imm, target = instr.imm, instr.target
    npc = pc + 1

    fn = _ALU_RR.get(op)
    if fn is not None:
        def step():
            regs[rd] = fn(regs[rs1], regs[rs2])
            return -1, npc
        return step

    fn = _ALU_RI.get(op)
    if fn is not None:
        def step():
            regs[rd] = fn(regs[rs1], imm)
            return -1, npc
        return step

    fn = _BRANCHES.get(op)
    if fn is not None:
        def step():
            return -1, (target if fn(regs[rs1], regs[rs2]) else npc)
        return step

    if op is Op.LI:
        value = _s64(imm)
        def step():
            regs[rd] = value
            return -1, npc
        return step

    if op is Op.MOV:
        def step():
            regs[rd] = regs[rs1]
            return -1, npc
        return step

    if op in (Op.LD, Op.LBU):
        load = memory.load
        nbytes = op.info.mem_bytes
        def step():
            a = _u64(regs[rs1] + imm)
            regs[rd] = load(a, nbytes)
            return a, npc
        return step

    if op is Op.LW:
        load = memory.load
        def step():
            a = _u64(regs[rs1] + imm)
            regs[rd] = sign_extend(load(a, 4), 32)
            return a, npc
        return step

    if op is Op.FLD:
        load_f64 = memory.load_f64
        def step():
            a = _u64(regs[rs1] + imm)
            regs[rd] = load_f64(a)
            return a, npc
        return step

    if op in (Op.SD, Op.SW, Op.SB):
        store = memory.store
        nbytes = op.info.mem_bytes
        if instr.ann.sdq_data:
            return _sdq_store(regs, rs1, imm, npc,
                              lambda a, v: store(a, _u64(int(v)), nbytes),
                              queues.sdq.pop)
        def step():
            a = _u64(regs[rs1] + imm)
            store(a, _u64(int(regs[rs2])), nbytes)
            return a, npc
        return step

    if op is Op.FSD:
        store_f64 = memory.store_f64
        if instr.ann.sdq_data:
            return _sdq_store(regs, rs1, imm, npc,
                              lambda a, v: store_f64(a, float(v)),
                              queues.sdq.pop)
        def step():
            a = _u64(regs[rs1] + imm)
            store_f64(a, float(regs[rs2]))
            return a, npc
        return step

    if op is Op.J:
        def step():
            return -1, target
        return step

    if op is Op.JAL:
        link = npc
        def step():
            regs[_RA] = link
            return -1, target
        return step

    if op is Op.JR:
        def step():
            return -1, regs[rs1]
        return step

    if op is Op.HALT:
        def step():
            raise _Halt()
        return step

    if op is Op.NOP:
        def step():
            return -1, npc
        return step

    fn = _FP_RR.get(op)
    if fn is not None:
        def step():
            regs[rd] = fn(regs[rs1], regs[rs2])
            return -1, npc
        return step

    fn = _FP_R1.get(op)
    if fn is not None:
        def step():
            regs[rd] = fn(regs[rs1])
            return -1, npc
        return step

    if op is Op.FTOI:
        def step():
            regs[rd] = _s64(int(regs[rs1]))
            return -1, npc
        return step

    if op in (Op.DIV, Op.REM):
        want_rem = op is Op.REM
        def step():
            a, b = regs[rs1], regs[rs2]
            if b == 0:
                # RISC-V-defined: q = -1, r = dividend (matches _execute_op).
                regs[rd] = _s64(a if want_rem else -1)
                return -1, npc
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            regs[rd] = _s64(a - q * b if want_rem else q)
            return -1, npc
        return step

    if op is Op.FDIV:
        def step():
            b = regs[rs2]
            if b == 0.0:
                raise SimulationError(f"FP division by zero at pc {pc}")
            regs[rd] = regs[rs1] / b
            return -1, npc
        return step

    if op is Op.FSQRT:
        def step():
            v = regs[rs1]
            if v < 0.0:
                raise SimulationError(f"FSQRT of negative value at pc {pc}")
            regs[rd] = v ** 0.5
            return -1, npc
        return step

    # Communication ops (only reached with queues: see _compile_step).
    if op in (Op.PUSH_LDQ, Op.PUSH_LDQF, Op.PUSH_SDQ, Op.PUSH_SDQF):
        push = (queues.ldq if op in (Op.PUSH_LDQ, Op.PUSH_LDQF)
                else queues.sdq).push
        def step():
            push(regs[rs1])
            return -1, npc
        return step

    if op in (Op.POP_LDQ, Op.POP_LDQF):
        popq = queues.ldq.pop
        convert = int if op is Op.POP_LDQ else float
        def step():
            regs[rd] = convert(popq())
            return -1, npc
        return step

    return _raising(f"unimplemented opcode {op}")  # pragma: no cover
