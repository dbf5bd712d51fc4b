"""Parity of the compiled step table with the reference table.

``run(fast=True)`` (the default) executes each static instruction through
a step closure compiled for it; ``run(fast=False)`` runs the reference
table, whose every entry is the if/elif interpreter ``_execute``.  The two
must be *architecturally identical*, sequential and decoupled: every
state's registers, pc and halted flag, the step count, the dynamic trace
(which pins load/store order and effective addresses), memory (page by
page), queue stats, and the type and text of any exception.
"""

from __future__ import annotations

import pytest

from repro.asm.builder import ProgramBuilder
from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.isa.instruction import Annotations, Instruction, Stream
from repro.isa.opcodes import Op
from repro.isa.registers import NAME_TO_REG
from repro.sim import Trace
from repro.sim.functional import (
    DecoupledFunctionalSimulator,
    FunctionalSimulator,
)
from repro.slicer import compile_hidisc
from repro.workloads import quick_workloads

from .conftest import referee

SEED = 2003


def _quick_programs():
    return [(w.name, w.program) for w in quick_workloads(SEED)]


def _states(sim) -> tuple:
    """Every architectural state; the last one owns the memory."""
    if isinstance(sim, DecoupledFunctionalSimulator):
        return sim.cp_state, sim.ap_state
    return (sim.state,)


def _run_table(program, decoupled: bool, fast: bool, max_steps: int):
    sim = (DecoupledFunctionalSimulator if decoupled
           else FunctionalSimulator)(program)
    trace = Trace()
    try:
        sim.run(max_steps=max_steps, trace=trace, fast=fast)
        error = None
    except Exception as exc:  # noqa: BLE001 - compared across tables
        error = (type(exc), str(exc))
    return sim, trace, error


def assert_parity(program, decoupled: bool = False,
                  max_steps: int = 50_000_000):
    """Run the compiled and the reference table on *program* and assert
    full parity.  Returns the compiled run's simulator and its exception
    as ``(type, text)``, or None."""
    (fsim, ftrace, ferror), (rsim, rtrace, rerror) = (
        _run_table(program, decoupled, fast, max_steps)
        for fast in (True, False))
    assert ferror == rerror
    for fstate, rstate in zip(_states(fsim), _states(rsim)):
        assert fstate.regs == rstate.regs
        assert (fstate.pc, fstate.halted) == (rstate.pc, rstate.halted)
    assert fsim.instructions_executed == rsim.instructions_executed
    assert ftrace == rtrace
    assert _states(fsim)[-1].memory.differences(_states(rsim)[-1].memory) \
        == []
    if decoupled:
        for name in ("ldq", "sdq"):
            assert (getattr(fsim.queues, name).stats
                    == getattr(rsim.queues, name).stats), name
    return fsim, ferror


@pytest.mark.parametrize("name,program", _quick_programs())
def test_sequential_equivalence(name, program):
    sim, error = assert_parity(program)
    assert error is None and sim.state.halted, name


@pytest.mark.parametrize("name,program", _quick_programs())
def test_decoupled_equivalence(name, program):
    annotated = compile_hidisc(program, MachineConfig()).decoupled
    sim, error = assert_parity(annotated, decoupled=True)
    assert error is None and sim.ap_state.halted, name


@pytest.mark.parametrize("name,program", _quick_programs())
def test_fast_path_matches_decoupled_golden_memory(name, program):
    """Fast sequential and fast decoupled runs still agree — the
    separation-soundness check, now through the dispatch table."""
    annotated = compile_hidisc(program, MachineConfig()).decoupled
    referee(program, annotated)


def test_max_steps_error_identical(counting_loop):
    annotated = compile_hidisc(counting_loop, MachineConfig()).decoupled
    for program, decoupled in ((counting_loop, False), (annotated, True)):
        _, error = assert_parity(program, decoupled, max_steps=5)
        assert error[0] is SimulationError and "exceeded 5 steps" in error[1]


def test_div_by_zero_defined_identically():
    """Division by zero no longer traps: q = -1, r = dividend (RISC-V),
    identically on both tables."""
    b = ProgramBuilder("divzero")
    b.li("r1", 7)
    b.li("r2", 0)
    b.div("r3", "r1", "r2")
    b.rem("r4", "r1", "r2")
    b.li("r5", -9)
    b.rem("r6", "r5", "r2")
    b.halt()
    sim, _ = assert_parity(b.build())
    regs = sim.state.regs
    assert regs[3] == -1 and regs[4] == 7 and regs[6] == -9


# ----------------------------------------------------------------------
# ALU edge semantics as table-parity properties (boundary operands + a
# seeded random sweep).  Each case materialises the operands with li64,
# runs one ALU op on both tables, and asserts they agree — and, where the
# architecture pins a value, that both match it.
# ----------------------------------------------------------------------

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

_RR_OPS = ("add", "sub", "mul", "div", "rem", "and_", "or_", "xor", "nor",
           "sll", "srl", "sra", "slt", "sltu")


def _alu_both(op_name: str, a: int, b: int) -> int:
    """Run ``rd = op(a, b)`` on both tables; assert parity; return rd."""
    builder = ProgramBuilder(f"edge_{op_name}")
    builder.li64("t0", a)
    builder.li64("t1", b)
    getattr(builder, op_name)("t2", "t0", "t1")
    builder.halt()
    sim, _ = assert_parity(builder.build())
    return sim.state.regs[10]  # t2


@pytest.mark.parametrize("a,b,quotient,remainder", [
    (I64_MIN, -1, I64_MIN, 0),      # the overflow wrap
    (I64_MIN, 1, I64_MIN, 0),
    (I64_MIN, 0, -1, I64_MIN),      # division by zero: q=-1, r=a
    (I64_MAX, 0, -1, I64_MAX),
    (-7, 2, -3, -1),                # truncation toward zero
    (7, -2, -3, 1),                 # remainder sign follows dividend
])
def test_div_rem_boundary_parity(a, b, quotient, remainder):
    assert _alu_both("div", a, b) == quotient
    assert _alu_both("rem", a, b) == remainder


@pytest.mark.parametrize("amount", [64, 65, 127, 128, -1, -64, 63])
def test_shift_amounts_masked_identically(amount):
    """Shift amounts are taken mod 64 (the & 63 mask), including negative
    register values — -1 & 63 == 63 on both tables."""
    from repro.utils import to_signed64

    masked = amount & 63
    assert _alu_both("sll", 1, amount) == to_signed64(1 << masked)
    assert _alu_both("srl", -1, amount) == to_signed64(
        ((1 << 64) - 1) >> masked)
    assert _alu_both("sra", I64_MIN, amount) == I64_MIN >> masked


@pytest.mark.parametrize("a,b", [
    (I64_MIN, I64_MAX), (I64_MIN, -1), (I64_MAX, -1),
    (I64_MIN, I64_MIN), (I64_MAX, I64_MAX), (-1, 0),
])
def test_bitwise_sign_boundary_parity(a, b):
    import repro.utils as utils

    assert _alu_both("xor", a, b) == utils.to_signed64(a ^ b)
    assert _alu_both("nor", a, b) == utils.to_signed64(~(a | b))
    assert _alu_both("and_", a, b) == utils.to_signed64(a & b)
    assert _alu_both("or_", a, b) == utils.to_signed64(a | b)


def test_alu_edge_random_sweep():
    """Seeded random property sweep: every RR op, operands drawn from a
    boundary-heavy pool, both tables bit-identical (one combined program
    per op keeps this fast)."""
    import random

    rng = random.Random(2003)
    pool = [0, 1, -1, 2, -2, 63, 64, 65, I64_MIN, I64_MAX,
            I64_MIN + 1, I64_MAX - 1, 1 << 32, -(1 << 32)]
    for op_name in _RR_OPS:
        builder = ProgramBuilder(f"sweep_{op_name}")
        builder.data_space("out", 40 * 8)
        builder.la("s0", "out")
        for slot in range(40):
            a = rng.choice(pool) if rng.random() < 0.7 else rng.getrandbits(64) - (1 << 63)
            b = rng.choice(pool) if rng.random() < 0.7 else rng.getrandbits(64) - (1 << 63)
            builder.li64("t0", a)
            builder.li64("t1", b)
            getattr(builder, op_name)("t2", "t0", "t1")
            builder.sd("t2", slot * 8, "s0")
        builder.halt()
        assert_parity(builder.build())


def test_missing_stream_annotation_raises_at_call_time(counting_loop):
    """An unannotated program builds a decoupled table fine; execution of
    the first unannotated instruction raises identically on both tables."""
    _, error = assert_parity(counting_loop, decoupled=True)
    assert error[0] is SimulationError
    assert "no stream annotation" in error[1]


# ----------------------------------------------------------------------
# Annotation corner cases: the queue closures against the reference on
# hand-annotated programs, including the illegal ones.
# ----------------------------------------------------------------------

CS, AS = Stream.CS, Stream.AS


def _i(op: Op, rd: str = "zero", rs1: str = "zero", rs2: str = "zero",
       imm: int = 0, stream: Stream = AS, **ann) -> Instruction:
    return Instruction(op=op, rd=NAME_TO_REG[rd], rs1=NAME_TO_REG[rs1],
                       rs2=NAME_TO_REG[rs2], imm=imm,
                       ann=Annotations(stream=stream, **ann))


def _push(value: int) -> list:
    return [_i(Op.LI, "t0", imm=value), _i(Op.PUSH_LDQ, rs1="t0")]


#: name -> (decoupled, rows, expected error text or None).  Rows follow a
#: prologue pointing a0 at ``[11, -22]`` and precede HALT.
EDGES = {
    "ldq-both-operands-one-register": (True, _push(5) + _push(9) + [
        _i(Op.ADD, "t2", "t3", "t3", stream=CS, ldq_rs1=True,
           ldq_rs2=True)], None),
    "ldq-operand-is-destination": (True, _push(5) + [
        _i(Op.ADDI, "t3", "t3", imm=1, stream=CS, ldq_rs1=True)], None),
    "ldq-operand-r0-destination-r0": (True, _push(5) + [
        _i(Op.ADD, "zero", "zero", "t1", stream=CS, ldq_rs1=True)], None),
    "r0-load-to-ldq": (True, [
        _i(Op.LD, "zero", "a0", to_ldq=True),
        _i(Op.POP_LDQ, "t5", stream=CS)], None),
    "r0-alu-and-pop": (True, _push(5) + [
        _i(Op.ADDI, "zero", "a0", imm=3),
        _i(Op.POP_LDQ, "zero", stream=CS)], None),
    "to-sdq-feeds-store": (True, [
        _i(Op.LI, "t1", imm=6, stream=CS),
        _i(Op.MULI, "t4", "t1", imm=7, stream=CS, to_sdq=True),
        _i(Op.SW, rs1="a0", imm=8, sdq_data=True)], None),
    "fp-load-to-ldq-to-sdq-store": (True, [
        _i(Op.FLD, "f1", "a0", to_ldq=True),
        _i(Op.FADD, "f2", "f3", "f4", stream=CS, ldq_rs1=True, to_sdq=True),
        _i(Op.FSD, rs1="a0", rs2="f2", sdq_data=True)], None),
    "to-sdq-without-destination": (True, [
        _i(Op.ADD, "zero", "t1", "t2", stream=CS, to_sdq=True)],
        "without a destination"),
    "ldq-pop-empty": (True, [
        _i(Op.ADD, "t2", "t3", "t4", stream=CS, ldq_rs2=True)],
        "pop on empty queue LDQ"),
    "ldq-second-pop-empty": (True, _push(5) + [
        _i(Op.ADD, "t2", "t3", "t4", stream=CS, ldq_rs1=True,
           ldq_rs2=True)], "pop on empty queue LDQ"),
    "sequential-queue-op": (False, [_i(Op.POP_LDQ, "t0")],
                            "queue op outside decoupled run"),
    "sequential-to-ldq-load": (False, [
        _i(Op.LD, "zero", "a0", to_ldq=True)],
        "$LDQ load outside decoupled run"),
    "sequential-sdq-store": (False, [
        _i(Op.SD, rs1="a0", rs2="t0", sdq_data=True)],
        "SDQ store outside decoupled run"),
    "sequential-ignores-cs-annotations": (False, [
        _i(Op.ADD, "t2", "a0", "a0", ldq_rs1=True, to_sdq=True)], None),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_annotation_edges_match_reference(name):
    decoupled, rows, raises = EDGES[name]
    b = ProgramBuilder(name)
    b.data_i64("arr", [11, -22])
    b.la("a0", "arr")
    for instr in rows:
        b.emit(instr.copy())
    b.halt()
    program = b.build()
    for instr in program.text:
        if instr.ann.stream is Stream.NONE:
            instr.ann.stream = AS
    sim, error = assert_parity(program, decoupled)
    if raises is None:
        assert error is None
        assert all(state.regs[0] == 0 for state in _states(sim))
    else:
        assert raises in error[1]
