"""Property test: stream separation is sound on *random* programs.

Hypothesis generates random loop kernels (ALU soup + masked loads/stores),
and for every one of them the decoupled program — executed on split CP/AP
register files communicating only through the queues — must leave memory
exactly as the sequential original does, with all queues drained.

This is the single most load-bearing test of the compiler: it exercises
stream separation, SDQ store conversion, $LDQ operand delivery,
pop-to-register fallbacks and the FIFO-conflict resolver all at once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.builder import ProgramBuilder
from repro.config import MachineConfig
from repro.slicer import compile_hidisc

from .conftest import referee

# Register pool used by generated code (avoid sp/ra).
REGS = ["t0", "t1", "t2", "t3", "t4", "t5", "s0", "s1"]

_alu3 = st.sampled_from(["add", "sub", "mul", "and_", "or_", "xor", "slt"])
_alui = st.sampled_from(["addi", "xori", "slli", "srli", "slti"])

_op_strategy = st.one_of(
    st.tuples(st.just("alu3"), _alu3, st.sampled_from(REGS),
              st.sampled_from(REGS), st.sampled_from(REGS)),
    st.tuples(st.just("alui"), _alui, st.sampled_from(REGS),
              st.sampled_from(REGS), st.integers(0, 31)),
    st.tuples(st.just("load"), st.sampled_from(REGS), st.sampled_from(REGS)),
    st.tuples(st.just("store"), st.sampled_from(REGS), st.sampled_from(REGS)),
)


def _emit(b: ProgramBuilder, op) -> None:
    kind = op[0]
    if kind == "alu3":
        _, mnemonic, rd, rs1, rs2 = op
        getattr(b, mnemonic)(rd, rs1, rs2)
    elif kind == "alui":
        _, mnemonic, rd, rs1, imm = op
        getattr(b, mnemonic)(rd, rs1, imm)
    elif kind == "load":
        _, rd, raddr = op
        b.andi("t6", raddr, 63)       # index in [0, 64)
        b.slli("t6", "t6", 3)
        b.add("t6", "t6", "s7")       # s7 = arr base
        b.ld(rd, 0, "t6")
    else:  # store
        _, rdata, raddr = op
        b.andi("t6", raddr, 63)
        b.slli("t6", "t6", 3)
        b.add("t6", "t6", "s7")
        b.sd(rdata, 0, "t6")


@st.composite
def random_kernel(draw):
    """(prologue ops, loop body ops, iteration count, seeds)."""
    prologue = draw(st.lists(_op_strategy, max_size=5))
    body = draw(st.lists(_op_strategy, min_size=1, max_size=12))
    iters = draw(st.integers(1, 6))
    seeds = draw(st.lists(st.integers(-100, 100),
                          min_size=len(REGS), max_size=len(REGS)))
    return prologue, body, iters, seeds


def build_random_program(spec) -> "Program":
    prologue, body, iters, seeds = spec
    b = ProgramBuilder("random-kernel")
    b.data_i64("arr", list(range(64)))
    b.la("s7", "arr")
    for reg, value in zip(REGS, seeds):
        b.li(reg, value)
    for op in prologue:
        _emit(b, op)
    b.li("s6", 0)
    b.li("s5", iters)
    b.label("loop")
    for op in body:
        _emit(b, op)
    b.addi("s6", "s6", 1)
    b.blt("s6", "s5", "loop")
    b.halt()
    return b.build()


@settings(max_examples=40, deadline=None)
@given(spec=random_kernel())
def test_random_programs_separate_soundly(spec):
    program = build_random_program(spec)
    comp = compile_hidisc(program, MachineConfig(), probable_miss_pcs=set())
    # The referee raises on any queue, memory, register or store-order
    # divergence.
    seq, _ = referee(program, comp.decoupled)
    assert seq.instructions_executed > 0


@settings(max_examples=15, deadline=None)
@given(spec=random_kernel())
def test_random_programs_time_soundly(spec):
    """The timing machines must run the same random kernels to completion
    with consistent cycle accounting."""
    from repro.sim import (
        Machine,
        build_queue_plan,
        generate_decoupled_trace,
        generate_trace,
    )

    config = MachineConfig()
    program = build_random_program(spec)
    comp = compile_hidisc(program, config, probable_miss_pcs=set())
    trace, _ = generate_trace(program)
    base = Machine(config, comp.original, trace, mode="superscalar").run()
    assert 0 < base.cycles
    assert base.committed["main"] == len(trace)

    dtrace, _ = generate_decoupled_trace(comp.decoupled)
    qplan = build_queue_plan(comp.decoupled, dtrace)
    dec = Machine(config, comp.decoupled, dtrace, mode="cp_ap",
                  queue_plan=qplan, work_instructions=len(trace)).run()
    assert 0 < dec.cycles
    assert sum(dec.committed.values()) == len(dtrace)
