"""The run-loop contract of both functional executors, on both step tables.

Whatever the interpreter looks like inside, its callers rely on this: for
every quick workload, sequential and decoupled, the final ``pc`` and
``halted`` of every architectural state, ``instructions_executed`` (HALT
counted), the LDQ/SDQ push and pop counts, and a trace equal to
``prepare``'s.  Also the exact ``max_steps`` and pc-out-of-range messages,
and that a sequential run stopped by ``max_steps`` leaves ``state.pc`` at
the next pc to execute (the fuzz bisector snapshots state that way).
"""

from __future__ import annotations

import pytest

from repro.asm.builder import ProgramBuilder
from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.experiments.runner import prepare
from repro.isa.instruction import Stream
from repro.isa.opcodes import Op
from repro.sim import Trace
from repro.sim.decode import decode_program
from repro.sim.functional import (
    DecoupledFunctionalSimulator,
    FunctionalSimulator,
)
from repro.slicer import compile_hidisc
from repro.workloads import quick_workloads

SEED = 2003
NAMES = [w.name for w in quick_workloads(SEED)]
TABLES = pytest.mark.parametrize("fast", [True, False],
                                 ids=["fast", "reference"])


@pytest.fixture(scope="module")
def compiled() -> dict:
    config = MachineConfig()
    return {w.name: prepare(w, config) for w in quick_workloads(SEED)}


def _last_pc(program, trace: Trace, stream: Stream) -> int:
    """pc of the last instruction *stream* executed (0 if it never ran)."""
    text = program.text
    return next((pc for pc in reversed(trace.pc)
                 if text[pc].ann.stream is stream), 0)


def _queue_counts(program, trace: Trace) -> dict:
    """LDQ/SDQ pushes and pops implied by the annotated instructions run."""
    decoded = decode_program(program.text)
    ran = [decoded[pc] for pc in trace.pc]
    return {"LDQ": (sum(d.ldq_push for d in ran), sum(d.ldq_pops for d in ran)),
            "SDQ": (sum(d.sdq_push for d in ran), sum(d.sdq_pop for d in ran))}


@TABLES
@pytest.mark.parametrize("name", NAMES)
def test_sequential_run_contract(compiled, name, fast):
    cw = compiled[name]
    program = cw.compilation.original
    sim = FunctionalSimulator(program)
    trace = Trace()
    state = sim.run(trace=trace, fast=fast)
    assert trace == cw.trace
    assert state is sim.state and state.halted
    assert state.pc == trace.pc[-1]
    assert program.text[state.pc].op is Op.HALT
    assert sim.instructions_executed == len(trace)


@TABLES
@pytest.mark.parametrize("name", NAMES)
def test_decoupled_run_contract(compiled, name, fast):
    cw = compiled[name]
    program = cw.compilation.decoupled
    sim = DecoupledFunctionalSimulator(program)
    trace = Trace()
    state = sim.run(trace=trace, fast=fast)
    assert trace == cw.decoupled_trace
    assert state is sim.ap_state
    assert sim.ap_state.halted and not sim.cp_state.halted
    assert sim.ap_state.pc == _last_pc(program, trace, Stream.AS)
    assert sim.cp_state.pc == _last_pc(program, trace, Stream.CS)
    assert sim.instructions_executed == len(trace)
    counts = _queue_counts(program, trace)
    for queue in (sim.queues.ldq, sim.queues.sdq):
        stats = queue.stats
        assert (stats.pushes, stats.pops) == counts[queue.name], queue.name
        assert stats.pushes == stats.pops and queue.empty, queue.name


@TABLES
def test_max_steps_messages(counting_loop, fast):
    with pytest.raises(SimulationError) as err:
        FunctionalSimulator(counting_loop).run(max_steps=5, fast=fast)
    assert str(err.value) == "counting: exceeded 5 steps (infinite loop?)"
    annotated = compile_hidisc(counting_loop, MachineConfig()).decoupled
    with pytest.raises(SimulationError) as err:
        DecoupledFunctionalSimulator(annotated).run(max_steps=5, fast=fast)
    assert str(err.value) == (f"{annotated.name}: exceeded 5 steps in "
                              f"decoupled functional run")


@TABLES
def test_pc_out_of_range_messages(fast):
    builder = ProgramBuilder("wild")
    builder.li("ra", 9999)
    builder.jr("ra")
    program = builder.build()
    sim = FunctionalSimulator(program)
    with pytest.raises(SimulationError) as err:
        sim.run(fast=fast)
    assert str(err.value) == "pc 9999 outside text segment"
    assert sim.state.pc == 9999 and not sim.state.halted
    annotated = program.copy()
    for instr in annotated.text:
        instr.ann.stream = Stream.AS
    with pytest.raises(SimulationError) as err:
        DecoupledFunctionalSimulator(annotated).run(fast=fast)
    assert str(err.value) == "pc 9999 outside text segment"


@TABLES
def test_max_steps_stop_leaves_next_pc(compiled, fast):
    trace = compiled["pointer"].trace
    program = compiled["pointer"].compilation.original
    for steps in (1, 7, 100, len(trace) // 2, len(trace) - 1):
        sim = FunctionalSimulator(program)
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run(max_steps=steps, fast=fast)
        assert sim.state.pc == trace.pc[steps], steps
        assert not sim.state.halted
        assert sim.instructions_executed == 0
