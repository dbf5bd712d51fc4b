"""Tests for trace generation, queue plans and CMAS plans."""

import dataclasses

import pytest

from repro.asm.builder import ProgramBuilder
from repro.config import MachineConfig, QueueConfig
from repro.errors import SimulationError
from repro.experiments.runner import prepare
from repro.isa.instruction import Annotations, Instruction, Stream
from repro.isa.opcodes import Op
from repro.isa.registers import NAME_TO_REG
from repro.sim import (
    Machine,
    Trace,
    build_cmas_plan,
    build_queue_plan,
    generate_decoupled_trace,
    generate_trace,
)
from repro.sim.core import TimingCore
from repro.slicer import compile_hidisc
from repro.workloads import get_workload

from .conftest import build_counting_loop, build_load_compute_store

CS, AS = Stream.CS, Stream.AS


def _i(op: Op, rd: str = "zero", rs1: str = "zero", imm: int = 0,
       stream: Stream = AS, **ann) -> Instruction:
    return Instruction(op=op, rd=NAME_TO_REG[rd], rs1=NAME_TO_REG[rs1],
                       imm=imm, ann=Annotations(stream=stream, **ann))


def _straight_line(rows: list[Instruction]):
    """*rows* then HALT, and the trace that runs each once, in order."""
    b = ProgramBuilder("hand")
    for instr in rows:
        b.emit(instr)
    b.halt()
    program = b.build()
    program.text[-1].ann.stream = AS
    n = len(program.text)
    return program, Trace(list(range(n)), [-1] * n)


#: name -> (rows, error text): annotated programs a queue plan must reject,
#: because counting endpoints in dispatch order would not pair them.
UNCOUNTABLE = {
    "ldq-pushes-on-both-streams": ([
        _i(Op.LI, "t0", imm=5), _i(Op.PUSH_LDQ, rs1="t0"),
        _i(Op.LI, "t1", imm=7, stream=CS),
        _i(Op.PUSH_LDQ, rs1="t1", stream=CS),
        _i(Op.POP_LDQ, "t2", stream=CS), _i(Op.POP_LDQ, "t3", stream=CS),
    ], "LDQ pushes execute on both streams"),
    "ldq-push-and-pop-in-one-instruction": ([
        _i(Op.LI, "t0", imm=5), _i(Op.PUSH_LDQ, rs1="t0"),
        _i(Op.LD, "t5", "a0", to_ldq=True, ldq_rs1=True),
        _i(Op.POP_LDQ, "t6", stream=CS),
    ], "pc 2 both pushes and pops the LDQ"),
    "sdq-push-and-pop-in-one-instruction": ([
        _i(Op.LI, "t1", imm=6, stream=CS),
        _i(Op.ADDI, "t4", "t1", imm=1, stream=CS, to_sdq=True),
        _i(Op.SD, rs1="a0", sdq_data=True, to_sdq=True),
    ], "pc 2 both pushes and pops the SDQ"),
}


class TestGenerateTrace:
    def test_length_matches_functional(self, counting_loop):
        trace, state = generate_trace(counting_loop)
        assert state.halted
        assert len(trace) == 36

    def test_records_addresses(self, load_compute_store):
        trace, _ = generate_trace(load_compute_store)
        text = load_compute_store.text
        rows = list(zip(trace.pc, trace.addr))
        assert all(addr >= 0 for pc, addr in rows if text[pc].is_mem)
        assert all(addr == -1 for pc, addr in rows if not text[pc].is_mem)

    def test_records_branch_outcomes(self, counting_loop):
        trace, _ = generate_trace(counting_loop)
        branches = [i for i, pc in enumerate(trace.pc)
                    if counting_loop.text[pc].is_branch]
        taken = [i for i in branches if trace.next_pc(i) != trace.pc[i] + 1]
        assert len(branches) == 10 and len(taken) == 9


class TestQueuePlan:
    @pytest.fixture
    def compiled(self, config):
        program = build_load_compute_store()
        comp = compile_hidisc(program, config, probable_miss_pcs=set())
        dtrace, _ = generate_decoupled_trace(comp.decoupled)
        return comp, dtrace

    def test_balanced(self, compiled, config):
        comp, dtrace = compiled
        plan = build_queue_plan(comp.decoupled, dtrace)
        assert plan.balanced
        assert len(plan.ldq_push_pos) == len(plan.ldq_pop_pos)
        assert len(plan.sdq_push_pos) == len(plan.sdq_pop_pos) > 0

    def test_fifo_matching_order(self, compiled):
        comp, dtrace = compiled
        plan = build_queue_plan(comp.decoupled, dtrace)
        # the k-th pop matches the k-th push, which precedes it
        for push_pos, pop_pos in zip(plan.ldq_push_pos, plan.ldq_pop_pos):
            assert push_pos < pop_pos
        for push_pos, pop_pos in zip(plan.sdq_push_pos, plan.sdq_pop_pos):
            assert push_pos < pop_pos

    def test_unannotated_program_rejected(self, counting_loop):
        trace, _ = generate_trace(counting_loop)
        with pytest.raises(SimulationError):
            build_queue_plan(counting_loop, trace)

    @pytest.mark.parametrize("name", sorted(UNCOUNTABLE))
    def test_uncountable_endpoints_rejected(self, name):
        rows, message = UNCOUNTABLE[name]
        program, trace = _straight_line([instr.copy() for instr in rows])
        with pytest.raises(SimulationError, match=message):
            build_queue_plan(program, trace)


def _column_edges(plan, decoded, trace, ldq_cap: int,
                  sdq_cap: int) -> dict[int, list[int]]:
    """Queue edges per position as the four columns imply them: pop *k*
    waits on push *k*, push *k* on pop *k - capacity*."""
    ldq_pop = {}
    for k, pos in enumerate(plan.ldq_pop_pos):
        ldq_pop.setdefault(pos, k)
    ldq_push = {pos: k for k, pos in enumerate(plan.ldq_push_pos)}
    sdq_push = {pos: k for k, pos in enumerate(plan.sdq_push_pos)}
    sdq_pop = {pos: k for k, pos in enumerate(plan.sdq_pop_pos)}
    edges: dict[int, list[int]] = {}
    for pos, pc in enumerate(trace.pc):
        d = decoded[pc]
        out = []
        if d.ldq_pops:
            k = ldq_pop[pos]
            out += plan.ldq_push_pos[k:k + d.ldq_pops]
        elif d.ldq_push and ldq_push[pos] >= ldq_cap:
            out.append(plan.ldq_pop_pos[ldq_push[pos] - ldq_cap])
        if d.sdq_push:
            if sdq_push[pos] >= sdq_cap:
                out.append(plan.sdq_pop_pos[sdq_push[pos] - sdq_cap])
        elif d.sdq_pop:
            out.append(plan.sdq_push_pos[sdq_pop[pos]])
        edges[pos] = out
    return edges


def _cross_core_deps(monkeypatch, machine) -> dict[int, list[int]]:
    """Run *machine*, returning each CP/AP entry's dependences on the
    other core's positions (registers and memory order stay within a
    core, so these are exactly its queue edges), in dispatch's order."""
    stream = [d.stream for d in machine.decoded]
    pcs = machine.trace.pc
    recorded: dict[int, list[int]] = {}
    dispatch = TimingCore.dispatch

    def recording(core, now):
        count = dispatch(core, now)
        if count and core.name != "CMP":
            for entry in list(core.window)[-count:]:
                own = stream[pcs[entry.pos]]
                recorded[entry.pos] = [dep for dep in entry.deps
                                       if stream[pcs[dep]] is not own]
        return count

    monkeypatch.setattr(TimingCore, "dispatch", recording)
    machine.run()
    return recorded


@pytest.fixture(scope="module")
def separated() -> dict:
    """Quick compilations with SDQ traffic; spmv also pops two LDQ
    entries in one instruction."""
    return {name: prepare(get_workload(name, quick=True, seed=2003),
                          MachineConfig())
            for name in ("spmv", "neighborhood")}


class TestDispatchQueueEdges:
    """Dispatch pairs LDQ/SDQ endpoints exactly as the plan's columns do."""

    # A one-entry LDQ can never hold spmv's two operands of one pop.
    @pytest.mark.parametrize("name, entries", [
        ("spmv", None), ("neighborhood", None), ("spmv", 2),
        ("neighborhood", 1)])
    def test_full_run(self, monkeypatch, separated, name, entries):
        cw = separated[name]
        config = MachineConfig()
        if entries is not None:
            config = dataclasses.replace(
                config, queues=QueueConfig(ldq_entries=entries,
                                           sdq_entries=entries))
        program, trace = cw.compilation.decoupled, cw.decoupled_trace
        machine = Machine(config, program, trace, "cp_ap",
                          queue_plan=cw.queue_plan)
        recorded = _cross_core_deps(monkeypatch, machine)
        expected = _column_edges(cw.queue_plan, machine.decoded, trace,
                                 config.queues.ldq_entries,
                                 config.queues.sdq_entries)
        assert recorded == expected

    @pytest.mark.parametrize("name", ["spmv", "neighborhood"])
    def test_window_starting_inside_an_ldq_transfer(self, monkeypatch,
                                                    separated, name):
        cw = separated[name]
        config = MachineConfig()
        program, trace = cw.compilation.decoupled, cw.decoupled_trace
        plan = cw.queue_plan
        k = len(plan.ldq_push_pos) // 2
        start = plan.ldq_push_pos[k] + 1
        assert start <= plan.ldq_pop_pos[k]
        end = min(len(trace) - 1, start + 2000)
        complete_at = [0] * len(trace)
        complete_at[start:end] = [None] * (end - start)
        machine = Machine(config, program, trace, "cp_ap", queue_plan=plan,
                          warmup_pos=start, start_pos=start, end_pos=end,
                          complete_at=complete_at)
        recorded = _cross_core_deps(monkeypatch, machine)
        expected = _column_edges(plan, machine.decoded, trace,
                                 config.queues.ldq_entries,
                                 config.queues.sdq_entries)
        assert recorded and min(recorded) == start
        assert plan.ldq_pop_pos[k] in recorded
        assert recorded == {pos: expected[pos] for pos in recorded}


def test_cp_ap_commits_each_stream_on_its_core(config):
    comp = compile_hidisc(build_load_compute_store(24), config,
                          probable_miss_pcs=set())
    dtrace, _ = generate_decoupled_trace(comp.decoupled)
    result = Machine(config, comp.decoupled, dtrace, "cp_ap",
                     queue_plan=build_queue_plan(comp.decoupled,
                                                 dtrace)).run()
    streams = [comp.decoupled.text[pc].ann.stream for pc in dtrace.pc]
    assert result.committed == {"CP": streams.count(CS),
                                "AP": streams.count(AS)}
    assert streams.count(CS) and streams.count(AS)


class TestCmasPlan:
    @pytest.fixture
    def compiled(self, config):
        program = build_load_compute_store(32)
        load_pc = next(pc for pc, i in enumerate(program.text) if i.is_load)
        comp = compile_hidisc(program, config,
                              probable_miss_pcs={load_pc})
        trace, _ = generate_trace(program)
        return comp, trace

    def test_threads_cover_each_instance_once(self, compiled):
        comp, trace = compiled
        plan = build_cmas_plan(comp.original, trace, trigger_distance=16)
        claimed: list[int] = []
        for index in range(plan.num_threads):
            claimed.extend(plan.positions(index))
        assert claimed == sorted(set(claimed))  # no duplicates, ascending

    def test_trigger_precedes_miss(self, compiled):
        comp, trace = compiled
        plan = build_cmas_plan(comp.original, trace, trigger_distance=16)
        assert plan.num_threads
        for trigger, miss in zip(plan.trigger_pos, plan.miss_pos):
            assert trigger <= miss
            assert miss - trigger <= 16

    def test_by_trigger_index(self, compiled):
        """The separator forks threads in firing order: by trigger
        position, threads sharing one in index order."""
        comp, trace = compiled
        plan = build_cmas_plan(comp.original, trace, trigger_distance=16)
        by_trigger: dict[int, list[int]] = {}
        for index, pos in enumerate(plan.trigger_pos):
            by_trigger.setdefault(pos, []).append(index)
        assert list(plan.firing_order) == [
            index for pos in sorted(by_trigger) for index in by_trigger[pos]]

    def test_positions_are_cmas_instances(self, compiled):
        comp, trace = compiled
        plan = build_cmas_plan(comp.original, trace, trigger_distance=16)
        for index in range(plan.num_threads):
            for pos in plan.positions(index):
                assert comp.original.text[trace.pc[pos]].ann.cmas

    def test_no_marks_no_threads(self, config, counting_loop):
        comp = compile_hidisc(counting_loop, config, probable_miss_pcs=set())
        trace, _ = generate_trace(counting_loop)
        plan = build_cmas_plan(comp.original, trace, trigger_distance=16)
        assert plan.num_threads == 0
        assert plan.total_prefetch_instructions == 0

    def test_max_slice_cap(self, compiled):
        comp, trace = compiled
        plan = build_cmas_plan(comp.original, trace, trigger_distance=10**6,
                               max_slice=2)
        assert all(len(plan.positions(i)) <= 2
                   for i in range(plan.num_threads))
