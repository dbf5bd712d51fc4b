"""Tests for trace generation, queue plans and CMAS plans."""

import pytest

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.sim import (
    build_cmas_plan,
    build_queue_plan,
    generate_decoupled_trace,
    generate_trace,
)
from repro.slicer import compile_hidisc

from .conftest import build_counting_loop, build_load_compute_store


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
        # each popping position maps to the sequence number of its first pop
        for pop_pos, seq in plan.ldq_pop_seq.items():
            assert plan.ldq_pop_pos.index(pop_pos) == seq

    def test_routes_cover_trace(self, compiled):
        comp, dtrace = compiled
        plan = build_queue_plan(comp.decoupled, dtrace)
        assert len(plan.route) == len(dtrace)
        assert set(plan.route) <= {0, 1}

    def test_unannotated_program_rejected(self, counting_loop):
        trace, _ = generate_trace(counting_loop)
        with pytest.raises(SimulationError):
            build_queue_plan(counting_loop, trace)


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
