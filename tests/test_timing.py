"""Timing-model behaviour tests: latencies, widths, queues, warmup.

These check the *physics* of the cycle models: more latency means more
cycles, wider machines are not slower, queue capacities throttle slip,
prefetching removes demand misses.
"""

import pytest
from dataclasses import replace

from repro.config import MachineConfig
from repro.sim import (
    Machine,
    build_cmas_plan,
    build_queue_plan,
    generate_decoupled_trace,
    generate_trace,
)
from repro.slicer import compile_hidisc

from .conftest import build_counting_loop, build_load_compute_store
from tests.test_cmas import build_chase


def run_superscalar(program, config, **kw):
    trace, _ = generate_trace(program)
    return Machine(config, program.copy(), trace, mode="superscalar", **kw).run()


class TestBaselinePhysics:
    def test_cycles_positive_and_bounded(self, config, counting_loop):
        result = run_superscalar(counting_loop, config)
        trace_len = 36
        assert 0 < result.cycles
        # 8-wide: cannot be faster than trace/8 (+ drain), nor absurdly slow.
        assert result.cycles >= trace_len / 8
        assert result.cycles < trace_len * 200

    def test_ipc_never_exceeds_width(self, config):
        result = run_superscalar(build_load_compute_store(64), config)
        assert result.ipc <= config.superscalar.issue_width

    def test_memory_latency_hurts(self, config):
        program = build_chase(n=2048, hops=256)
        slow = run_superscalar(program, config.with_latency(16, 160))
        fast = run_superscalar(program, config.with_latency(4, 40))
        assert slow.cycles > fast.cycles

    def test_narrow_machine_slower(self, config):
        # A compute-bound loop: width matters when memory does not dominate.
        program = build_counting_loop(200)
        narrow = replace(
            config,
            superscalar=replace(config.superscalar, issue_width=1,
                                commit_width=1),
            fetch_width=1,
        )
        wide = run_superscalar(program, config)
        one = run_superscalar(program, narrow)
        assert one.cycles > wide.cycles * 1.5

    def test_small_window_slower_on_misses(self, config):
        program = build_chase(n=4096, hops=512)
        small = replace(config,
                        superscalar=replace(config.superscalar, window=4))
        big = run_superscalar(program, config)
        tiny = run_superscalar(program, small)
        assert tiny.cycles > big.cycles

    def test_commit_counts_whole_trace(self, config, counting_loop):
        result = run_superscalar(counting_loop, config)
        assert result.committed["main"] == 36

    def test_branch_stats_populated(self, config, counting_loop):
        result = run_superscalar(counting_loop, config)
        assert result.branch.lookups == 10
        assert result.branch.mispredicts >= 1  # cold BTB on first back edge

    def test_perfect_predictor_not_slower(self, config, counting_loop):
        """A mispredict costs cycles: the same run with a free redirect
        (penalty 0) is faster."""
        free = replace(config, branch=replace(config.branch,
                                              mispredict_penalty=0))
        base = run_superscalar(counting_loop, config)
        oracle = run_superscalar(counting_loop, free)
        assert base.branch.mispredicts > 0
        assert oracle.cycles < base.cycles


class TestDecoupledPhysics:
    @pytest.fixture
    def compiled(self, config):
        program = build_load_compute_store(64)
        comp = compile_hidisc(program, config, probable_miss_pcs=set())
        trace, _ = generate_trace(program)
        dtrace, _ = generate_decoupled_trace(comp.decoupled)
        qplan = build_queue_plan(comp.decoupled, dtrace)
        return comp, trace, dtrace, qplan

    def test_cp_ap_commits_both_streams(self, config, compiled):
        comp, trace, dtrace, qplan = compiled
        result = Machine(config, comp.decoupled, dtrace, mode="cp_ap",
                         queue_plan=qplan, work_instructions=len(trace)).run()
        assert result.committed["CP"] + result.committed["AP"] == len(dtrace)
        assert result.committed["CP"] > 0 and result.committed["AP"] > 0

    def test_tiny_ldq_throttles(self, config, compiled):
        comp, trace, dtrace, qplan = compiled
        tiny = replace(config, queues=replace(config.queues, ldq_entries=1,
                                              sdq_entries=1))
        roomy = Machine(config, comp.decoupled, dtrace, mode="cp_ap",
                        queue_plan=qplan, work_instructions=len(trace)).run()
        cramped = Machine(tiny, comp.decoupled, dtrace, mode="cp_ap",
                          queue_plan=qplan, work_instructions=len(trace)).run()
        assert cramped.cycles >= roomy.cycles

    def test_requires_plans(self, config, compiled):
        comp, trace, dtrace, qplan = compiled
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Machine(config, comp.decoupled, dtrace, mode="cp_ap")
        with pytest.raises(SimulationError):
            Machine(config, comp.original, trace, mode="cp_cmp")
        with pytest.raises(SimulationError):
            Machine(config, comp.original, trace, mode="bogus")


class TestPrefetchPhysics:
    @pytest.fixture
    def chase_compiled(self, config):
        # A *streaming* kernel: the CMP races ahead through the induction
        # chain and covers the compulsory line misses.  (A single serial
        # pointer chain would be uncoverable — the CMP starts later and
        # walks at the same speed; see test_serial_chain_uncoverable.)
        program = build_load_compute_store(600)
        trace, _ = generate_trace(program)
        comp = compile_hidisc(program, config, trace=trace)
        cplan = build_cmas_plan(comp.original, trace,
                                config.cmas.trigger_distance)
        return comp, trace, cplan

    def test_serial_chain_uncoverable(self, config):
        """Pre-execution cannot beat a same-speed serial chain that the
        main core is already walking — the paper's motivation for *timely*
        triggering (§4.2)."""
        program = build_chase(n=4096, hops=600)
        trace, _ = generate_trace(program)
        comp = compile_hidisc(program, config, trace=trace)
        cplan = build_cmas_plan(comp.original, trace,
                                config.cmas.trigger_distance)
        base = Machine(config, comp.original, trace, mode="superscalar").run()
        pf = Machine(config, comp.original, trace, mode="cp_cmp",
                     cmas_plan=cplan).run()
        assert pf.cycles >= base.cycles * 0.95

    def test_cmp_reduces_demand_misses(self, config, chase_compiled):
        comp, trace, cplan = chase_compiled
        base = Machine(config, comp.original, trace, mode="superscalar").run()
        pf = Machine(config, comp.original, trace, mode="cp_cmp",
                     cmas_plan=cplan).run()
        assert pf.l1.demand_misses < base.l1.demand_misses
        assert pf.cycles <= base.cycles
        assert pf.cmas_threads_forked > 0

    def test_prefetches_not_counted_as_demand(self, config, chase_compiled):
        comp, trace, cplan = chase_compiled
        pf = Machine(config, comp.original, trace, mode="cp_cmp",
                     cmas_plan=cplan).run()
        assert pf.l1.prefetch_accesses > 0
        assert pf.l1.demand_accesses == \
            pf.memory.demand_loads + pf.memory.demand_stores


class TestWarmup:
    def test_warmup_reduces_measured_cycles(self, config):
        program = build_chase(n=2048, hops=400)
        trace, _ = generate_trace(program)
        full = Machine(config, program.copy(), trace,
                       mode="superscalar").run()
        half = Machine(config, program.copy(), trace, mode="superscalar",
                       warmup_pos=len(trace) // 2).run()
        assert half.total_cycles == pytest.approx(full.cycles, rel=0.01)
        assert half.cycles < full.cycles

    def test_warmup_resets_cache_stats(self, config):
        program = build_chase(n=256, hops=400)  # fits caches after a pass
        trace, _ = generate_trace(program)
        warmed = Machine(config, program.copy(), trace, mode="superscalar",
                         warmup_pos=len(trace) // 2).run()
        cold = Machine(config, program.copy(), trace,
                       mode="superscalar").run()
        assert warmed.l1_demand_miss_rate < cold.l1_demand_miss_rate


class TestTimeSkip:
    def test_results_deterministic(self, config):
        program = build_chase(n=1024, hops=300)
        a = run_superscalar(program, config)
        b = run_superscalar(program, config)
        assert a.cycles == b.cycles
        assert a.l1.demand_misses == b.l1.demand_misses
