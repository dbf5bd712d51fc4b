"""Tests for adaptive trigger-distance selection (paper §6 future work)."""

import pytest

from repro.config import MachineConfig, SamplingPlan
from repro.experiments.runner import prepare
from repro.sim import (
    Machine,
    build_cmas_plan,
    generate_trace,
    profile_cache,
    run_sampled,
)
from repro.slicer import compile_hidisc
from repro.slicer.adaptive import (
    MAX_DISTANCE,
    MIN_DISTANCE,
    adaptive_trigger_distances,
)
from repro.workloads import PointerWorkload, get_workload

from tests.test_cmas import build_chase


@pytest.fixture(scope="module")
def chase_env():
    config = MachineConfig()
    program = build_chase(n=4096, hops=400)
    trace, _ = generate_trace(program)
    comp = compile_hidisc(program, config, trace=trace)
    profile = profile_cache(program, trace, config)
    return config, program, trace, comp, profile


class TestDistances:
    def test_memory_missing_load_gets_long_lead(self, chase_env):
        config, program, trace, comp, profile = chase_env
        distances = adaptive_trigger_distances(
            profile, config, comp.selection.probable_miss_pcs
        )
        chase_pc = next(pc for pc in comp.selection.probable_miss_pcs
                        if profile.per_pc[pc].l2_miss_rate > 0.3)
        # ~133-cycle expected latency * ipc 2 * headroom 1.5 ~ 400.
        assert distances[chase_pc] > 200

    def test_l2_resident_load_gets_short_lead(self, chase_env):
        config, program, trace, comp, profile = chase_env
        # Synthesise an L2-resident profile entry.
        from repro.sim.profiler import PcProfile

        profile.per_pc[9999] = PcProfile(accesses=100, misses=50, l2_misses=0)
        distances = adaptive_trigger_distances(profile, config, {9999})
        assert distances[9999] < 64

    def test_clamping(self, chase_env):
        config, program, trace, comp, profile = chase_env
        from repro.sim.profiler import PcProfile

        profile.per_pc[9998] = PcProfile(accesses=4, misses=4, l2_misses=4)
        lo = adaptive_trigger_distances(profile, config, {9998},
                                        expected_ipc=0.01)
        hi = adaptive_trigger_distances(profile, config, {9998},
                                        expected_ipc=1000.0)
        assert lo[9998] == MIN_DISTANCE
        assert hi[9998] == MAX_DISTANCE

    def test_unprofiled_pc_falls_back_to_default(self, chase_env):
        config, program, trace, comp, profile = chase_env
        distances = adaptive_trigger_distances(profile, config, {123456})
        assert distances[123456] == config.cmas.trigger_distance

    def test_scales_with_latency_config(self, chase_env):
        config, program, trace, comp, profile = chase_env
        pcs = comp.selection.probable_miss_pcs
        short = adaptive_trigger_distances(profile, config.with_latency(4, 40), pcs)
        long = adaptive_trigger_distances(profile, config.with_latency(16, 160), pcs)
        assert all(long[pc] >= short[pc] for pc in pcs)


class TestPlanIntegration:
    def test_distance_for_overrides_plan(self, chase_env):
        config, program, trace, comp, profile = chase_env
        fixed = build_cmas_plan(comp.original, trace, 512)
        tiny = build_cmas_plan(
            comp.original, trace, 512,
            distance_for={pc: 8 for pc in comp.selection.probable_miss_pcs},
        )
        assert fixed.num_threads and tiny.num_threads
        fixed_lead = fixed.miss_pos[5] - fixed.trigger_pos[5]
        tiny_lead = tiny.miss_pos[5] - tiny.trigger_pos[5]
        assert tiny_lead <= 8 <= fixed_lead

    def test_adaptive_not_slower_than_too_short(self):
        """Adaptive distances must beat a uniformly starved 32-instruction
        lead on a memory-missing workload."""
        config = MachineConfig()
        w = PointerWorkload(n=8192, sequences=150, hops=2, hot=1024,
                            hot_fraction=0.2)
        trace, _ = generate_trace(w.program)
        comp = compile_hidisc(w.program, config, trace=trace)
        profile = profile_cache(w.program, trace, config)
        distances = adaptive_trigger_distances(
            profile, config, comp.selection.probable_miss_pcs
        )
        adaptive_plan = build_cmas_plan(comp.original, trace, 512,
                                        distance_for=distances)
        starved_plan = build_cmas_plan(comp.original, trace, 32)
        run = lambda plan: Machine(
            config, comp.original, trace, mode="cp_cmp", cmas_plan=plan,
            benchmark="pointer",
        ).run().cycles
        adaptive = run(adaptive_plan)
        assert adaptive <= run(starved_plan) * 1.02
        # Per-pc distances reorder the triggers; the separator forks in
        # firing order, and the cycle count is pinned.
        assert adaptive_plan.trigger_pos.tolist() != sorted(
            adaptive_plan.trigger_pos)
        assert adaptive == 7_153

    def test_paper_dm_cycles_pinned(self):
        """Adaptive plans fire out of thread-index order (paper-scale dm:
        8,126 descending steps).  Pinned cp_cmp cycles, full detail from
        trace position 0 and sampled from mid-trace windows (whose
        separator cursor starts at the window's first trigger)."""
        config = MachineConfig()
        cw = prepare(get_workload("dm"), config)
        comp = cw.compilation
        profile = profile_cache(comp.original, cw.trace, config)
        plan = build_cmas_plan(
            comp.original, cw.trace, config.cmas.trigger_distance,
            distance_for=adaptive_trigger_distances(
                profile, config, comp.selection.probable_miss_pcs))
        steps = zip(plan.trigger_pos, plan.trigger_pos[1:])
        assert sum(b < a for a, b in steps) == 8_126
        full = Machine(config, comp.original, cw.trace, mode="cp_cmp",
                       cmas_plan=plan, benchmark="dm").run()
        assert full.cycles == 139_243
        sampled = run_sampled(
            config, SamplingPlan(interval_length=4000, detail_length=1000,
                                 warmup_length=500, error_budget=0.9),
            program=comp.original, trace=cw.trace, mode="cp_cmp",
            cmas_plan=plan, work_instructions=cw.work, benchmark="dm",
            warmup_pos=cw.warmup_pos_original)
        assert not sampled.sampling["exact"]
        assert sampled.sampling["intervals"] == 12
        assert sampled.cycles == 57_262
