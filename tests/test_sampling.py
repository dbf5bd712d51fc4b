"""Tests for the sampled-interval simulation driver (repro.sim.sampling).

Covers the SamplingPlan contract, schedule construction, end-to-end
determinism (same seed + plan => byte-identical extrapolated RunResult),
the accuracy budget against full-detail runs (which also pin the
committed paper-scale results), cache/checkpoint key separation, and the
large-workload family's >= 50x scale guarantee.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import pickle
from pathlib import Path

import pytest

from repro.config import MachineConfig, SamplingPlan
from repro.errors import ConfigError, SamplingError
from repro.experiments import (
    MODEL_ORDER,
    BenchmarkResults,
    RunCache,
    SuiteResult,
    prepare,
    run_model,
    run_suite,
    suite_key,
)
from repro.sim import generate_trace
from repro.sim.sampling import build_schedule
from repro.telemetry import spans
from repro.workloads import all_workloads, get_workload, quick_workloads
from repro.workloads.large import LARGE_WORKLOADS, large_workload

from tests.record_sched_fixtures import (
    GRID_PLAN,
    SAMPLED_CELLS,
    SAMPLED_FIXTURE_PATH,
    SEED,
    run_sampled_cell,
    sampled_cell,
)

#: The committed full-detail paper-scale numbers (the fixed point).
PAPER_SCALE = Path(__file__).resolve().parents[1] / "results" / \
    "paper_scale.json"


# ----------------------------------------------------------------------
# SamplingPlan validation
# ----------------------------------------------------------------------
class TestPlan:
    def test_defaults_are_valid(self):
        plan = SamplingPlan()
        assert plan.detail_length <= plan.interval_length
        assert 0.0 < plan.error_budget < 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(interval_length=0),
        dict(interval_length=100, detail_length=2000),
        dict(detail_length=0),
        dict(warmup_length=-1),
        dict(error_budget=0.0),
        dict(error_budget=1.5),
    ])
    def test_invalid_plans_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            SamplingPlan(**kwargs)


# ----------------------------------------------------------------------
# Schedule construction
# ----------------------------------------------------------------------
class TestSchedule:
    def test_deterministic(self):
        a = build_schedule(500_000, 1000, GRID_PLAN)
        b = build_schedule(500_000, 1000, GRID_PLAN)
        assert a == b and a

    def test_seed_changes_offsets(self):
        a = build_schedule(500_000, 1000, GRID_PLAN)
        b = build_schedule(500_000, 1000,
                           dataclasses.replace(GRID_PLAN, seed=GRID_PLAN.seed + 1))
        assert a != b
        # ... but never the coverage guarantee: one window per period.
        assert len(a) == len(b)

    def test_windows_well_formed(self):
        trace_length, warmup_pos = 500_000, 1357
        schedule = build_schedule(trace_length, warmup_pos, GRID_PLAN)
        prev_end = 0
        for fetch_start, measure_start, end in schedule:
            assert warmup_pos <= measure_start < end <= trace_length
            assert fetch_start <= measure_start
            # Warmup prefix is bounded and windows never overlap.
            assert measure_start - fetch_start <= GRID_PLAN.warmup_length
            assert end - measure_start <= GRID_PLAN.detail_length
            assert fetch_start >= prev_end
            prev_end = end

    def test_small_region_is_exact(self):
        assert build_schedule(GRID_PLAN.interval_length, 0, GRID_PLAN) == []
        assert build_schedule(3000, 2500, GRID_PLAN) == []

    def test_stratified_not_systematic(self):
        """Per-period offsets must actually vary (a single shared offset
        aliases with loop-periodic program structure)."""
        schedule = build_schedule(500_000, 0, GRID_PLAN)
        offsets = {measure_start % GRID_PLAN.interval_length
                   for _, measure_start, _ in schedule}
        assert len(offsets) > 1


# ----------------------------------------------------------------------
# End-to-end: determinism, metadata, accuracy
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def paper_raytrace():
    # raytrace is the regular-behaviour cell: every model meets the
    # budget at GRID_PLAN density without densifying or degrading.
    return prepare(get_workload("raytrace"), MachineConfig())


@pytest.fixture(scope="module")
def sampled_parity() -> dict:
    """Sampled cells recorded by ``tests/record_sched_fixtures.py``."""
    payload = json.loads(SAMPLED_FIXTURE_PATH.read_text())
    assert payload["seed"] == SEED
    return payload["cells"]


class TestSampledRun:
    @pytest.mark.parametrize("mode", MODEL_ORDER)
    def test_same_seed_and_plan_byte_identical(self, paper_raytrace,
                                               sampled_parity, mode):
        config = MachineConfig()
        a = run_model(paper_raytrace, config, mode, sampling=GRID_PLAN)
        b = run_model(paper_raytrace, config, mode, sampling=GRID_PLAN)
        assert pickle.dumps(a) == pickle.dumps(b)
        assert a.sampling["cycles_rel_ci95"] <= GRID_PLAN.error_budget
        assert sampled_cell(a) == sampled_parity[f"raytrace/{mode}"]

    @pytest.mark.parametrize(
        "name,mode,plan,cpi",
        [pytest.param(*cell, id=f"{cell[0]}-{cell[1]}")
         for cell in SAMPLED_CELLS if cell[0] != "raytrace"])
    def test_refined_and_degraded_cells_match_fixture(
            self, sampled_parity, name, mode, plan, cpi):
        """A cell that refines and stays sampled, and one that degrades to
        exact, reproduce their recorded results bit for bit."""
        cw = prepare(get_workload(name, seed=SEED), MachineConfig())
        result = run_sampled_cell(cw, mode, plan, cpi)
        assert sampled_cell(result) == sampled_parity[f"{name}/{mode}"]

    def test_zero_warmup_counts_only_measured_branches(self, paper_raytrace):
        """Without a warm-up prefix no measurement reset happens inside a
        window, so the fast-forward replay's predictor lookups and cache
        accesses must not reach the window's statistics."""
        config = MachineConfig()
        full = run_model(paper_raytrace, config, "superscalar")
        samp = run_model(paper_raytrace, config, "superscalar",
                         sampling=dataclasses.replace(GRID_PLAN,
                                                      warmup_length=0))
        assert not samp.sampling["exact"]
        assert samp.branch.lookups == pytest.approx(full.branch.lookups,
                                                    rel=0.05)
        assert samp.l1.demand_accesses == pytest.approx(
            full.l1.demand_accesses, rel=0.10)

    @pytest.mark.parametrize("mode", ["superscalar", "hidisc"])
    def test_window_machines_leave_no_reference_cycles(self, paper_raytrace,
                                                       mode):
        """A sampled window ends with entries still in flight, and each
        points back at its core: ``Machine.run`` must release them, or
        every window's state waits for the cyclic collector."""
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = run_model(paper_raytrace, MachineConfig(), mode,
                               sampling=GRID_PLAN)
            gc.collect()
            leaked = {type(o).__name__ for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not result.sampling["exact"]
        assert not leaked & {"WindowEntry", "TimingCore"}, leaked

    def test_sampling_spans_nest_under_run_model(self, paper_raytrace):
        with spans.tracing() as tracer:
            result = run_model(paper_raytrace, MachineConfig(), "hidisc",
                               sampling=GRID_PLAN)
        by_name: dict[str, list] = {}
        for record in tracer.records:
            by_name.setdefault(record.name, []).append(record)
        (run,) = by_name["run_model"]
        counts = {"sample_probe": 1,
                  "sample_replay": result.sampling["intervals"],
                  "sample_window": result.sampling["intervals"]}
        for name, count in counts.items():
            records = by_name.get(name, [])
            assert len(records) == count, name
            assert all(r.cat == "simulate" and r.parent == run.sid
                       for r in records), name

    def test_metadata_carries_plan_and_schedule(self, paper_raytrace):
        result = run_model(paper_raytrace, MachineConfig(), "hidisc",
                           sampling=GRID_PLAN)
        assert result.sampled
        meta = result.sampling
        assert meta["plan"]["interval_length"] == GRID_PLAN.interval_length
        assert meta["plan"]["seed"] == GRID_PLAN.seed
        assert not meta["exact"]
        # The published schedule is the real one: re-derivable from the
        # effective interval (after any adaptive densification).
        effective = dataclasses.replace(
            GRID_PLAN, interval_length=meta["interval_length_effective"])
        expected = build_schedule(meta["trace_length"],
                                  paper_raytrace.warmup_pos_decoupled,
                                  effective)
        assert meta["schedule"] == [list(w) for w in expected]
        assert meta["intervals"] == len(expected)
        assert meta["sampled_positions"] < meta["total_positions"]
        assert 0.0 <= meta["cycles_rel_ci95"] <= GRID_PLAN.error_budget

    def test_single_cell_within_budget(self, paper_raytrace):
        config = MachineConfig()
        full = run_model(paper_raytrace, config, "hidisc")
        samp = run_model(paper_raytrace, config, "hidisc",
                         sampling=GRID_PLAN)
        err = abs(samp.cycles - full.cycles) / full.cycles
        assert err <= GRID_PLAN.error_budget, f"CPI error {err:.2%}"
        # Extrapolated CPI stacks stay exactly consistent with cycles.
        for core, stack in samp.cpi_stacks.items():
            assert sum(stack.values()) == samp.cycles, core

    def test_quick_workload_degrades_to_exact(self):
        """Quick traces fit inside one default sampling period; the result
        must be the honest full-detail number, tagged exact."""
        cw = prepare(get_workload("field", quick=True), MachineConfig())
        config = MachineConfig()
        samp = run_model(cw, config, "hidisc", sampling=SamplingPlan())
        full = run_model(cw, config, "hidisc")
        assert samp.sampled and samp.sampling["exact"]
        assert samp.cycles == full.cycles
        assert samp.sampling["cycles_rel_ci95"] == 0.0

    def test_sampling_conflicts_raise(self, paper_raytrace):
        config = MachineConfig()
        with pytest.raises(SamplingError):
            run_model(paper_raytrace, config, "hidisc", verify=True,
                      sampling=GRID_PLAN)
        with pytest.raises(SamplingError):
            run_model(paper_raytrace, config, "hidisc", faults=object(),
                      sampling=GRID_PLAN)


@pytest.mark.slow
class TestGridAccuracy:
    def test_sampled_cpi_within_budget_all_cells(self):
        """The tentpole accuracy claim: every paper-scale benchmark on
        every machine model extrapolates within the error budget.  The
        full-detail runs it measures against must reproduce the committed
        paper-scale numbers exactly (the file predates some payload keys,
        so only the keys it has are compared)."""
        committed = json.loads(PAPER_SCALE.read_text())["suite"]["benchmarks"]
        config = MachineConfig()
        failures = []
        pinned = set()
        for workload in all_workloads():
            cw = prepare(workload, config)
            full = {mode: run_model(cw, config, mode) for mode in MODEL_ORDER}
            for mode in MODEL_ORDER:
                samp = run_model(cw, config, mode, sampling=GRID_PLAN)
                err = abs(samp.cycles - full[mode].cycles) / full[mode].cycles
                if err > GRID_PLAN.error_budget:
                    failures.append(f"{workload.name}/{mode}: {err:.2%}")
            want = committed.get(workload.name)
            if want is not None:
                got = SuiteResult(config, quick=False, benchmarks={
                    workload.name: BenchmarkResults(cw, full)},
                ).to_payload()["benchmarks"][workload.name]
                assert got["work_instructions"] == want["work_instructions"]
                for mode, cell in want["models"].items():
                    assert {k: got["models"][mode][k] for k in cell} == cell, \
                        f"{workload.name}/{mode} moved off {PAPER_SCALE.name}"
                pinned.add(workload.name)
        assert pinned == set(committed)
        assert not failures, failures


# ----------------------------------------------------------------------
# Cache / checkpoint key separation
# ----------------------------------------------------------------------
class TestCacheKeys:
    def test_suite_key_separates_sampled_from_full(self):
        config = MachineConfig()
        workloads = quick_workloads()
        keys = {
            suite_key(config, workloads, MODEL_ORDER, sampling=None),
            suite_key(config, workloads, MODEL_ORDER, sampling=SamplingPlan()),
            suite_key(config, workloads, MODEL_ORDER, sampling=GRID_PLAN),
            suite_key(config, workloads, MODEL_ORDER,
                      sampling=dataclasses.replace(GRID_PLAN, seed=7)),
        }
        assert len(keys) == 4, "sampled/full or distinct plans alias"

    def test_sampled_suite_round_trips_without_aliasing(self, tmp_path):
        config = MachineConfig()
        workloads = [get_workload("field", quick=True),
                     get_workload("spmv", quick=True)]
        modes = ("superscalar", "hidisc")
        cache = RunCache(tmp_path / "cache")
        plan = SamplingPlan()

        sampled_1 = run_suite(config, quick=True, workloads=workloads,
                              modes=modes, cache=cache, sampling=plan)
        # Resume from the checkpoints the first run wrote: identical
        # payload, every cell still tagged sampled.
        sampled_2 = run_suite(config, quick=True, workloads=workloads,
                              modes=modes, cache=cache, sampling=plan,
                              resume=True)
        for name in sampled_1.benchmarks:
            for mode in modes:
                r1 = sampled_1.benchmarks[name].results[mode]
                r2 = sampled_2.benchmarks[name].results[mode]
                assert r1 == r2, (name, mode)
                assert r1.sampled and r2.sampled, (name, mode)

        # A full-detail resume against the SAME cache must not pick up the
        # sampled checkpoints (the suite key includes the plan).
        full = run_suite(config, quick=True, workloads=workloads,
                         modes=modes, cache=cache, resume=True)
        for name in full.benchmarks:
            for mode in modes:
                assert not full.benchmarks[name].results[mode].sampled, \
                    (name, mode)


# ----------------------------------------------------------------------
# Large workload family
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestLargeFamily:
    def test_at_least_50x_quick_counts(self):
        quick_by_name = {w.name: w for w in quick_workloads()}
        for name in LARGE_WORKLOADS:
            quick_trace, _ = generate_trace(quick_by_name[name].program)
            large_trace, _ = generate_trace(large_workload(name).program)
            ratio = len(large_trace) / len(quick_trace)
            assert ratio >= 50.0, f"{name}: only {ratio:.1f}x quick scale"

    def test_large_cell_samples_with_tight_ci(self):
        """The showcase bench cell really samples (no degrade-to-exact)
        and meets the default budget without densification."""
        cw = prepare(large_workload("raytrace"), MachineConfig())
        plan = SamplingPlan(interval_length=80_000, detail_length=2_000,
                            warmup_length=1_000)
        result = run_model(cw, MachineConfig(), "hidisc", sampling=plan)
        meta = result.sampling
        assert not meta["exact"]
        assert meta["refinements"] == 0
        assert meta["cycles_rel_ci95"] <= plan.error_budget
        # The whole point: detail covers a small fraction of the region.
        assert meta["sampled_positions"] / meta["total_positions"] < 0.2
