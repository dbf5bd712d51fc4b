"""Experiment harness tests: runner, suite, and the figure/table views.

The full-suite tests run the scaled-down (quick) inputs end-to-end and then
assert the paper's *shape* claims on the result — these are the
reproduction's acceptance tests.
"""

import json

import pytest

from repro.config import FIGURE10_LATENCIES, MachineConfig
from repro.experiments import (
    MODEL_ORDER,
    figure8,
    figure9,
    figure10,
    prepare,
    run_benchmark,
    run_model,
    table1,
    table2,
)
from repro.workloads import FieldWorkload, get_workload


class TestRunner:
    def test_prepare_validates_and_counts(self, config):
        cw = prepare(FieldWorkload(n=500), config)
        assert cw.work > 0
        assert cw.queue_plan.balanced
        assert cw.warmup_pos_original < len(cw.trace)

    def test_run_model_modes(self, config):
        cw = prepare(FieldWorkload(n=500), config)
        results = {mode: run_model(cw, config, mode) for mode in MODEL_ORDER}
        assert all(r.cycles > 0 for r in results.values())
        # same measured work across models
        assert len({r.work_instructions for r in results.values()}) == 1

    def test_run_benchmark_collects(self, config):
        cw = prepare(FieldWorkload(n=500), config)
        bench = run_benchmark(cw, config)
        assert set(bench.results) == set(MODEL_ORDER)
        assert bench.speedup("superscalar") == pytest.approx(1.0)

    def test_unknown_mode_rejected(self, config):
        from repro.errors import SimulationError

        cw = prepare(FieldWorkload(n=500), config)
        with pytest.raises(SimulationError):
            run_model(cw, config, "quantum")

    def test_prepare_stamps_fingerprint(self, config):
        from repro.experiments import compile_key

        workload = FieldWorkload(n=500)
        cw = prepare(workload, config)
        assert cw.fingerprint == compile_key(workload, config)

    def test_missing_baseline_raises_clearly(self, config):
        """Regression: modes without 'superscalar' used to surface as a
        bare KeyError from BenchmarkResults.baseline."""
        from repro.errors import SimulationError

        cw = prepare(FieldWorkload(n=500), config)
        bench = run_benchmark(cw, config, modes=("hidisc",))
        with pytest.raises(SimulationError, match="baseline"):
            bench.baseline
        with pytest.raises(SimulationError, match="baseline"):
            bench.speedup("hidisc")


class TestSuiteShapes:
    """The paper's qualitative claims, asserted on the quick suite."""

    def test_all_benchmarks_present(self, quick_suite):
        assert set(quick_suite.names) == {
            "dm", "raytrace", "pointer", "update", "field",
            "neighborhood", "transitive", "hashjoin", "spmv",
        }

    def test_hidisc_beats_baseline_on_average(self, quick_suite):
        assert quick_suite.mean_speedup("hidisc") > 1.05

    def test_prefetching_contributes_more_than_decoupling(self, quick_suite):
        # Paper Table 2: CP+AP +1.3% vs CP+CMP +10.7%.
        assert quick_suite.mean_speedup("cp_cmp") > \
            quick_suite.mean_speedup("cp_ap")

    def test_decoupling_alone_is_modest(self, quick_suite):
        assert quick_suite.mean_speedup("cp_ap") < \
            quick_suite.mean_speedup("hidisc")

    def test_misses_eliminated_on_average(self, quick_suite):
        # Paper §5.3: 17.1% of cache misses eliminated by HiDISC.
        assert quick_suite.mean_miss_reduction("hidisc") > 0.10

    def test_cp_ap_does_not_change_misses(self, quick_suite):
        for bench in quick_suite.benchmarks.values():
            assert bench.miss_ratio("cp_ap") == pytest.approx(1.0, abs=0.12)

    def test_field_gains_from_decoupling_not_prefetching(self, quick_suite):
        field = quick_suite.benchmarks["field"]
        assert field.speedup("cp_ap") > 1.02
        assert field.speedup("cp_cmp") == pytest.approx(1.0, abs=0.02)

    def test_empty_suite_means_raise_clearly(self):
        """Regression: mean_speedup / mean_miss_reduction used to crash
        with ZeroDivisionError on an empty suite."""
        from repro.errors import SimulationError
        from repro.experiments import SuiteResult

        empty = SuiteResult(config=MachineConfig(), quick=True)
        with pytest.raises(SimulationError, match="empty suite"):
            empty.mean_speedup("hidisc")
        with pytest.raises(SimulationError, match="empty suite"):
            empty.mean_miss_reduction("hidisc")

    def test_payload_serialises(self, quick_suite, tmp_path):
        payload = quick_suite.to_payload()
        text = json.dumps(payload)
        back = json.loads(text)
        assert set(back["benchmarks"]) == set(quick_suite.names)
        for entry in back["benchmarks"].values():
            assert set(entry["models"]) == set(MODEL_ORDER)


class TestFigureViews:
    def test_figure8_render(self, quick_suite):
        view = figure8(quick_suite)
        text = view.render()
        assert "Figure 8" in text and "HiDISC" in text and "MEAN" in text
        speedups = view.speedups()
        assert set(speedups) == set(quick_suite.names)
        for by_model in speedups.values():
            assert by_model["superscalar"] == pytest.approx(1.0)

    def test_figure8_best_model(self, quick_suite):
        view = figure8(quick_suite)
        for name in quick_suite.names:
            best = view.best_model(name)
            bench = quick_suite.benchmarks[name]
            assert bench.speedup(best) == max(
                bench.speedup(m) for m in MODEL_ORDER
            )

    def test_table2_render_and_ordering(self, quick_suite):
        view = table2(quick_suite)
        text = view.render()
        assert "Table 2" in text and "Cache prefetching" in text
        means = view.means()
        assert set(means) == {"cp_ap", "cp_cmp", "hidisc"}
        assert view.ordering_holds()

    def test_figure9_render(self, quick_suite):
        view = figure9(quick_suite)
        text = view.render()
        assert "Figure 9" in text and "miss rate" in text
        name, cut = view.best_reduction()
        assert name in quick_suite.names and 0 < cut <= 1

    def test_table1_lists_parameters(self):
        text = table1(MachineConfig())
        assert "bimodal" in text
        assert "2048" in text
        assert "120 CPU clock cycles" in text


class TestFigure10:
    def test_sweep_quick_single_benchmark(self):
        fig = figure10(MachineConfig(), quick=True, benchmarks=("pointer",),
                       latencies=((4, 40), (16, 160)))
        series = fig.ipc["pointer"]
        assert set(series) == set(MODEL_ORDER)
        for values in series.values():
            assert len(values) == 2 and all(v > 0 for v in values)
        # every model runs slower (or equal) at 4x the latency
        for mode in MODEL_ORDER:
            assert series[mode][1] <= series[mode][0]

    def test_degradation_and_render(self):
        fig = figure10(MachineConfig(), quick=True, benchmarks=("pointer",),
                       latencies=((4, 40), (16, 160)))
        d = fig.degradation("pointer", "superscalar")
        assert 0.0 <= d < 1.0
        text = fig.render()
        assert "Figure 10" in text and "4/40" in text

    def test_reuses_compiled(self, config):
        cw = prepare(get_workload("pointer", quick=True), config)
        fig = figure10(config, quick=True, benchmarks=("pointer",),
                       latencies=((12, 120),),
                       compiled={"pointer": cw})
        assert fig.ipc["pointer"]["hidisc"][0] > 0

    def test_rejects_stale_compiled(self, config):
        """Regression: a compilation prepared under different settings
        (here quick=True vs a paper-scale sweep) must be rejected, not
        silently replayed."""
        from repro.errors import SimulationError

        cw = prepare(get_workload("pointer", quick=True), config)
        with pytest.raises(SimulationError, match="different"):
            figure10(config, quick=False, benchmarks=("pointer",),
                     latencies=((12, 120),), compiled={"pointer": cw})

    def test_rejects_compiled_from_other_config(self, config):
        from repro.errors import SimulationError

        other = config.with_latency(4, 40)
        cw = prepare(get_workload("pointer", quick=True), other)
        with pytest.raises(SimulationError, match="different"):
            figure10(config, quick=True, benchmarks=("pointer",),
                     latencies=((12, 120),), compiled={"pointer": cw})

    def test_default_latencies_match_paper(self):
        assert FIGURE10_LATENCIES == ((4, 40), (8, 80), (12, 120), (16, 160))
