"""Simulator-infrastructure microbenchmarks.

Not figures from the paper — these track the reproduction's own hot paths
(functional interpretation rate, timing-core throughput, compiler cost) so
performance regressions in the simulator itself are visible.
"""

from __future__ import annotations

import resource
import sys

import pytest

from repro.config import MachineConfig, SamplingPlan
from repro.sim import Machine, generate_trace
from repro.sim.functional import FunctionalSimulator
from repro.slicer import compile_hidisc
from repro.telemetry import LifecycleCollector, MemorySink, Telemetry
from repro.workloads import FieldWorkload, large_workload

#: The sampled-vs-full showcase cell: the large raytrace instance is big
#: enough (~460k dynamic instructions) that full detailed simulation of
#: the hidisc model takes seconds, and regular enough that the default
#: error budget holds without densification — the honest setting for the
#: >= 10x cycles/sec claim the two scenarios below substantiate.
_LARGE_BENCH = "raytrace"
_LARGE_MODE = "hidisc"
_LARGE_PLAN = SamplingPlan(interval_length=80_000, detail_length=2_000,
                           warmup_length=1_000)


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS.  It is a
    high-water mark, so per-scenario values are monotone across the run;
    a scenario's own footprint is visible as the step over its
    predecessor in the snapshot.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def test_functional_interpreter_rate(benchmark):
    program = FieldWorkload(n=1200).program

    def run():
        sim = FunctionalSimulator(program)
        sim.run()
        return sim.instructions_executed

    executed = benchmark(run)
    benchmark.extra_info["instructions"] = executed
    benchmark.extra_info["peak_rss_bytes"] = _peak_rss_bytes()
    assert executed > 10_000


def test_timing_core_rate(benchmark):
    config = MachineConfig()
    program = FieldWorkload(n=1200).program
    trace, _ = generate_trace(program)

    def run():
        return Machine(config, program.copy(), trace,
                       mode="superscalar").run().cycles

    cycles = benchmark(run)
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["trace_length"] = len(trace)
    benchmark.extra_info["peak_rss_bytes"] = _peak_rss_bytes()


def test_timing_core_rate_telemetry_cpi(benchmark):
    """CPI-stack collection enabled; compare against test_timing_core_rate
    (telemetry off) — the disabled path above must stay within ~5% of the
    pre-telemetry baseline, and this variant shows the cost of stacks."""
    config = MachineConfig()
    program = FieldWorkload(n=1200).program
    trace, _ = generate_trace(program)

    def run():
        return Machine(config, program.copy(), trace, mode="superscalar",
                       telemetry=Telemetry(cpi=True)).run().cycles

    cycles = benchmark(run)
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["peak_rss_bytes"] = _peak_rss_bytes()


def test_timing_core_rate_telemetry_full(benchmark):
    """Everything on: CPI stacks, event stream into a MemorySink, and
    128-cycle occupancy sampling — the worst-case instrumented path."""
    config = MachineConfig()
    program = FieldWorkload(n=1200).program
    trace, _ = generate_trace(program)

    def run():
        tel = Telemetry(sink=MemorySink(), cpi=True, sample_interval=128)
        result = Machine(config, program.copy(), trace, mode="superscalar",
                         telemetry=tel).run()
        return result.cycles, len(tel.sink.events)

    cycles, events = benchmark(run)
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["events"] = events
    benchmark.extra_info["peak_rss_bytes"] = _peak_rss_bytes()
    assert events > 0


def test_timing_core_rate_lifecycle(benchmark):
    """Per-dynamic-instruction lifecycle capture on (CPI stacks too) —
    the cost of stage-record tracing relative to the plain and
    CPI-only variants above, and the memory side via peak_rss_bytes."""
    config = MachineConfig()
    program = FieldWorkload(n=1200).program
    trace, _ = generate_trace(program)

    def run():
        tel = Telemetry(cpi=True, lifecycle=LifecycleCollector())
        result = Machine(config, program.copy(), trace, mode="superscalar",
                         telemetry=tel).run()
        return result.cycles, tel.lifecycle.committed

    cycles, captured = benchmark(run)
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["captured"] = captured
    benchmark.extra_info["peak_rss_bytes"] = _peak_rss_bytes()
    assert captured == len(trace)


def test_compiler_cost(benchmark):
    config = MachineConfig()
    program = FieldWorkload(n=1200).program
    trace, _ = generate_trace(program)

    comp = benchmark(lambda: compile_hidisc(program, config, trace=trace))
    assert comp.report()["static_instructions"] == len(program.text)


def test_prepare_cold_no_cache(benchmark):
    """Cold compilation cost of one benchmark (no run cache) — the
    baseline the warm-cache variant below is compared against."""
    config = MachineConfig()

    def run():
        from repro.experiments import prepare

        return prepare(FieldWorkload(n=1200), config).work

    work = benchmark(run)
    assert work > 0


def test_prepare_warm_run_cache(benchmark, tmp_path):
    """Warm-cache compilation: after one priming call, every iteration is
    a content-addressed disk hit (unpickle) instead of a recompile.  The
    gap between this and test_prepare_cold_no_cache is what the run cache
    buys each suite/figure10 invocation."""
    from repro.experiments import RunCache, prepare_cached

    config = MachineConfig()
    cache = RunCache(tmp_path / "cache")
    prepare_cached(FieldWorkload(n=1200), config, cache)  # prime

    def run():
        return prepare_cached(FieldWorkload(n=1200), config, cache).work

    work = benchmark(run)
    benchmark.extra_info["cache_hits"] = cache.hits
    assert work > 0 and cache.hits > 0


@pytest.fixture(scope="module")
def large_compiled():
    """One shared compilation of the large-scale showcase benchmark."""
    from repro.experiments import prepare

    return prepare(large_workload(_LARGE_BENCH), MachineConfig())


def test_large_workload_full_detail(benchmark, large_compiled):
    """Full detailed timing of one large-workload cell — the denominator
    of the sampled-speedup claim (compare cycles/sec against
    test_large_workload_sampled in the same snapshot)."""
    from repro.experiments import run_model

    config = MachineConfig()

    def run():
        return run_model(large_compiled, config, _LARGE_MODE).cycles

    cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["trace_length"] = len(large_compiled.decoupled_trace)
    benchmark.extra_info["peak_rss_bytes"] = _peak_rss_bytes()


def test_large_workload_sampled(benchmark, large_compiled):
    """The same cell through the sampled-interval driver.  The snapshot's
    cycles_per_second for this scenario must be >= 10x the full-detail
    scenario's (the extrapolated cycle count stands in for the simulated
    cycles, as it deviates from the full run by well under the 3%
    error budget)."""
    from repro.experiments import run_model

    config = MachineConfig()

    def run():
        result = run_model(large_compiled, config, _LARGE_MODE,
                           sampling=_LARGE_PLAN)
        assert result.sampled and not result.sampling["exact"]
        return result.cycles

    cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["trace_length"] = len(large_compiled.decoupled_trace)
    benchmark.extra_info["peak_rss_bytes"] = _peak_rss_bytes()


def test_large_cache_roundtrip(benchmark, large_compiled, tmp_path):
    """``RunCache.store`` plus ``load`` of the large raytrace compilation:
    the cost of the run-cache entry format, which a warm large-tier suite
    pays once per benchmark (columnar traces and plans of compact
    ``array`` columns keep it to a few byte strings)."""
    from repro.experiments import RunCache

    cache = RunCache(tmp_path / "cache")
    key = large_compiled.fingerprint

    def run():
        cache.store(key, large_compiled)
        return cache.load(key)

    loaded = benchmark.pedantic(run, rounds=5, iterations=1)
    benchmark.extra_info["entry_bytes"] = cache.path_for(key).stat().st_size
    benchmark.extra_info["peak_rss_bytes"] = _peak_rss_bytes()
    assert loaded is not None
    assert loaded.decoupled_trace == large_compiled.decoupled_trace


def test_cache_access_rate(benchmark):
    from repro.sim.cache import Cache

    cache = Cache(MachineConfig().l1)
    addresses = [(i * 5323) % (1 << 20) & ~7 for i in range(20_000)]

    def run():
        hits = 0
        for a in addresses:
            hits += cache.access(a)
        return hits

    benchmark(run)
