"""Observability of the process-pool grid (repro.experiments.parallel):
retry/backoff/fallback counters and span records, worker observations
travelling back inside task results, and the suite-level counters the
run ledger reports."""

from __future__ import annotations

import os

import pytest

from repro.experiments import (
    RunCache,
    Task,
    compile_key,
    run_suite,
    run_tasks,
)
from repro.experiments.parallel import prepare_many, prepare_task
from repro.telemetry import metrics, spans
from repro.workloads import FieldWorkload

from .conftest import read_perfetto_trace


@pytest.fixture(autouse=True)
def _clean_observability():
    spans.disable()
    metrics.reset()
    yield
    spans.disable()
    metrics.reset()


def _identity_task(value):
    return value


def _crash_in_worker(parent_pid):
    """Dies hard in a pool worker; succeeds when run in the parent."""
    if os.getpid() != parent_pid:
        os._exit(3)
    return "ok"


def _crash_until_marker(parent_pid, marker):
    """Dies in a pool worker until *marker* exists (created just before
    the crash) — so the first pool round breaks and the retried round
    succeeds."""
    if os.getpid() != parent_pid and not os.path.exists(marker):
        try:
            with open(marker, "x"):
                pass
        except FileExistsError:
            pass
        os._exit(3)
    return "ok"


class TestRetryAndFallbackCounters:
    def test_retry_recovers_and_counts(self, tmp_path):
        tracer = spans.enable()
        parent = os.getpid()
        marker = str(tmp_path / "crashed")
        tasks = [Task(label=f"t{i}", fn=_crash_until_marker,
                      args=(parent, marker)) for i in range(4)]
        assert run_tasks(tasks, jobs=2, backoff=0.01) == ["ok"] * 4
        spans.disable()
        counters = metrics.snapshot()["counters"]
        assert counters["pool_retries"] == 1
        assert counters["pool_worker_failures"] >= 1
        assert "pool_fallback_tasks" not in counters, \
            "the retried round succeeded — no serial fallback"
        names = [r.name for r in tracer.records]
        assert names.count("pool_round") >= 2
        assert "backoff" in names and "run_tasks" in names
        assert "worker_failure" in [r.name for r in tracer.records
                                    if r.dur_ns is None]

    def test_exhausted_retries_fall_back_serially(self):
        tracer = spans.enable()
        parent = os.getpid()
        tasks = [Task(label=f"t{i}", fn=_crash_in_worker, args=(parent,))
                 for i in range(3)]
        assert run_tasks(tasks, jobs=2, retries=1, backoff=0.01) == \
            ["ok"] * 3
        spans.disable()
        counters = metrics.snapshot()["counters"]
        assert counters["pool_retries"] == 1
        assert counters["pool_fallback_tasks"] == 3
        fallback = [r for r in tracer.records
                    if r.name == "serial_fallback"]
        assert len(fallback) == 1 and fallback[0].args["tasks"] == 3

    def test_counters_track_without_tracing(self):
        """The metrics registry works with spans off (the ledger records
        counters even for untraced runs)."""
        parent = os.getpid()
        tasks = [Task(label=f"t{i}", fn=_crash_in_worker, args=(parent,))
                 for i in range(2)]
        assert run_tasks(tasks, jobs=2, retries=0) == ["ok"] * 2
        assert not spans.active()
        counters = metrics.snapshot()["counters"]
        assert counters["pool_fallback_tasks"] == 2

    def test_clean_run_leaves_failure_counters_untouched(self):
        tasks = [Task(label=str(i), fn=_identity_task, args=(i,))
                 for i in range(6)]
        assert run_tasks(tasks, jobs=2) == list(range(6))
        counters = metrics.snapshot()["counters"]
        for key in ("pool_retries", "pool_worker_failures",
                    "pool_fallback_tasks"):
            assert key not in counters


class TestWorkerObservations:
    def test_worker_spans_and_metrics_travel_back(self, config):
        tracer = spans.enable()
        workloads = [FieldWorkload(n=500, seed=1),
                     FieldWorkload(n=500, seed=2)]
        tasks = [Task(label=w.name, fn=prepare_task, args=(w, config))
                 for w in workloads]
        results = run_tasks(tasks, jobs=2)
        spans.disable()

        assert all(cw.work > 0 for cw in results)
        # transport attributes are stripped after absorption, so the
        # results (and any checkpoint pickle of them) stay clean
        assert all(not hasattr(cw, "host_spans")
                   and not hasattr(cw, "host_metrics") for cw in results)
        worker_pids = {r.pid for r in tracer.records} - {os.getpid()}
        assert worker_pids, "no worker-lane spans were adopted"
        names = {r.name for r in tracer.records}
        assert {"prepare_task", "prepare"} <= names

        snap = metrics.snapshot()
        assert snap["gauges"]["peak_rss_bytes"] > 0
        queue_wait = snap["histograms"]["queue_to_pool_seconds"]
        assert queue_wait["count"] == 2 and queue_wait["min"] >= 0

    def test_untraced_workers_ship_nothing(self, config):
        workload = FieldWorkload(n=500)
        tasks = [Task(label="a", fn=prepare_task, args=(workload, config)),
                 Task(label="b", fn=prepare_task, args=(workload, config))]
        results = run_tasks(tasks, jobs=2)
        assert all(not hasattr(cw, "host_spans")
                   and not hasattr(cw, "host_metrics") for cw in results)
        assert "peak_rss_bytes" not in metrics.snapshot()["gauges"], \
            "worker-side metrics only travel when tracing is on"


class TestCacheTraffic:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prepare_many_counts_each_miss_and_store_once(
            self, config, tmp_path, jobs, traced):
        """The parent owns the run cache: one probe and one store per
        fresh compilation, counted on the caller's cache and the metrics
        registry alike, at any jobs and with or without tracing."""
        if traced:
            spans.enable()
        workloads = [FieldWorkload(n=500, seed=1),
                     FieldWorkload(n=500, seed=2)]
        cache = RunCache(tmp_path)
        compiled = prepare_many(workloads, config, jobs=jobs, cache=cache)
        spans.disable()

        n = len(workloads)
        assert [cw.fingerprint for cw in compiled] == \
            [compile_key(w, config) for w in workloads]
        counters = metrics.snapshot()["counters"]
        assert counters["cache_misses"] == counters["cache_stores"] == n
        assert cache.misses == cache.stores == n and cache.hits == 0
        assert len(cache.entries()) == n


class TestSuiteCounters:
    def test_parallel_suite_counters_and_trace(self, config, tmp_path):
        tracer = spans.enable()
        suite = run_suite(config, quick=True,
                          workloads=[FieldWorkload(n=500)], jobs=2,
                          cache=RunCache(tmp_path / "cache"))
        spans.disable()
        assert suite.benchmarks["field"].baseline.cycles > 0

        counters = metrics.snapshot()["counters"]
        assert counters["cells_completed"] == 4
        assert counters["checkpoint_stores"] == 4
        assert counters["cache_misses"] == 1
        assert counters["cache_stores"] == 1

        out = tmp_path / "orch.json"
        count = spans.write_orchestration_trace(tracer.records, out,
                                                main_pid=os.getpid())
        events, _ = read_perfetto_trace(out)
        assert len(events) == count > 0
        names = {e["name"] for e in events}
        assert {"run_suite", "run_tasks", "run_model",
                "checkpoint_store"} <= names

    def test_resume_counts_replayed_cells(self, config, tmp_path):
        cache = RunCache(tmp_path)
        run_suite(config, quick=True, workloads=[FieldWorkload(n=500)],
                  cache=cache)
        metrics.reset()
        run_suite(config, quick=True, workloads=[FieldWorkload(n=500)],
                  cache=cache, resume=True)
        counters = metrics.snapshot()["counters"]
        assert counters["cells_resumed"] == 4
        assert counters["checkpoint_replayed"] == 4
        assert counters["cache_hits"] == 1
        assert "cells_completed" not in counters
