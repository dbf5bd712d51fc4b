"""Observability of the process-pool grid (repro.experiments.parallel):
retry/backoff/fallback counters and span records, worker observations
travelling back inside task results, the suite-level counters the run
ledger reports, and how workers receive compilations under each start
method."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    RunCache,
    Task,
    compile_key,
    run_suite,
    run_tasks,
)
from repro.experiments.parallel import prepare_many, prepare_task
from repro.telemetry import metrics, spans, write_perfetto
from repro.workloads import FieldWorkload

from .conftest import read_perfetto_trace


@pytest.fixture(autouse=True)
def _clean_observability():
    metrics.reset()
    yield
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
        parent = os.getpid()
        marker = str(tmp_path / "crashed")
        tasks = [Task(label=f"t{i}", fn=_crash_until_marker,
                      args=(parent, marker)) for i in range(4)]
        with spans.tracing() as tracer:
            assert run_tasks(tasks, jobs=2, backoff=0.01) == ["ok"] * 4
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
        parent = os.getpid()
        tasks = [Task(label=f"t{i}", fn=_crash_in_worker, args=(parent,))
                 for i in range(3)]
        with spans.tracing() as tracer:
            assert run_tasks(tasks, jobs=2, retries=1, backoff=0.01) == \
                ["ok"] * 3
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
        assert spans.current() is None
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
        workloads = [FieldWorkload(n=500, seed=1),
                     FieldWorkload(n=500, seed=2)]
        tasks = [Task(label=w.name, fn=prepare_task, args=(w, config))
                 for w in workloads]
        with spans.tracing() as tracer:
            results = run_tasks(tasks, jobs=2)

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


#: Grid cells at jobs=1 and jobs=2, then a suite at jobs=1 and at the
#: default (its prepare pool and its cell pool), under a default start
#: method that is not fork, left unset as Python 3.14 leaves it on Linux
#: (forkserver).
_FORKSERVER_DEFAULT = """\
import json
import multiprocessing
import multiprocessing.context as context

context._default_context._default_context = \\
    context._concrete_contexts["forkserver"]

from repro.config import MachineConfig
from repro.experiments import run_suite
from repro.experiments.parallel import run_cells
from repro.experiments.runner import prepare
from repro.workloads import get_workload


def main():
    print(multiprocessing.get_start_method(allow_none=True))
    config = MachineConfig()
    cw = prepare(get_workload("field", quick=True, seed=2003), config)
    cells = [(cw, "superscalar"), (cw, "hidisc")]
    for jobs in (1, 2):
        print(*[r.cycles for r in run_cells(cells, config, jobs=jobs)])
    workloads = [get_workload(name, quick=True, seed=2003)
                 for name in ("field", "pointer")]
    for jobs in (1, 0):
        payload = run_suite(config, workloads=workloads,
                            modes=("superscalar", "hidisc"),
                            jobs=jobs).to_payload()
        payload.pop("elapsed_seconds")
        print(json.dumps(payload, sort_keys=True))
    print(multiprocessing.get_start_method(allow_none=True))


if __name__ == "__main__":
    main()
"""


@pytest.mark.slow
class TestStartMethod:
    def test_forkserver_default_matches_inline(self, tmp_path):
        script = tmp_path / "forkserver_grid.py"
        script.write_text(_FORKSERVER_DEFAULT)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        before, inline, pooled, serial, default, after = \
            done.stdout.splitlines()
        assert (before, after) == ("None", "forkserver")
        assert pooled == inline and len(inline.split()) == 2
        assert default == serial and "pointer" in serial


class TestCacheTraffic:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prepare_many_counts_each_miss_and_store_once(
            self, config, tmp_path, jobs, traced):
        """The parent owns the run cache: one probe and one store per
        fresh compilation, counted on the caller's cache and the metrics
        registry alike, at any jobs and with or without tracing."""
        workloads = [FieldWorkload(n=500, seed=1),
                     FieldWorkload(n=500, seed=2)]
        cache = RunCache(tmp_path)
        with spans.tracing() if traced else contextlib.nullcontext():
            compiled = prepare_many(workloads, config, jobs=jobs,
                                    cache=cache)

        n = len(workloads)
        assert [cw.fingerprint for cw in compiled] == \
            [compile_key(w, config) for w in workloads]
        counters = metrics.snapshot()["counters"]
        assert counters["cache_misses"] == counters["cache_stores"] == n
        assert cache.misses == cache.stores == n and cache.hits == 0
        assert len(cache.entries()) == n


class TestSuiteCounters:
    def test_parallel_suite_counters_and_trace(self, config, tmp_path):
        with spans.tracing() as tracer:
            suite = run_suite(config, quick=True,
                              workloads=[FieldWorkload(n=500)], jobs=2,
                              cache=RunCache(tmp_path / "cache"))
        assert suite.benchmarks["field"].baseline.cycles > 0

        counters = metrics.snapshot()["counters"]
        assert counters["cells_completed"] == 4
        assert counters["checkpoint_stores"] == 4
        assert counters["cache_misses"] == 1
        assert counters["cache_stores"] == 1

        out = tmp_path / "orch.json"
        lanes = {r.pid: f"hidisc worker {r.pid}" for r in tracer.records}
        lanes[os.getpid()] = "hidisc orchestrator"
        count = write_perfetto(spans.lane_events(tracer.records, lanes), out)
        events, names_by_pid = read_perfetto_trace(out)
        assert count == len([e for e in events if e["ph"] != "M"]) > 0
        assert sorted(names_by_pid.values()) == sorted(lanes.values())
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
