"""Unit tests for the host-side orchestration observability primitives:
the span tracer (repro.telemetry.spans) and the metrics registry
(repro.telemetry.metrics)."""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro.experiments import Task, run_tasks
from repro.experiments.parallel import _pool_task
from repro.telemetry import metrics, spans, write_perfetto

from .conftest import read_perfetto_trace


@pytest.fixture(autouse=True)
def _clean_observability():
    """Both modules hold process-global state: every test starts and ends
    with no tracer installed and an empty registry."""
    assert spans.current() is None
    metrics.reset()
    yield
    assert spans.current() is None, "a tracing block leaked its tracer"
    metrics.reset()


def _spanning_task():
    """A pool task that records one span of its own."""
    with spans.span("task-work", cat="t"):
        pass
    return SimpleNamespace()


# ----------------------------------------------------------------------
# Span tracer


class TestSpanTracer:
    def test_disabled_by_default_and_zero_alloc(self):
        assert spans.current() is None
        # the module-level helpers hand back the one shared no-op object
        assert spans.span("anything") is spans.NULL_SPAN
        with spans.span("nested", cat="x", a=1) as sp:
            sp.set(b=2)
        spans.instant("nothing", cat="x")

    def test_enable_records_nested_spans(self):
        with spans.tracing() as tracer:
            assert spans.current() is tracer
            with spans.span("outer", cat="t", k=1):
                with spans.span("inner", cat="t") as sp:
                    sp.set(found=True)
        assert [r.name for r in tracer.records] == ["inner", "outer"]
        inner, outer = tracer.records
        assert inner.parent == outer.sid and outer.parent is None
        assert inner.args == {"found": True} and outer.args == {"k": 1}
        assert inner.dur_ns >= 0 and outer.dur_ns >= inner.dur_ns
        assert outer.pid == os.getpid()

    def test_tracing_blocks_nest_and_restore(self):
        with spans.tracing() as outer:
            with spans.tracing() as inner:
                spans.instant("inner-only", cat="t")
            assert spans.current() is outer
            spans.instant("outer-only", cat="t")
        assert [r.name for r in inner.records] == ["inner-only"]
        assert [r.name for r in outer.records] == ["outer-only"]

    def test_exception_annotates_span_and_pops_stack(self):
        with spans.tracing() as tracer:
            with pytest.raises(ValueError):
                with spans.span("doomed", cat="t"):
                    raise ValueError("boom")
            with spans.span("after", cat="t"):
                pass
        doomed, after = tracer.records
        assert doomed.args["error"] == "ValueError"
        assert after.parent is None, "exception must unwind the stack"

    def test_instants_carry_parent_and_no_duration(self):
        with spans.tracing() as tracer:
            with spans.span("outer", cat="t"):
                spans.instant("ping", cat="t", n=3)
        ping = tracer.records[0]
        assert ping.dur_ns is None and ping.args == {"n": 3}
        assert ping.parent == tracer.records[1].sid

    def test_span_ids_are_pid_prefixed_and_unique(self):
        with spans.tracing() as tracer:
            for _ in range(5):
                with spans.span("s", cat="t"):
                    pass
        sids = [r.sid for r in tracer.records]
        assert len(set(sids)) == 5
        assert all(sid.startswith(f"{os.getpid():x}.") for sid in sids)

    def test_adopt_keeps_foreign_pids(self):
        tracer = spans.SpanTracer()
        foreign = spans.SpanRecord(name="w", cat="pool", pid=424242,
                                   sid="678f2.1", parent=None,
                                   t0_ns=1, dur_ns=5, args={})
        tracer.adopt([foreign])
        assert tracer.records[-1].pid == 424242

    def test_record_dict_round_trip(self):
        record = spans.SpanRecord(name="n", cat="c", pid=1, sid="1.1",
                                  parent=None, t0_ns=7, dur_ns=3,
                                  args={"x": 1})
        assert spans.SpanRecord(**record.as_dict()) == record


class TestWorkerBracketing:
    """A pool task runs under its own tracer only when its parent
    traces, and always in its own metrics scope
    (:func:`repro.experiments.parallel._pool_task`)."""

    def test_parent_process_traces_inline(self):
        with spans.tracing() as tracer:
            [result] = run_tasks([Task("t", _spanning_task, ())], jobs=1)
        assert not hasattr(result, "host_spans"), \
            "the tracing parent keeps its own tracer on the inline path"
        assert [r.name for r in tracer.records] == ["task-work",
                                                    "run_tasks"]

    def test_off_means_none(self):
        result, snap, shipped = _pool_task(False, _spanning_task, ())
        assert vars(result) == {}
        assert shipped is None, "an untraced task ships no spans"
        assert "peak_rss_bytes" in snap["gauges"]

    def test_fork_inherited_tracer_is_replaced(self):
        with spans.tracing() as stale:
            # a fork-inherited copy of the parent's tracer: foreign pid
            stale.pid = os.getpid() + 1
            _, snap, shipped = _pool_task(True, _spanning_task, ())
            assert spans.current() is stale
        assert stale.records == [], "the task never records on the copy"
        assert [d["name"] for d in shipped] == ["task-work", "_spanning_task"]
        assert "peak_rss_bytes" in snap["gauges"]


# ----------------------------------------------------------------------
# Export and summary


def _sample_records():
    pid = os.getpid()
    return [
        spans.SpanRecord(name="prepare", cat="compile", pid=pid,
                         sid=f"{pid:x}.1", parent=None,
                         t0_ns=1_000_000, dur_ns=2_000_000, args={}),
        spans.SpanRecord(name="cache_miss", cat="cache", pid=pid,
                         sid=f"{pid:x}.2", parent=f"{pid:x}.1",
                         t0_ns=1_500_000, dur_ns=None, args={"key": "ab"}),
        spans.SpanRecord(name="run_model_task", cat="pool", pid=999,
                         sid="3e7.1", parent=None,
                         t0_ns=2_000_000, dur_ns=500_000, args={}),
    ]


_LANES = {os.getpid(): "hidisc orchestrator", 999: "hidisc worker 999"}


class TestTraceExport:
    def test_lane_events_lanes_and_epoch(self):
        events = spans.lane_events(_sample_records(), _LANES)
        assert [(lane, thread) for lane, thread, _ in events] == [
            ("hidisc orchestrator", None), ("hidisc orchestrator", None),
            ("hidisc worker 999", None)]
        xs = [e for _, _, e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0.0, "epoch-relative timestamps"
        assert xs[0]["args"] == {"sid": f"{os.getpid():x}.1",
                                 "parent": None}
        assert any(e["ph"] == "i" for _, _, e in events)

    def test_empty_records(self):
        assert spans.lane_events([], {}) == []

    def test_write_is_json_and_line_consumable(self, tmp_path):
        out = tmp_path / "orch.json"
        count = write_perfetto(spans.lane_events(_sample_records(), _LANES),
                               out)
        events, lanes = read_perfetto_trace(out)
        assert count == len([e for e in events if e["ph"] != "M"]) == 3
        assert lanes == {0: "hidisc orchestrator", 1: "hidisc worker 999"}
        sort = {e["pid"]: e["args"]["sort_index"] for e in events
                if e["name"] == "process_sort_index"}
        assert sort == {0: 0, 1: 1}
        assert all("tid" not in e for e in events), "process-scoped lanes"

    def test_summarize(self):
        digest = spans.summarize(_sample_records())
        assert digest["count"] == 3
        assert digest["by_category"]["compile"] == {"count": 1, "ms": 2.0}
        assert digest["by_category"]["pool"] == {"count": 1, "ms": 0.5}
        assert digest["slowest"][0]["name"] == "prepare"


# ----------------------------------------------------------------------
# Metrics registry


class TestMetricsRegistry:
    def test_counters_sum_and_labels_render_sorted(self):
        reg = metrics.MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2)
        reg.inc("hits", bench="field", mode="hidisc")
        assert reg.counters == {"hits": 3,
                                "hits{bench=field,mode=hidisc}": 1}

    def test_gauge_and_gauge_max(self):
        reg = metrics.MetricsRegistry()
        reg.gauge("rss", 10)
        reg.gauge("rss", 5)
        assert reg.gauges["rss"] == 5
        reg.gauge_max("peak", 10)
        reg.gauge_max("peak", 5)
        reg.gauge_max("peak", 20)
        assert reg.gauges["peak"] == 20

    def test_histogram_decade_buckets(self):
        reg = metrics.MetricsRegistry()
        for value in (0.003, 0.004, 0.02, 5.0, 0.0):
            reg.observe("wait", value)
        hist = reg.histograms["wait"]
        assert hist["count"] == 5 and hist["min"] == 0.0
        assert hist["max"] == 5.0
        assert hist["buckets"] == {"<=0": 1, "1e-3..1e-2": 2,
                                   "1e-2..1e-1": 1, "1e0..1e1": 1}

    def test_snapshot_is_deterministic(self):
        a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        for reg, order in ((a, ("x", "y")), (b, ("y", "x"))):
            for name in order:
                reg.inc(name)
                reg.observe("h", 1.0, series=name)
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())
        assert a.snapshot()["version"] == metrics.SNAPSHOT_VERSION

    def test_merge_commutes(self):
        def build(values):
            reg = metrics.MetricsRegistry()
            for v in values:
                reg.inc("n")
                reg.gauge_max("peak", v)
                reg.observe("h", v)
            return reg.snapshot()

        snap_a, snap_b = build([1.0, 30.0]), build([0.2])
        ab, ba = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        ab.merge(snap_a)
        ab.merge(snap_b)
        ba.merge(snap_b)
        ba.merge(snap_a)
        assert json.dumps(ab.snapshot()) == json.dumps(ba.snapshot())
        assert ab.counters["n"] == 3
        assert ab.gauges["peak"] == 30.0
        assert ab.histograms["h"]["count"] == 3
        assert ab.histograms["h"]["min"] == 0.2

    def test_scopes_isolate_per_task_deltas(self):
        metrics.inc("base")
        scope = metrics.push_scope()
        metrics.inc("task_only", 2)
        snap = metrics.pop_scope(scope)
        assert snap["counters"] == {"task_only": 2}
        # the base registry never saw the scoped increment
        assert metrics.snapshot()["counters"] == {"base": 1}
        # and a shipped snapshot merges back deterministically
        metrics.merge(snap)
        assert metrics.snapshot()["counters"] == {"base": 1, "task_only": 2}

    def test_reset_clears_everything(self):
        metrics.inc("x")
        metrics.push_scope()
        metrics.reset()
        assert metrics.registry().empty()

    def test_record_peak_rss(self):
        value = metrics.record_peak_rss()
        if value is None:
            pytest.skip("resource module unavailable")
        assert value > 0
        assert metrics.snapshot()["gauges"]["peak_rss_bytes"] == value
