"""Service observability (repro.service.observability and friends).

Covers the whole scrape-and-trace surface added around the durable
service:

* **Prometheus exposition** — ``render_prometheus`` (cumulative
  ``le`` buckets, ``+Inf``, ``_sum``/``_count``, label escaping,
  deterministic ordering) and the ``render_key``/``parse_key``
  round trip it rides on.
* **Merge determinism** — labeled histogram snapshots merged in any
  order produce byte-identical snapshots (scrape order must never
  change totals).
* **Queue/executor/worker instrumentation** — every transition moves
  its counter, queue-wait / execution / end-to-end latency histograms
  observe, and a real ``Worker.run_one`` leaves behind a span file and
  a run-ledger entry.
* **Worker status + fleet metrics** — atomic publish, liveness window,
  scrape-time gauges, and the aggregated ``/metrics`` + readiness
  ``/health`` HTTP endpoints.
* **Job-trace stitching** — ``stitch_job_trace`` reassembles client,
  queue and worker lanes into one valid Chrome/Perfetto trace with
  cross-process parent links.
* **Hardening regressions** — ``read_events`` survives a torn final
  JSONL line (including split multi-byte UTF-8), and the cache stats
  account the service spool.
"""

from __future__ import annotations

import io
import json
import os
import time
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.experiments import RunCache, RunLedger, ledger_path
from repro.service import (
    JobQueue,
    ServiceClient,
    ServiceServer,
    Worker,
    fleet_metrics,
    normalize_trace,
    publish_worker_status,
    read_worker_statuses,
    render_fleet_line,
    render_fleet_table,
    resolve_job_id,
    run_top,
    stitch_job_trace,
)
from repro.telemetry import StatusLine, metrics, spans, write_perfetto
from repro.telemetry.metrics import (
    MetricsRegistry,
    parse_key,
    render_key,
    render_prometheus,
)

from .conftest import read_perfetto_trace

POINTER_SPEC = {"kind": "suite", "benchmarks": ["pointer"],
                "modes": ["superscalar"], "quick": True}


@pytest.fixture(autouse=True)
def _clean_metrics():
    """The queue counts into the process-global registry; isolate it."""
    metrics.reset()
    yield
    metrics.reset()


def make_queue(tmp_path, **kwargs):
    kwargs.setdefault("retry_backoff", 0.0)
    queue = JobQueue(tmp_path / "svc", **kwargs)
    queue.ensure_layout()
    return queue


# ----------------------------------------------------------------------
# Prometheus text exposition.

class TestRenderPrometheus:
    def test_counters_gauges_and_types(self):
        reg = MetricsRegistry()
        reg.inc("jobs_completed", 3)
        reg.inc("http_requests", 2, method="GET")
        reg.inc("http_requests", 1, method="POST")
        reg.gauge("workers_live", 2.0)
        text = render_prometheus(reg.snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE http_requests counter" in lines
        assert lines.count("# TYPE http_requests counter") == 1
        assert 'http_requests{method="GET"} 2' in lines
        assert 'http_requests{method="POST"} 1' in lines
        assert "jobs_completed 3" in lines
        assert "# TYPE workers_live gauge" in lines
        assert "workers_live 2" in lines

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        for value in (0.05, 0.5, 5.0):
            reg.observe("job_latency_seconds", value)
        text = render_prometheus(reg.snapshot())
        lines = text.splitlines()
        assert "# TYPE job_latency_seconds histogram" in lines
        buckets = [l for l in lines
                   if l.startswith("job_latency_seconds_bucket")]
        # Decade buckets -> cumulative: 0.05 <= 0.1, 0.5 <= 1, 5.0 <= 10.
        assert buckets[-1] == 'job_latency_seconds_bucket{le="+Inf"} 3'
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert "job_latency_seconds_count 3" in lines
        sum_line = next(l for l in lines
                        if l.startswith("job_latency_seconds_sum"))
        assert abs(float(sum_line.split()[1]) - 5.55) < 1e-9
        assert any(l.startswith("job_latency_seconds_min") for l in lines)
        assert any(l.startswith("job_latency_seconds_max") for l in lines)

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.inc("events", 1, detail='say "hi"\nback\\slash')
        text = render_prometheus(reg.snapshot())
        assert r'detail="say \"hi\"\nback\\slash"' in text

    def test_output_is_deterministic_and_empty_snapshot_is_empty(self):
        reg = MetricsRegistry()
        reg.inc("b", 1)
        reg.inc("a", 1)
        reg.gauge("z", 1.0)
        assert render_prometheus(reg.snapshot()) == \
            render_prometheus(reg.snapshot())
        assert render_prometheus(MetricsRegistry().snapshot()) == ""

    def test_render_parse_key_round_trip(self):
        key = render_key("http_requests", {"method": "GET", "code": "200"})
        name, labels = parse_key(key)
        assert name == "http_requests"
        assert labels == {"method": "GET", "code": "200"}
        assert parse_key("plain") == ("plain", {})


class TestMergeDeterminism:
    def test_labeled_histograms_merge_order_independent(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for i in range(40):
            (a if i % 2 else b).observe("job_cell_seconds",
                                        10.0 ** (i % 7 - 3),
                                        benchmark=f"bench{i % 3}")
            (a if i % 3 else b).inc("jobs_executed",
                                    disposition="completed")
            a.gauge_max("peak", float(i))
            b.gauge_max("peak", float(40 - i))
        snap_a, snap_b = a.snapshot(), b.snapshot()

        ab = MetricsRegistry()
        ab.merge(snap_a)
        ab.merge(snap_b)
        ba = MetricsRegistry()
        ba.merge(snap_b)
        ba.merge(snap_a)
        assert json.dumps(ab.snapshot(), sort_keys=True) == \
            json.dumps(ba.snapshot(), sort_keys=True)
        # And the rendered exposition is byte-identical too.
        assert render_prometheus(ab.snapshot()) == \
            render_prometheus(ba.snapshot())


# ----------------------------------------------------------------------
# Trace-context validation.

class TestNormalizeTrace:
    def test_valid_context_is_canonicalized(self):
        trace = normalize_trace({"pid": 123, "span": "7b.1",
                                 "t_ns": 5_000, "junk": "dropped"})
        assert trace == {"pid": 123, "span": "7b.1", "t_ns": 5_000}

    @pytest.mark.parametrize("bad", [
        None, "nope", 42, [], {},
        {"pid": -1, "span": "a", "t_ns": 1},
        {"pid": True, "span": "a", "t_ns": 1},
        {"pid": 1, "span": "", "t_ns": 1},
        {"pid": 1, "span": "x" * 65, "t_ns": 1},
        {"pid": 1, "span": "a", "t_ns": 0},
        {"pid": 1, "span": "a"},
    ])
    def test_malformed_contexts_degrade_to_none(self, bad):
        assert normalize_trace(bad) is None


# ----------------------------------------------------------------------
# Queue instrumentation.

class TestQueueMetrics:
    def test_submit_claim_complete_move_counters_and_histograms(
            self, tmp_path):
        queue = make_queue(tmp_path)
        record, _ = queue.submit(dict(POINTER_SPEC))
        queue.submit(dict(POINTER_SPEC))  # dedup join
        claimed = queue.claim("w0")
        queue.complete(claimed, {"ok": True})

        snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters["jobs_submitted"] == 1
        assert counters["jobs_deduplicated"] == 1
        assert counters["jobs_claimed"] == 1
        assert counters["jobs_completed"] == 1
        assert snap["histograms"]["job_queue_wait_seconds"]["count"] == 1
        assert snap["histograms"]["job_latency_seconds"]["count"] == 1
        assert record.job_id == claimed.job_id

    def test_failure_retry_and_quarantine_counters(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=2)
        queue.submit(dict(POINTER_SPEC))
        queue.fail(queue.claim("w0"), "boom")
        assert metrics.snapshot()["counters"]["jobs_retried"] == 1
        queue.fail(queue.claim("w0"), "boom again")
        counters = metrics.snapshot()["counters"]
        assert counters["jobs_failed"] == 2
        assert counters["jobs_quarantined"] == 1

    def test_backpressure_rejections_counted(self, tmp_path):
        queue = make_queue(tmp_path, max_depth=1)
        queue.submit(dict(POINTER_SPEC))
        with pytest.raises(Exception):
            queue.submit({**POINTER_SPEC, "seed": 9})
        assert metrics.snapshot()["counters"]["backpressure_rejections"] == 1

    def test_trace_context_is_stored_but_never_affects_dedup(self, tmp_path):
        queue = make_queue(tmp_path)
        trace = {"pid": 7, "span": "7.submit", "t_ns": time.time_ns()}
        record, created = queue.submit(dict(POINTER_SPEC), trace=trace)
        assert created and record.trace == trace
        again, created = queue.submit(
            dict(POINTER_SPEC), trace={"pid": 8, "span": "8.submit",
                                       "t_ns": time.time_ns()})
        assert not created and again.job_id == record.job_id
        # Reload from disk: the context survived the spool round trip.
        assert queue.get(record.job_id).trace == trace


# ----------------------------------------------------------------------
# Event/span file hardening.

class TestSpoolFiles:
    def test_read_events_tolerates_truncated_final_line(self, tmp_path):
        queue = make_queue(tmp_path)
        record, _ = queue.submit(dict(POINTER_SPEC))
        good = queue.read_events(record.job_id)
        assert [e["kind"] for e in good] == ["submitted"]
        # Simulate a crash mid-append: a torn final line whose tail even
        # splits a multi-byte UTF-8 sequence.
        with open(queue.events_path(record.job_id), "ab") as fh:
            fh.write(b'{"kind": "state", "state": "don')
            fh.write(b'e", "t": 1.0, "x": "\xe2\x82')  # half of "€"
        assert queue.read_events(record.job_id) == good

    def test_append_and_read_spans_round_trip(self, tmp_path):
        queue = make_queue(tmp_path)
        record, _ = queue.submit(dict(POINTER_SPEC))
        tracer = spans.SpanTracer()
        with tracer.span("job x", cat="job"):
            pass
        assert queue.append_spans(record.job_id, tracer.records) == 1
        # Torn tail and junk entries are skipped, not fatal.
        with open(queue.spans_path(record.job_id), "ab") as fh:
            fh.write(b'[1, 2]\n{"name": "no-t0"}\n{"name": "torn\xe2')
        got = queue.read_spans(record.job_id)
        assert len(got) == 1 and got[0]["name"] == "job x"
        assert got[0]["pid"] == os.getpid()


# ----------------------------------------------------------------------
# Worker status files and fleet aggregation.

class TestWorkerStatus:
    def test_publish_and_read_with_liveness_window(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=5.0)
        metrics.inc("jobs_completed", 2)
        publish_worker_status(queue, "w0", "idle", jobs_run=2)
        statuses = read_worker_statuses(queue)
        assert len(statuses) == 1
        status = statuses[0]
        assert status["worker"] == "w0" and status["state"] == "idle"
        assert status["alive"] is True and status["age"] < 5.0
        assert status["metrics"]["counters"]["jobs_completed"] == 2
        # An old status falls out of the liveness window.
        stale = json.loads(queue.status_path("w0").read_text())
        stale["time"] = time.time() - 120.0
        queue.status_path("w0").write_text(json.dumps(stale))
        assert read_worker_statuses(queue)[0]["alive"] is False

    def test_unparsable_status_files_are_skipped(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.workers_dir().mkdir(parents=True, exist_ok=True)
        (queue.workers_dir() / "torn.json").write_bytes(b'{"worker": "w')
        (queue.workers_dir() / "list.json").write_text("[1]")
        publish_worker_status(queue, "ok", "idle")
        assert [s["worker"] for s in read_worker_statuses(queue)] == ["ok"]

    def test_failed_publish_leaves_no_temp_file(self, tmp_path,
                                                monkeypatch):
        """A failed rename is swallowed (status is best-effort) and must
        not strand a ``*.json.tmp`` that ``hidisc cache stats`` would
        count as a service file forever."""
        queue = make_queue(tmp_path)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        publish_worker_status(queue, "w0", "idle")
        assert list(queue.workers_dir().iterdir()) == []

    def test_fleet_metrics_merges_and_overlays_gauges(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit(dict(POINTER_SPEC))
        queue.submit({**POINTER_SPEC, "seed": 5})
        queue.claim("w0")
        metrics.inc("jobs_completed", 4)
        publish_worker_status(queue, "w0", "running", jobs_run=4)

        base = MetricsRegistry()
        base.inc("http_requests", 7, method="GET")
        snap = fleet_metrics(queue, base_snapshot=base.snapshot(),
                             extra_gauges={"service_draining": 1.0})
        assert snap["counters"]["jobs_completed"] == 4
        assert snap["counters"]["http_requests{method=GET}"] == 7
        gauges = snap["gauges"]
        assert gauges["jobs_depth{state=pending}"] == 1
        assert gauges["jobs_depth{state=leased}"] == 1
        assert gauges["oldest_pending_age_seconds"] >= 0.0
        assert gauges["max_lease_age_seconds"] >= 0.0
        assert gauges["workers_known"] == 1
        assert gauges["workers_live"] == 1
        assert gauges["service_draining"] == 1.0


# ----------------------------------------------------------------------
# End-to-end: worker run -> spans, ledger, stitched trace.

class TestJobTrace:
    def test_resolve_job_id_prefixes(self, tmp_path):
        queue = make_queue(tmp_path)
        a, _ = queue.submit(dict(POINTER_SPEC))
        b, _ = queue.submit({**POINTER_SPEC, "seed": 5})
        assert resolve_job_id(queue, a.job_id) == a.job_id
        unique = a.job_id[:-1] if a.job_id[:-1] != b.job_id[:-1] \
            else a.job_id
        assert resolve_job_id(queue, unique) == a.job_id
        with pytest.raises(ServiceError, match="unknown job"):
            resolve_job_id(queue, "zzz-not-a-job")
        with pytest.raises(ServiceError, match="ambiguous"):
            resolve_job_id(queue, "")

    def test_stitch_requires_some_history(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(ServiceError, match="unknown job"):
            stitch_job_trace(queue, "nope")

    def test_run_one_leaves_spans_ledger_and_a_valid_trace(self, tmp_path):
        queue = make_queue(tmp_path)
        cache = RunCache(tmp_path / "cache")
        trace = {"pid": 4242, "span": "1092.submit",
                 "t_ns": time.time_ns()}
        record, _ = queue.submit(dict(POINTER_SPEC), trace=trace)
        worker = Worker(queue, "w0", cache=cache,
                        stream=open(os.devnull, "w"))
        assert worker.run_one(queue.claim("w0")) == "completed"

        # 1. The worker persisted its span file beside the job.
        persisted = queue.read_spans(record.job_id)
        names = {s["name"] for s in persisted}
        assert f"job {record.job_id}" in names and "execute" in names
        cells = [s for s in persisted if s["name"] == "run_model"]
        assert [(s["args"]["benchmark"], s["args"]["mode"])
                for s in cells] == [("pointer", "superscalar")]
        job_span = next(s for s in persisted
                        if s["name"] == f"job {record.job_id}")
        assert job_span["args"]["parent_span"] == trace["span"]

        # 2. The run ledger recorded the job under its job id.
        entries = RunLedger(ledger_path(cache.root)).entries()
        mine = [e for e in entries if e["run_id"] == record.job_id]
        assert len(mine) == 1
        entry = mine[0]
        assert entry["command"] == "job"
        assert entry["outcome"] == "completed"
        assert entry["worker"] == "w0"
        assert entry["metrics"]["counters"]["job_cells_completed"] == 1

        # 3. The stitched trace spans client, queue and worker lanes.
        records, lane_names = stitch_job_trace(queue, record.job_id)
        assert lane_names[4242].startswith("hidisc client")
        assert lane_names[0] == "hidisc job queue"
        worker_pids = [p for p in lane_names if p not in (0, 4242)]
        assert len(worker_pids) == 1

        # Cross-process parent links: client -> queue root -> worker job.
        by_sid = {r.sid: r for r in records}
        root = next(r for r in records
                    if r.name == f"job {record.job_id}" and r.pid == 0)
        assert root.parent == trace["span"]
        worker_root = next(r for r in records
                           if r.name == f"job {record.job_id}"
                           and r.pid == worker_pids[0])
        assert worker_root.parent == root.sid
        assert by_sid[worker_root.sid] is worker_root

        # 4. write_perfetto emits one valid JSON trace whose every event
        #    parses and whose lanes are named, in client, queue, worker
        #    order.
        out = tmp_path / "trace.json"
        count = write_perfetto(spans.lane_events(records, lane_names), out)
        events, lanes = read_perfetto_trace(out)
        assert count == len([e for e in events if e["ph"] != "M"]) > 0
        assert list(lanes.values()) == list(lane_names.values())
        # Residency spans reconstructed from the event stream, and the
        # worker's per-cell spans.
        cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert "queue-state" in cats
        assert sum(e["name"] == "run_model" for e in events) == 1


# ----------------------------------------------------------------------
# HTTP endpoints: /metrics (text + json) and readiness /health.

@pytest.fixture
def http_service(tmp_path):
    server = ServiceServer(tmp_path / "svc", port=0, workers=0,
                           max_depth=4, lease_ttl=5.0,
                           stream=open(os.devnull, "w"))
    server.start()
    try:
        yield server, ServiceClient(f"http://127.0.0.1:{server.port}")
    finally:
        server.drain()


class TestHttpObservability:
    def test_metrics_json_and_text_agree(self, http_service):
        server, client = http_service
        client.submit(POINTER_SPEC)
        payload = client.metrics()
        assert payload["counts"]["pending"] == 1
        counters = payload["metrics"]["counters"]
        assert counters["jobs_submitted"] == 1
        gauges = payload["metrics"]["gauges"]
        assert gauges["jobs_depth{state=pending}"] == 1
        assert gauges["service_draining"] == 0.0

        text = client.metrics_text()
        assert "# TYPE jobs_submitted counter" in text
        assert 'jobs_depth{state="pending"} 1' in text
        # Request accounting covers the scrapes themselves.
        assert 'http_requests{method="GET"}' in text

    def test_metrics_content_type_is_prometheus(self, http_service):
        server, _ = http_service
        with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics") as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")

    def test_health_is_503_until_a_worker_is_alive(self, http_service):
        server, client = http_service
        # /healthz stays unconditional liveness...
        assert "version" in client.health()
        # ...while /health is readiness: no workers -> 503.
        with pytest.raises(ServiceError, match="HTTP 503"):
            client.fleet()
        publish_worker_status(server.queue, "w0", "idle")
        fleet = client.fleet()
        assert fleet["workers_alive"] == 1
        assert fleet["fleet"][0]["worker"] == "w0"
        assert fleet["fleet"][0]["alive"] is True


# ----------------------------------------------------------------------
# Live fleet rendering and `jobs top`.

class _StubClient:
    def __init__(self, payload, jobs):
        self.payload, self._jobs, self.calls = payload, jobs, 0

    def metrics(self):
        self.calls += 1
        return self.payload

    def jobs(self):
        return self._jobs


class TestFleetStatus:
    PAYLOAD = {
        "counts": {"pending": 2, "leased": 1, "done": 3,
                   "failed": 0, "quarantined": 1},
        "metrics": {
            "counters": {"jobs_completed": 3, "jobs_retried": 1},
            "gauges": {"workers_live": 1, "workers_known": 2,
                       "oldest_pending_age_seconds": 4.25},
        },
        "workers": [
            {"worker": "w0", "state": "running", "alive": True,
             "jobs_run": 3, "job": "abc-1"},
            {"worker": "w1", "state": "idle", "alive": False,
             "jobs_run": 0, "job": None},
        ],
    }
    JOBS = [{"job_id": "abc-1", "state": "leased", "attempts": 1,
             "cells_done": 2},
            {"job_id": "abc-2", "state": "done", "attempts": 1,
             "cells_done": 4}]

    def test_render_fleet_line(self):
        line = render_fleet_line(self.PAYLOAD)
        assert line.startswith("[top] pending=2 leased=1 done=3")
        assert "workers 1/2" in line
        assert "completed=3 retried=1" in line
        assert "oldest_wait=4.2s" in line

    def test_render_fleet_table(self):
        table = render_fleet_table(self.PAYLOAD, self.JOBS)
        assert "w0" in table and "running" in table and "abc-1" in table
        assert "yes" in table and "no" in table
        # Only active jobs are listed.
        assert "abc-2" not in table

    def test_run_top_non_tty_contract(self):
        stream = io.StringIO()
        client = _StubClient(self.PAYLOAD, self.JOBS)
        code = run_top(client, interval=0.0, iterations=3,
                       stream=stream, live=False)
        assert code == 0 and client.calls == 3
        text = stream.getvalue()
        assert "\r" not in text, "non-TTY output must stay plain lines"
        assert text.count("[top] pending=2") == 3
        assert "worker" in text and "w0" in text

    def test_run_top_tty_rewrites_in_place(self):
        stream = io.StringIO()
        client = _StubClient(self.PAYLOAD, self.JOBS)
        run_top(client, interval=0.0, iterations=2,
                stream=stream, live=True)
        text = stream.getvalue()
        assert text.count("\r") >= 2
        head = text.split("\n", 1)[0]
        assert head.count("[top] pending=2") == 2, \
            "refreshes rewrite one line, not append"


class TestStatusLine:
    def test_live_rewrites_and_pads_shrinking_text(self):
        stream = io.StringIO()
        line = StatusLine(stream, live=True)
        line.update("long status line")
        line.update("short")
        line.finish()
        line.finish()  # idempotent
        text = stream.getvalue()
        assert text.startswith("\rlong status line")
        assert "\rshort" in text
        # The shorter update padded over the longer one.
        assert "\rshort" + " " * (len("long status line") - len("short")) \
            in text
        assert text.endswith("\r")

    def test_non_tty_is_plain_lines(self):
        stream = io.StringIO()
        line = StatusLine(stream, live=False)
        line.update("a")
        line.update("b")
        line.finish()
        assert stream.getvalue() == "a\nb\n"


# ----------------------------------------------------------------------
# Cache stats account the service spool.

class TestCacheServiceStats:
    def test_stats_count_spool_bytes(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        stats = cache.stats()
        assert stats["service_files"] == 0 and stats["service_bytes"] == 0
        queue = JobQueue(cache.root / "service")
        queue.ensure_layout()
        queue.submit(dict(POINTER_SPEC))
        stats = cache.stats()
        assert stats["service_files"] >= 2  # record + events at least
        assert stats["service_bytes"] > 0
        files = cache.service_files()
        assert all(f.is_file() for f in files)
        assert len(files) == stats["service_files"]
