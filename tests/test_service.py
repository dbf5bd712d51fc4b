"""Durable simulation service (repro.service): crash-safe queue, leased
workers, graceful degradation.

Three layers of coverage:

* **Queue unit tests** — spool-state transitions, dedup, admission
  control, retry/backoff/quarantine accounting, lease expiry, the
  stale-leased-copy recovery rule, cancellation, claim atomicity.
* **Executor tests** — payload parity with a direct ``run_suite``,
  drain/resume round trips, cancellation mid-run — all in-process and
  fully deterministic (no signals, no sleeps beyond lease math).
* **End-to-end subprocess tests** — the acceptance criteria: a SIGKILL'd
  worker's job is requeued by lease expiry and completes with a payload
  identical (modulo wall clock) to an undisturbed run; SIGTERM drains the
  daemon with exit 0, nothing stuck in ``leased/``, and a restarted
  daemon resumes from checkpoints without recomputing finished cells.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.config import MachineConfig
from repro.errors import (
    BackpressureError,
    ConfigError,
    InterruptedRun,
    JobCancelled,
    ServiceError,
)
from repro.experiments import MODEL_ORDER, RunCache, interrupt, run_suite
from repro.experiments.ledger import RunLedger, ledger_path
from repro.experiments.parallel import resolve_jobs
from repro.service import (
    JobQueue,
    ServiceClient,
    ServiceServer,
    Worker,
    execute_job,
    job_dedup_key,
    normalize_spec,
)
from repro.service.executor import LeaseLost
from repro.telemetry import diff_payloads, spans
from repro.workloads import get_workload

from .conftest import read_perfetto_trace

SRC = str(Path(repro.__file__).resolve().parents[1])

POINTER_SPEC = {"kind": "suite", "benchmarks": ["pointer"],
                "modes": ["superscalar", "hidisc"], "quick": True}
POINTER_ALL_MODES_SPEC = {"kind": "suite", "benchmarks": ["pointer"],
                          "quick": True}


def make_queue(tmp_path, **kwargs):
    kwargs.setdefault("retry_backoff", 0.0)
    queue = JobQueue(tmp_path / "svc", **kwargs)
    queue.ensure_layout()
    return queue


def wait_for(predicate, timeout: float, what: str, poll: float = 0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError(f"timed out after {timeout:.0f}s waiting for {what}")


# ----------------------------------------------------------------------
# Specs and dedup keys.

class TestSpecs:
    def test_normalize_canonicalizes_modes_and_defaults(self):
        spec = normalize_spec({"modes": ["hidisc", "superscalar", "hidisc"],
                               "benchmarks": ["pointer"]})
        assert spec["modes"] == ["superscalar", "hidisc"]
        assert spec["quick"] is True and spec["seed"] == 2003
        assert normalize_spec({})["modes"] == list(MODEL_ORDER)

    def test_unknown_fields_and_kinds_rejected(self):
        with pytest.raises(ConfigError, match="unknown job spec field"):
            normalize_spec({"bogus": 1})
        with pytest.raises(ConfigError, match="unknown job kind"):
            normalize_spec({"kind": "render"})
        with pytest.raises(ConfigError, match="unknown model"):
            normalize_spec({"modes": ["warpdrive"]})
        with pytest.raises(ConfigError, match="cell_delay"):
            normalize_spec({"cell_delay": -1})

    def test_modes_without_the_baseline_rejected(self):
        """Every payload speedup is over the superscalar cell, so a spec
        without it could only fail at the payload, on every attempt."""
        with pytest.raises(ConfigError, match="'superscalar' baseline"):
            normalize_spec({"modes": ["hidisc"]})
        with pytest.raises(ConfigError, match="'superscalar' baseline"):
            normalize_spec({"modes": ["cp_ap", "cp_cmp", "hidisc"]})

    def test_unknown_benchmark_is_not_gated_at_submission(self):
        # Deliberate: unknown names fail at execution time, which is the
        # poison-job path to quarantine.
        spec = normalize_spec({"benchmarks": ["nosuchbench"]})
        assert spec["benchmarks"] == ["nosuchbench"]

    def test_dedup_key_is_order_insensitive_but_content_sensitive(self):
        config = MachineConfig()
        a = job_dedup_key(normalize_spec(
            {"benchmarks": ["pointer"], "modes": ["hidisc", "superscalar"]}),
            config)
        b = job_dedup_key(normalize_spec(
            {"modes": ["superscalar", "hidisc"], "benchmarks": ["pointer"]}),
            config)
        assert a == b
        c = job_dedup_key(normalize_spec(
            {"benchmarks": ["pointer"], "modes": ["hidisc", "superscalar"],
             "seed": 7}), config)
        assert c != a
        assert job_dedup_key(normalize_spec({"benchmarks": ["pointer"]}),
                             config.with_latency(4, 40)) != \
            job_dedup_key(normalize_spec({"benchmarks": ["pointer"]}), config)


# ----------------------------------------------------------------------
# The spool-state machine.

class TestJobQueue:
    def test_submit_claim_complete_lifecycle(self, tmp_path):
        queue = make_queue(tmp_path)
        record, created = queue.submit(POINTER_SPEC)
        assert created and record.state == "pending"
        assert queue.counts()["pending"] == 1

        claimed = queue.claim("w0")
        assert claimed.job_id == record.job_id
        assert claimed.lease["worker"] == "w0"
        assert queue.counts() == {"pending": 0, "leased": 1, "done": 0,
                                  "failed": 0, "quarantined": 0}

        assert queue.complete(claimed, tmp_path / "r.json", worker="w0")
        final = queue.get(record.job_id)
        assert final.state == "done" and final.outcome == "completed"
        assert final.attempts == 0
        kinds = [e["kind"] for e in queue.read_events(record.job_id)]
        assert kinds == ["submitted", "leased", "state"]

    def test_duplicate_submission_shares_one_job(self, tmp_path):
        queue = make_queue(tmp_path)
        first, created = queue.submit(POINTER_SPEC)
        again, created2 = queue.submit(
            {"kind": "suite", "modes": ["hidisc", "superscalar"],
             "benchmarks": ["pointer"], "quick": True})
        assert created and not created2
        assert again.job_id == first.job_id and again.submitted == 2
        assert queue.counts()["pending"] == 1
        different, created3 = queue.submit({**POINTER_SPEC, "seed": 7})
        assert created3 and different.job_id != first.job_id

    def test_backpressure_rejects_past_max_depth(self, tmp_path):
        queue = make_queue(tmp_path, max_depth=1)
        queue.submit(POINTER_SPEC)
        with pytest.raises(BackpressureError, match="queue is full"):
            queue.submit({**POINTER_SPEC, "seed": 99})
        # Dedup hits are not admissions: resubmitting the queued job works.
        _, created = queue.submit(POINTER_SPEC)
        assert not created

    def test_fail_retries_with_backoff_then_quarantines(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=2, retry_backoff=30.0)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        assert queue.fail(claimed, "boom", traceback_text="tb1",
                          worker="w0") == "pending"
        requeued = queue.get(record.job_id)
        assert requeued.attempts == 1
        assert requeued.not_before > time.time(), \
            "a failed job must back off before its retry"
        assert queue.claim("w0") is None, \
            "backoff must hide the job from claimants"

        requeued.not_before = 0.0
        queue._publish(requeued, "pending")
        claimed = queue.claim("w1")
        assert queue.fail(claimed, "boom again", traceback_text="tb2",
                          worker="w1") == "quarantined"
        final = queue.get(record.job_id)
        assert final.state == "quarantined" and final.attempts == 2
        assert final.traceback == "tb2"
        assert queue.claim("w2") is None, "quarantine removes the job"

    def test_lease_expiry_requeues_and_charges_an_attempt(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=10.0)
        record, _ = queue.submit(POINTER_SPEC)
        queue.claim("w0")
        assert queue.expire_leases() == [], "a live lease must survive"
        acted = queue.expire_leases(now=time.time() + 11.0)
        assert acted == [record.job_id]
        requeued = queue.get(record.job_id)
        assert requeued.state == "pending" and requeued.attempts == 1
        assert requeued.lease is None
        assert any(e["kind"] == "lease_expired"
                   for e in queue.read_events(record.job_id))

    def test_crash_loop_quarantines_via_lease_expiry(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=10.0, max_attempts=1)
        record, _ = queue.submit(POINTER_SPEC)
        queue.claim("w0")
        queue.expire_leases(now=time.time() + 11.0)
        final = queue.get(record.job_id)
        assert final.state == "quarantined"
        assert "lease expired" in final.error

    def test_claim_without_lease_rewrite_expires_immediately(self, tmp_path):
        """A worker that died between the claim rename and the lease
        rewrite leaves a leased record with no lease — it must expire on
        the next reaper pass, not linger forever."""
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_SPEC)
        os.rename(queue.record_path(record.job_id, "pending"),
                  queue.record_path(record.job_id, "leased"))
        assert queue.expire_leases() == [record.job_id]
        assert queue.get(record.job_id).state == "pending"

    def test_renew_extends_and_detects_lost_leases(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=10.0)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        before = claimed.lease["deadline"]
        time.sleep(0.02)
        renewed = queue.renew(record.job_id, "w0")
        assert renewed.lease["deadline"] > before
        assert renewed.lease["renewals"] == 1
        assert queue.renew(record.job_id, "intruder") is None
        queue.expire_leases(now=time.time() + 11.0)
        assert queue.renew(record.job_id, "w0") is None, \
            "an expired (requeued) lease must not renew"

    def test_release_is_attempt_neutral(self, tmp_path):
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        queue.release(claimed, worker="w0")
        requeued = queue.get(record.job_id)
        assert requeued.state == "pending" and requeued.attempts == 0
        assert queue.counts()["leased"] == 0
        assert queue.claim("w1") is not None, \
            "a drained job must be immediately reclaimable"

    def test_complete_with_lost_lease_drops_the_result(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=10.0)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        queue.expire_leases(now=time.time() + 11.0)  # w0 loses the job
        relaimed = queue.claim("w1")
        assert not queue.complete(claimed, tmp_path / "stale.json",
                                  worker="w0")
        assert queue.get(record.job_id).state == "leased", \
            "a stale completion must not clobber the new owner"
        assert queue.fail(claimed, "stale", worker="w0") == "lost"
        assert queue.complete(relaimed, tmp_path / "r.json", worker="w1")

    def test_stale_leased_copy_recovery_rule(self, tmp_path):
        """Crash between write-destination and unlink-leased leaves the
        job in both directories; recovery drops the leased copy."""
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        queue._publish(claimed, "done")  # crash before unlinking leased/
        queue._publish(claimed, "leased")
        assert queue.record_path(record.job_id, "leased").exists()
        assert queue.record_path(record.job_id, "done").exists()
        queue.expire_leases()
        assert not queue.record_path(record.job_id, "leased").exists()
        assert queue.get(record.job_id).state == "done"

    def test_cancel_pending_finalizes_immediately(self, tmp_path):
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_SPEC)
        assert queue.request_cancel(record.job_id) == "failed"
        final = queue.get(record.job_id)
        assert final.state == "failed" and final.outcome == "cancelled"
        assert queue.claim("w0") is None

    def test_cancel_leased_leaves_marker_and_fail_honours_it(self, tmp_path):
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        assert queue.request_cancel(record.job_id) == "leased"
        assert queue.cancel_marker(record.job_id).exists()
        # The worker's failure path observes the marker: no retry.
        assert queue.fail(claimed, "err", worker="w0") == "failed"
        assert queue.get(record.job_id).outcome == "cancelled"

    def test_cancel_unknown_and_terminal_jobs(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(ServiceError, match="unknown job"):
            queue.request_cancel("nope")
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        queue.complete(claimed, tmp_path / "r.json", worker="w0")
        assert queue.request_cancel(record.job_id) == "done", \
            "cancelling a finished job is a no-op reporting its state"

    def test_claim_is_atomic_under_contention(self, tmp_path):
        queue = make_queue(tmp_path, max_depth=64)
        for seed in range(6):
            queue.submit({**POINTER_SPEC, "seed": seed})
        claimed: list[str] = []
        lock = threading.Lock()

        def grab(worker):
            while True:
                record = queue.claim(worker)
                if record is None:
                    return
                with lock:
                    claimed.append(record.job_id)

        threads = [threading.Thread(target=grab, args=(f"w{i}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == 6
        assert len(set(claimed)) == 6, "every job claimed exactly once"

    def test_torn_record_files_are_skipped(self, tmp_path):
        queue = make_queue(tmp_path)
        (queue.state_dir("pending") / "torn.json").write_text("{not json")
        assert queue.claim("w0") is None
        assert queue.list_jobs() == []

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            JobQueue(tmp_path, max_depth=0)
        with pytest.raises(ConfigError):
            JobQueue(tmp_path, lease_ttl=0)
        with pytest.raises(ConfigError):
            JobQueue(tmp_path, max_attempts=0)


# ----------------------------------------------------------------------
# The executor: parity, drain/resume, cancellation — all in-process.

class TestExecutor:
    def test_payload_parity_with_direct_run_suite(self, tmp_path):
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        path = execute_job(queue, claimed, "w0",
                           cache=RunCache(tmp_path / "cache-a"))
        assert queue.complete(claimed, path, worker="w0")
        payload = queue.load_result(queue.get(record.job_id))

        reference = run_suite(
            MachineConfig(), quick=True, seed=2003,
            modes=("superscalar", "hidisc"),
            workloads=[get_workload("pointer", quick=True, seed=2003)],
            cache=RunCache(tmp_path / "cache-b"))
        report = diff_payloads(payload, reference.to_payload())
        assert report["identical"], report

    def test_drain_resume_round_trip(self, tmp_path):
        """A SIGTERM mid-job (the GracefulInterrupt flag) -> release ->
        re-claim resumes from the checkpoint and the final payload matches
        an undisturbed run.  Serial (``jobs=1``): exactly one cell lands
        before the drain."""
        cache = RunCache(tmp_path / "cache")
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")

        cells = []
        real_append = queue.append_event

        def tracking_append(job_id, kind, **fields):
            if kind == "cell":
                cells.append((fields["benchmark"], fields["mode"],
                              fields["resumed"]))
                if len(cells) == 1:
                    os.kill(os.getpid(), signal.SIGTERM)
            real_append(job_id, kind, **fields)

        queue.append_event = tracking_append
        with interrupt.GracefulInterrupt(stream=io.StringIO()) as gi:
            assert interrupt.current() is gi, "SIGTERM needs the handler"
            with pytest.raises(InterruptedRun):
                execute_job(queue, claimed, "w0", cache=cache, jobs=1)
        queue.release(claimed, worker="w0")
        assert cells == [("pointer", "superscalar", False)]
        mid = queue.get(record.job_id)
        assert mid.state == "pending" and mid.attempts == 0
        assert mid.cells_done == 1

        reclaimed = queue.claim("w1")
        path = execute_job(queue, reclaimed, "w1", cache=cache, jobs=1)
        assert queue.complete(reclaimed, path, worker="w1")
        assert cells[1] == ("pointer", "superscalar", True), \
            "the finished cell must resume, not recompute"
        assert cells[2] == ("pointer", "hidisc", False)

        payload = queue.load_result(queue.get(record.job_id))
        reference = run_suite(
            MachineConfig(), quick=True, seed=2003,
            modes=("superscalar", "hidisc"),
            workloads=[get_workload("pointer", quick=True, seed=2003)],
            cache=RunCache(tmp_path / "cache-ref"))
        assert diff_payloads(payload, reference.to_payload())["identical"]

    def test_pooled_drain_delivers_running_cells_and_resumes(self, tmp_path):
        """At ``jobs=2`` a SIGTERM at the first landing still delivers
        (checkpoints) the cells that were running; the release charges no
        attempt, and the re-claim resumes every delivered cell and
        computes only the rest."""
        cache = RunCache(tmp_path / "cache")
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_ALL_MODES_SPEC)
        claimed = queue.claim("w0")

        cells = []
        real_append = queue.append_event

        def tracking_append(job_id, kind, **fields):
            if kind == "cell":
                cells.append((fields["mode"], fields["resumed"]))
            real_append(job_id, kind, **fields)

        def drain_at_first_landing(job_id, kind, **fields):
            tracking_append(job_id, kind, **fields)
            if len(cells) == 1:
                os.kill(os.getpid(), signal.SIGTERM)

        queue.append_event = drain_at_first_landing
        with interrupt.GracefulInterrupt(stream=io.StringIO()):
            with pytest.raises(InterruptedRun):
                execute_job(queue, claimed, "w0", cache=cache, jobs=2)
        queue.release(claimed, worker="w0")
        delivered = {mode for mode, _ in cells}
        assert len(delivered) >= 2, \
            f"the cell running beside the first landing was lost: {cells}"
        mid = queue.get(record.job_id)
        assert mid.state == "pending" and mid.attempts == 0
        assert mid.cells_done == len(delivered)

        cells.clear()
        queue.append_event = tracking_append
        reclaimed = queue.claim("w1")
        path = execute_job(queue, reclaimed, "w1", cache=cache, jobs=2)
        assert queue.complete(reclaimed, path, worker="w1")
        assert {mode for mode, resumed in cells if resumed} == delivered
        assert {mode for mode, resumed in cells if not resumed} == \
            set(MODEL_ORDER) - delivered
        payload = queue.load_result(queue.get(record.job_id))
        assert diff_payloads(
            payload, reference_pointer_payload(tmp_path))["identical"]

    @pytest.mark.parametrize("raised", [JobCancelled, LeaseLost])
    def test_pooled_hook_errors_propagate_after_the_pool_joins(
            self, tmp_path, raised):
        """``JobCancelled`` and ``LeaseLost`` raised by the cell hook at
        ``jobs=2`` reach the caller, and no pool worker outlives it."""
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_ALL_MODES_SPEC)
        claimed = queue.claim("w0")
        lease_lost = threading.Event()
        if raised is JobCancelled:
            queue.request_cancel(record.job_id)
        else:
            lease_lost.set()
        with spans.tracing() as tracer:
            with pytest.raises(raised):
                execute_job(queue, claimed, "w0",
                            cache=RunCache(tmp_path / "cache"),
                            lease_lost=lease_lost, jobs=2)
        workers = {r.pid for r in tracer.records} - {os.getpid()}
        assert workers, "the cells must have run on a pool"
        for pid in workers:
            assert not pid_alive(pid), f"pool worker {pid} outlived the job"

    def test_cancellation_observed_at_cell_boundary(self, tmp_path):
        queue = make_queue(tmp_path)
        record, _ = queue.submit(POINTER_SPEC)
        claimed = queue.claim("w0")
        queue.request_cancel(record.job_id)
        with pytest.raises(JobCancelled):
            execute_job(queue, claimed, "w0",
                        cache=RunCache(tmp_path / "cache"))
        queue.cancel_job(claimed, worker="w0")
        final = queue.get(record.job_id)
        assert final.state == "failed" and final.outcome == "cancelled"

    def test_worker_run_one_quarantines_poison_jobs(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=2)
        record, _ = queue.submit({"benchmarks": ["nosuchbench"],
                                  "quick": True,
                                  "modes": ["superscalar"]})
        worker = Worker(queue, "w0", cache=RunCache(tmp_path / "cache"),
                        stream=open(os.devnull, "w"))
        assert worker.run_one(queue.claim("w0")) == "pending"
        assert worker.run_one(queue.claim("w0")) == "quarantined"
        final = queue.get(record.job_id)
        assert final.state == "quarantined"
        assert "nosuchbench" in final.error
        assert "Traceback" in final.traceback


class TestWorkerShare:
    @pytest.mark.parametrize("workers, share", [(1, 4), (2, 2), (8, 1)])
    def test_supervisor_divides_the_usable_cpus(self, tmp_path,
                                                monkeypatch, workers, share):
        """Each worker fans its jobs out over its share of the usable
        CPUs, handed over on the worker's argv (``hidisc serve`` has no
        flag for it)."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        server = ServiceServer(tmp_path / "svc", port=0, workers=workers,
                               stream=io.StringIO())
        argv = server._worker_argv("w0")
        assert argv[argv.index("--jobs") + 1] == str(share)

    def test_worker_argv_passes_no_retry_budget(self, tmp_path):
        """Each record carries the retry budget the server's queue stamped
        at submit; a worker never submits, so none is passed to it."""
        server = ServiceServer(tmp_path / "svc", port=0, workers=1,
                               max_attempts=5, stream=io.StringIO())
        assert "--max-attempts" not in server._worker_argv("w0")

    def test_worker_argv_runs_the_worker_module_once(self, tmp_path):
        """The supervisor's worker command executes ``service/worker.py``
        once: under ``-m``, runpy would run it again as ``__main__``
        (importing ``repro.service`` imports it) and warn."""
        server = ServiceServer(tmp_path / "svc", port=0, workers=1,
                               stream=io.StringIO())
        argv = server._worker_argv("w0")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [argv[0], "-W", "error::RuntimeWarning", *argv[1:], "--help"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "--lease-ttl" in done.stdout

    def test_worker_resolves_its_share_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        queue = make_queue(tmp_path)
        cache = RunCache(tmp_path / "cache")
        assert Worker(queue, "w0", cache=cache).jobs == 3
        assert Worker(queue, "w1", cache=cache, jobs=2).jobs == 2


# ----------------------------------------------------------------------
# The HTTP layer (in-process server; no worker subprocesses).

@pytest.fixture
def http_service(tmp_path):
    server = ServiceServer(tmp_path / "svc", port=0, workers=0,
                           max_depth=2, lease_ttl=5.0,
                           stream=open(os.devnull, "w"))
    server.start()
    try:
        yield server, ServiceClient(f"http://127.0.0.1:{server.port}")
    finally:
        server.drain()


class TestHttpApi:
    def test_submit_get_list_cancel(self, http_service):
        server, client = http_service
        response = client.submit(POINTER_SPEC)
        assert response["created"] is True
        job_id = response["job_id"]

        record = client.job(job_id)
        assert record["state"] == "pending"
        assert record["spec"]["benchmarks"] == ["pointer"]
        assert [j["job_id"] for j in client.jobs()] == [job_id]

        again = client.submit(POINTER_SPEC)
        assert again["created"] is False and again["submitted"] == 2

        cancelled = client.cancel(job_id)
        assert cancelled["state"] == "failed"
        assert client.job(job_id)["outcome"] == "cancelled"

    def test_bad_spec_is_400_and_unknown_job_404(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit({"kind": "render"})
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.job("nope")
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.cancel("nope")

    def test_spec_without_baseline_is_400(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError, match="HTTP 400.*baseline"):
            client.submit({**POINTER_SPEC, "modes": ["hidisc"]})
        assert client.jobs() == [], "a rejected spec must not be queued"

    def test_admission_control_is_429(self, http_service):
        _, client = http_service
        client.submit({**POINTER_SPEC, "seed": 1})
        client.submit({**POINTER_SPEC, "seed": 2})
        with pytest.raises(BackpressureError, match="queue is full"):
            client.submit({**POINTER_SPEC, "seed": 3})

    def test_result_before_completion_is_409(self, http_service):
        _, client = http_service
        job_id = client.submit(POINTER_SPEC)["job_id"]
        with pytest.raises(ServiceError, match="HTTP 409"):
            client.result(job_id)

    def test_events_endpoint_streams_jsonl(self, http_service):
        server, client = http_service
        job_id = client.submit(POINTER_SPEC)["job_id"]
        server.queue.request_cancel(job_id)
        events = list(client.events(job_id, follow=True))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "submitted"
        assert "state" in kinds, "terminal transition must be streamed"

    def test_health_reports_counts(self, http_service):
        _, client = http_service
        health = client.health()
        assert health["counts"]["pending"] == 0
        assert health["draining"] is False
        assert "version" in health

    def test_unreachable_service_is_a_typed_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="is `hidisc serve` running"):
            client.health()


# ----------------------------------------------------------------------
# End-to-end: real daemon, real workers, real signals.

class ServeDaemon:
    """`hidisc serve` as a subprocess, with its stderr tailed."""

    def __init__(self, *extra: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--port", "0", *extra],
            env=env, stderr=subprocess.PIPE, text=True)
        self.lines: list[str] = []
        self._tail = threading.Thread(target=self._drain_stderr,
                                      daemon=True)
        self._tail.start()

    def _drain_stderr(self):
        for line in self.proc.stderr:
            self.lines.append(line.rstrip("\n"))

    def client(self, timeout: float = 30.0) -> ServiceClient:
        def port():
            for line in list(self.lines):
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    return match.group(1)
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"serve died before listening:\n" + "\n".join(self.lines))
            return None
        return ServiceClient(f"http://127.0.0.1:{wait_for(port, timeout, 'serve to listen')}")

    def stop(self, timeout: float = 60.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise AssertionError(
                "serve did not drain on SIGTERM:\n" + "\n".join(self.lines))

    def kill(self):
        """Cleanup after any test outcome.  A SIGKILLed daemon would orphan
        its workers, so this is :meth:`stop` (SIGTERM, then SIGKILL after
        a bounded wait) without its drain assertion."""
        with contextlib.suppress(AssertionError):
            self.stop(timeout=30.0)


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def reference_pointer_payload(tmp_path, modes=("superscalar", "cp_ap",
                                               "cp_cmp", "hidisc")):
    """A serial, in-process run: what every job payload must equal,
    whatever pool the job's worker ran it on."""
    suite = run_suite(
        MachineConfig(), quick=True, seed=2003, modes=tuple(modes),
        workloads=[get_workload("pointer", quick=True, seed=2003)],
        cache=RunCache(tmp_path / "reference-cache"), jobs=1)
    return suite.to_payload()


@pytest.mark.slow
class TestEndToEnd:
    def test_kill_leaves_no_orphaned_worker(self):
        """The cleanup path every end-to-end test ends in must take the
        daemon's worker down with it."""
        daemon = ServeDaemon("--workers", "1")
        worker_pid = None
        try:
            daemon.client()

            def worker_up():
                for line in list(daemon.lines):
                    match = re.search(r"worker up \(pid (\d+)", line)
                    if match:
                        return int(match.group(1))
                return None

            worker_pid = wait_for(worker_up, 30, "the worker to start")
            daemon.kill()
            wait_for(lambda: not pid_alive(worker_pid), 10,
                     f"worker {worker_pid} to exit")
        finally:
            daemon.kill()
            if worker_pid is not None and pid_alive(worker_pid):
                os.kill(worker_pid, signal.SIGKILL)

    def test_sigkilled_worker_job_requeues_and_completes(self, tmp_path):
        """The headline guarantee: SIGKILL a worker mid-job; the lease
        expires, the job requeues (one attempt charged), a fresh worker
        resumes it from checkpoints, and the payload is identical to an
        undisturbed run modulo wall-clock."""
        daemon = ServeDaemon("--workers", "1", "--lease-ttl", "1.5",
                             "--retry-backoff", "0.1")
        try:
            client = daemon.client()
            job_id = client.submit({"benchmarks": ["pointer"],
                                    "quick": True,
                                    "cell_delay": 0.75})["job_id"]

            def first_cell_done():
                record = client.job(job_id)
                if record["state"] == "leased" and \
                        record["cells_done"] >= 1 and record.get("lease"):
                    return record
                return None

            leased = wait_for(first_cell_done, 60,
                              "the first checkpointed cell")
            os.kill(leased["lease"]["pid"], signal.SIGKILL)

            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done", final
            assert final["outcome"] == "completed"
            assert final["attempts"] == 1, \
                "the SIGKILL must charge exactly one lease-expiry attempt"
            kinds = [e["kind"] for e in client.events(job_id)]
            assert "lease_expired" in kinds
            resumed = [e for e in client.events(job_id)
                       if e["kind"] == "cell" and e["resumed"]]
            assert resumed, "the re-leased run must resume finished cells"

            payload = client.result(job_id)
            report = diff_payloads(payload,
                                   reference_pointer_payload(tmp_path))
            assert report["identical"], report
            assert daemon.stop() == 0
        finally:
            daemon.kill()

    def test_sigterm_drains_cleanly_and_restart_resumes(self, tmp_path):
        """SIGTERM mid-job: exit 0, nothing in leased/, the job back in
        pending attempt-neutrally; a restarted daemon finishes it from
        checkpoints without recomputing finished cells."""
        spool = Path(os.environ["HIDISC_CACHE_DIR"]) / "service"
        daemon = ServeDaemon("--workers", "1", "--lease-ttl", "10")
        try:
            client = daemon.client()
            job_id = client.submit({"benchmarks": ["pointer"],
                                    "quick": True,
                                    "cell_delay": 0.75})["job_id"]
            wait_for(lambda: client.job(job_id)["cells_done"] >= 1, 60,
                     "the first checkpointed cell")
            assert daemon.stop() == 0, \
                "graceful drain must exit 0:\n" + "\n".join(daemon.lines)
        finally:
            daemon.kill()

        assert list((spool / "jobs" / "leased").glob("*.json")) == [], \
            "a clean drain leaves nothing leased"
        parked = json.loads(
            (spool / "jobs" / "pending" / f"{job_id}.json").read_text())
        assert parked["attempts"] == 0, "draining is attempt-neutral"
        cells_at_drain = parked["cells_done"]
        assert cells_at_drain >= 1

        second = ServeDaemon("--workers", "1", "--lease-ttl", "10")
        try:
            client = second.client()
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done" and final["attempts"] == 0
            resumed = [e for e in client.events(job_id)
                       if e["kind"] == "cell" and e["resumed"]]
            assert len(resumed) >= cells_at_drain, \
                "finished cells must replay from checkpoints, not recompute"
            payload = client.result(job_id)
            assert diff_payloads(
                payload, reference_pointer_payload(tmp_path))["identical"]
            assert second.stop() == 0
        finally:
            second.kill()

    def test_pooled_job_records_its_share_and_matches_serial(self,
                                                             tmp_path):
        """A ``--workers 1`` daemon runs each job's grid on every usable
        CPU: the job's ledger record carries that count, and its payload
        equals a serial in-process run."""
        cache_root = Path(os.environ["HIDISC_CACHE_DIR"])
        daemon = ServeDaemon("--workers", "1", "--lease-ttl", "10")
        try:
            client = daemon.client()
            job_id = client.submit({"benchmarks": ["pointer"],
                                    "quick": True})["job_id"]
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done", final
            payload = client.result(job_id)

            def job_record():
                return next((r for r in
                             RunLedger(ledger_path(cache_root)).entries()
                             if r.get("job_id") == job_id), None)

            record = wait_for(job_record, 30, "the job's ledger record")
            assert record["jobs"] == resolve_jobs(0)
            assert daemon.stop() == 0
        finally:
            daemon.kill()
        assert diff_payloads(
            payload, reference_pointer_payload(tmp_path))["identical"]

    def test_cli_clients_round_trip(self, tmp_path, capsys):
        """hidisc submit --wait / jobs / cancel against a live daemon, the
        /metrics scrape before and after the job, a duplicate submission,
        'jobs top', the stitched job trace and the job's ledger record."""
        from repro.experiments.cli import main

        def scraped(name: str, text: str) -> bool:
            return re.search(rf"^{name}\b", text, re.M) is not None

        def scrape_showing(name: str, what: str) -> str:
            def scrape():
                text = client.metrics_text()
                return text if scraped(name, text) else None
            return wait_for(scrape, 30, what)

        def ready():
            try:
                return client.fleet()
            except ServiceError:
                return None

        spool = Path(os.environ["HIDISC_CACHE_DIR"]) / "service"
        daemon = ServeDaemon("--workers", "1", "--lease-ttl", "10")
        try:
            client = daemon.client()
            url = client.url
            wait_for(ready, 30, "a live worker (/health)")
            # Worker status files, which the scrape folds in, trail the
            # process: the first lands once the worker is up, and the one
            # counting a job (after its ledger record and spans) lands
            # just after the job turns done.
            before = scrape_showing("workers_live 1", "the worker's status")
            assert not scraped("jobs_completed", before)

            submit = ["submit", "--url", url, "--benchmarks", "pointer",
                      "--modes", "superscalar", "--quick", "--no-progress"]
            code = main([*submit, "--wait"])
            out = capsys.readouterr().out
            assert code == 0
            assert "submitted" in out and "done" in out
            job_id = re.search(r"job (\S+): submitted", out).group(1)

            after = scrape_showing("jobs_completed 1", "the job's counters")
            for name in ("jobs_submitted 1", "job_latency_seconds_count 1",
                         "job_queue_wait_seconds_bucket"):
                assert scraped(name, after), name
            assert client.metrics()["counts"]["done"] == 1

            assert main(submit) == 0
            assert "joined an identical in-flight job" in \
                capsys.readouterr().out
            assert len(list((spool / "jobs" / "done").glob("*.json"))) == 1

            assert main(["jobs", "--url", url, "--no-progress"]) == 0
            listing = capsys.readouterr().out
            assert job_id in listing and "done/completed" in listing

            assert main(["jobs", job_id, "--url", url,
                         "--no-progress"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["state"] == "done"

            assert main(["jobs", "top", "--url", url, "--iterations", "2",
                         "--interval", "0.2", "--no-progress"]) == 0
            top = capsys.readouterr().err
            lines = [l for l in top.splitlines() if l.startswith("[top] ")]
            assert len(lines) == 2 and "\r" not in top
            assert all("workers 1/1" in line for line in lines)

            trace_path = tmp_path / "job.trace.json"
            assert main(["jobs", "trace", job_id, "--out", str(trace_path),
                         "--no-progress"]) == 0
            capsys.readouterr()
            _, lanes = read_perfetto_trace(trace_path)
            for lane in ("client", "queue", "worker"):
                assert any(lane in name for name in lanes.values()), lanes

            assert main(["runs", "list"]) == 0
            runs = capsys.readouterr().out
            assert job_id[:14] in runs and " job " in runs
            assert main(["runs", "report", job_id]) == 0
            assert "service job" in capsys.readouterr().out
            assert main(["cache", "stats"]) == 0
            assert "service spool:" in capsys.readouterr().out

            assert main(["cancel", job_id, "--url", url,
                         "--no-progress"]) == 0
            assert "state: done" in capsys.readouterr().out, \
                "cancelling a finished job reports its terminal state"
            assert daemon.stop() == 0
        finally:
            daemon.kill()
