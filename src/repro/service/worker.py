"""Leased worker process: claim, heartbeat, execute, transition.

One worker is one OS process (``python -m repro.service.worker`` — the
``hidisc serve`` supervisor spawns N of them).  The loop is::

    claim -> [lease-keeper thread renews every ttl/3] -> execute_job
          -> complete | fail | cancel | release | abandon

and every exceptional path maps to exactly one queue transition:

============================  =====================================
what happened                 transition
============================  =====================================
suite finished                ``complete`` (ownership-checked)
execution raised              ``fail`` -> retry w/ backoff or
                              quarantine past the budget
cancel marker observed        ``cancel_job`` -> failed/cancelled
SIGTERM/SIGINT (drain)        ``release`` -> pending, attempt-neutral
lease lost (reaper requeued)  *nothing* — the new owner has it
SIGKILL                       nothing runs; the reaper's lease
                              expiry requeues the job
============================  =====================================

Graceful drain rides :class:`repro.experiments.interrupt.GracefulInterrupt`:
the first SIGTERM sets the flag, ``run_suite``'s per-cell polls raise
:class:`~repro.errors.InterruptedRun` at the next cell boundary (every
finished cell already checkpointed), the worker releases the job and
exits 0.  A second signal aborts hard.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
import traceback

from ..config import MachineConfig
from ..errors import InterruptedRun, JobCancelled
from ..experiments.cache import RunCache
from ..experiments.interrupt import GracefulInterrupt
from ..experiments.ledger import RunLedger, build_record, ledger_path
from ..telemetry import metrics, spans
from ..telemetry.spans import SpanTracer
from .executor import LeaseLost, execute_job
from .observability import publish_worker_status
from .queue import POLL_SECONDS, JobQueue
from .records import JobRecord


class LeaseKeeper(threading.Thread):
    """Renews one job's lease every ``interval`` seconds until stopped.

    Sets :attr:`lost` (and stops renewing) the moment a renewal fails —
    the executor's per-cell hook checks it and abandons the run.
    *on_renew* (optional) fires after each successful renewal; the
    worker uses it to republish its status file mid-job so liveness
    holds through arbitrarily long cells.
    """

    def __init__(self, queue: JobQueue, job_id: str, worker: str,
                 interval: float, on_renew=None) -> None:
        super().__init__(name=f"lease-keeper-{job_id}", daemon=True)
        self.queue = queue
        self.job_id = job_id
        self.worker = worker
        self.interval = max(interval, 0.05)
        self.on_renew = on_renew
        self.lost = threading.Event()
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.interval):
            try:
                renewed = self.queue.renew(self.job_id, self.worker)
            except Exception:
                renewed = None
            if renewed is None:
                self.lost.set()
                return
            if self.on_renew is not None:
                try:
                    self.on_renew()
                except Exception:  # pragma: no cover - status is advisory
                    pass

    def stop(self) -> None:
        self._done.set()
        self.join(timeout=5.0)


class Worker:
    """The claim/execute loop for one worker process."""

    def __init__(self, queue: JobQueue, worker_id: str | None = None,
                 *, cache: RunCache | None = None, stream=None) -> None:
        self.queue = queue
        self.worker_id = worker_id or f"worker-{os.getpid():x}"
        self.cache = cache if cache is not None else RunCache()
        self.stream = stream if stream is not None else sys.stderr
        self.jobs_run = 0
        self._status_at = 0.0

    def _log(self, message: str) -> None:
        try:
            self.stream.write(f"[{self.worker_id}] {message}\n")
            self.stream.flush()
        except OSError:  # pragma: no cover - stream gone during teardown
            pass

    def publish_status(self, state: str, job_id: str | None = None,
                       min_interval: float = 0.0) -> None:
        """Publish this worker's status file (see
        :mod:`repro.service.observability`); *min_interval* rate-limits
        the idle-loop republish."""
        now = time.monotonic()
        if min_interval and now - self._status_at < min_interval:
            return
        self._status_at = now
        publish_worker_status(self.queue, self.worker_id, state,
                              job_id=job_id, jobs_run=self.jobs_run)

    # ------------------------------------------------------------------
    def _dispose(self, record: JobRecord, keeper: LeaseKeeper) -> str:
        """The claim-to-transition core of :meth:`run_one` (exactly one
        queue transition per exceptional path)."""
        try:
            result_path = execute_job(
                self.queue, record, self.worker_id, cache=self.cache,
                lease_lost=keeper.lost)
        except JobCancelled:
            self.queue.cancel_job(record, worker=self.worker_id)
            self._log(f"job {record.job_id}: cancelled")
            return "cancelled"
        except InterruptedRun as exc:
            self.queue.release(record, worker=self.worker_id)
            self._log(f"job {record.job_id}: released on "
                      f"{exc.signal_name} (drain)")
            return "released"
        except LeaseLost:
            self._log(f"job {record.job_id}: lease lost, abandoning")
            return "lost"
        except Exception as exc:
            landed = self.queue.fail(
                record, f"{type(exc).__name__}: {exc}",
                traceback_text=traceback.format_exc(),
                worker=self.worker_id)
            self._log(f"job {record.job_id}: failed "
                      f"(attempt {record.attempts}) -> {landed}: {exc}")
            return landed
        if self.queue.complete(record, result_path,
                               worker=self.worker_id):
            self._log(f"job {record.job_id}: completed")
            return "completed"
        self._log(f"job {record.job_id}: completed but lease was "
                  f"lost; result dropped")
        return "lost"

    def run_one(self, record: JobRecord) -> str:
        """Execute one claimed job; returns the disposition.

        Observability wrapper around :meth:`_dispose`: a metrics scope
        isolates the job's counters (merged back afterwards, and shipped
        both to the status file live and to the run ledger at the end),
        and a :func:`~repro.telemetry.spans.tracing` block records the
        job's span tree (``job``/``execute`` and everything the suite
        records under them, one ``run_model`` span per grid cell),
        persisted to the spool for ``hidisc jobs trace`` to stitch.
        """
        self.publish_status("running", record.job_id)
        keeper = LeaseKeeper(
            self.queue, record.job_id, self.worker_id,
            interval=self.queue.lease_ttl / 3.0,
            on_renew=lambda: self.publish_status("running", record.job_id))
        scope = metrics.push_scope()
        parent_span = (record.trace or {}).get("span")
        started = time.time()
        disposition = "failed"
        keeper.start()
        with spans.tracing() as tracer:
            try:
                with tracer.span(f"job {record.job_id}", cat="job",
                                 worker=self.worker_id,
                                 attempt=record.attempts + 1,
                                 parent_span=parent_span):
                    with tracer.span("execute", cat="job") as execute_span:
                        disposition = self._dispose(record, keeper)
                        execute_span.set(disposition=disposition)
            finally:
                keeper.stop()
                elapsed = time.time() - started
                metrics.observe("job_execution_seconds", elapsed)
                metrics.inc("jobs_executed", disposition=disposition)
                snapshot = metrics.pop_scope(scope)
                metrics.merge(snapshot)
                try:
                    self.queue.append_spans(record.job_id, tracer.records)
                except Exception:  # pragma: no cover - spans are advisory
                    pass
                if disposition != "lost":
                    self._append_ledger(record, disposition, elapsed,
                                        snapshot, tracer)
                self.publish_status("idle")
        return disposition

    def _append_ledger(self, record: JobRecord, disposition: str,
                       elapsed: float, snapshot: dict,
                       tracer: SpanTracer) -> None:
        """Best-effort run-ledger entry, so ``hidisc runs list`` /
        ``runs report`` cover service-executed suites alongside CLI
        runs.  ``lost`` dispositions are skipped — the job's new owner
        writes the authoritative entry."""
        try:
            # The claimed record is stale by now (the executor updates
            # the spool copy); report the final attempt/cell counts.
            final = self.queue.get(record.job_id) or record
            entry = build_record(
                run_id=record.job_id, command="job",
                argv=[f"--worker={self.worker_id}"],
                outcome=disposition,
                exit_code=0 if disposition == "completed" else 1,
                elapsed_seconds=elapsed, config=MachineConfig(),
                metrics_snapshot=snapshot,
                spans_summary=spans.summarize(tracer.records),
                extra={"job_id": record.job_id,
                       "worker": self.worker_id,
                       "attempts": max(final.attempts, record.attempts + 1),
                       "cells_done": final.cells_done})
            RunLedger(ledger_path(self.cache.root)).append(entry)
        except Exception:  # pragma: no cover - the ledger is advisory
            pass

    # ------------------------------------------------------------------
    def run_forever(self) -> int:
        """Claim/execute until drained by a signal.  Returns the process
        exit code (0 for a clean drain).
        """
        self._log(f"worker up (pid {os.getpid()}, "
                  f"lease_ttl {self.queue.lease_ttl}s)")
        self.publish_status("idle")
        with GracefulInterrupt(stream=self.stream) as gi:
            while True:
                if gi.triggered is not None:
                    self._log(f"drained on {gi.triggered}; exiting")
                    self.publish_status("stopped")
                    return 0
                try:
                    record = self.queue.claim(self.worker_id)
                except Exception as exc:
                    self._log(f"claim failed: {exc}")
                    record = None
                if record is None:
                    self.publish_status("idle", min_interval=1.0)
                    time.sleep(POLL_SECONDS)
                    continue
                self.jobs_run += 1
                self._log(f"claimed {record.job_id} "
                          f"(attempt {record.attempts + 1}/"
                          f"{record.max_attempts})")
                self.run_one(record)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service.worker`` — spawned by ``hidisc serve``."""
    parser = argparse.ArgumentParser(
        prog="repro.service.worker",
        description="one leased simulation worker (spawned by hidisc serve)")
    parser.add_argument("--root", required=True,
                        help="service spool root directory")
    parser.add_argument("--id", dest="worker_id", default=None,
                        help="worker name used in leases and logs")
    parser.add_argument("--lease-ttl", type=float, default=30.0)
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--retry-backoff", type=float, default=0.5)
    parser.add_argument("--cache-dir", default=None,
                        help="run-cache root (defaults to the env-derived "
                             "cache; the supervisor passes its own so "
                             "worker and server always share one store)")
    args = parser.parse_args(argv)

    queue = JobQueue(args.root, lease_ttl=args.lease_ttl,
                     max_attempts=args.max_attempts,
                     retry_backoff=args.retry_backoff)
    queue.ensure_layout()
    cache = RunCache(args.cache_dir) if args.cache_dir else RunCache()
    return Worker(queue, args.worker_id, cache=cache).run_forever()


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(main())
