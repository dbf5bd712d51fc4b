"""Crash-safe, file-based job queue: spool directories + atomic renames.

One JSON record per job, moved through per-state spool directories::

    <cache>/service/jobs/pending/      submitted, claimable
    <cache>/service/jobs/leased/       claimed by a worker, heartbeat-renewed
    <cache>/service/jobs/done/         completed (result_path points at payload)
    <cache>/service/jobs/failed/       terminal failures & cancellations
    <cache>/service/jobs/quarantined/  poison jobs: retry budget exhausted

Crash-consistency rules (the short proof lives in DESIGN §9):

* **Publishing** a record (submit, or rewriting it in place) is always
  :func:`repro.store.atomic_write` into the destination directory — a
  crash never leaves a torn JSON file where a reader looks.
* **Claiming** is a bare ``os.rename(pending/x, leased/x)``.  POSIX
  rename is atomic and fails with ENOENT for every claimant but one, so
  exactly one worker wins without any locking.
* **Leaving** ``leased/`` (complete, fail, requeue, quarantine) writes
  the destination copy first, then unlinks the leased copy.  A crash
  between the two steps leaves the job in *both* directories; the
  recovery rule is unambiguous because only this transition ever creates
  duplicates: *a job present in ``leased/`` and any other directory is a
  stale leased leftover — delete the leased copy.*
* **Leases expire.** A leased record whose heartbeat deadline has passed
  (or that has no lease at all — a worker died between the claim rename
  and the lease rewrite) is requeued by the reaper, charging one attempt
  against the retry budget; past the budget it is quarantined with the
  last captured error.  A SIGKILL'd worker therefore loses at most the
  in-flight cells of one job, and the job completes elsewhere.

Multi-writer transitions (worker renew vs. reaper expiry, concurrent
submits racing the depth check) serialize on one lock file
(:func:`repro.store.locked`); claims stay lock-free via rename
atomicity.  Per-job event and span streams are append-only JSONL through
:func:`repro.store.locked_append` and :func:`repro.store.read_jsonl` —
the same discipline as the run ledger.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from .. import store
from ..config import MachineConfig
from ..errors import BackpressureError, ConfigError, ServiceError
from ..experiments.cache import SERVICE_DIR
from ..telemetry import metrics
from .records import (
    STATES,
    JobRecord,
    job_dedup_key,
    new_job_id,
    normalize_spec,
    normalize_trace,
)

__all__ = ["SERVICE_DIR", "JobQueue"]

#: How long an idle worker, the ``hidisc serve`` supervisor and a client
#: waiting on a job sleep before they look at the queue again.
POLL_SECONDS = 0.2

#: States whose records absorb duplicate submissions (a failed or
#: quarantined job does *not* — resubmitting one is an explicit retry).
_DEDUP_STATES = ("pending", "leased", "done")


class JobQueue:
    """Spool-directory job store shared by server, workers and reaper.

    Every process/thread constructs its own ``JobQueue`` over the same
    *root*; all coordination happens through the filesystem.
    """

    def __init__(self, root: str | Path, *, max_depth: int = 64,
                 lease_ttl: float = 30.0, max_attempts: int = 3,
                 retry_backoff: float = 0.5) -> None:
        if max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
        if lease_ttl <= 0:
            raise ConfigError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.max_depth = max_depth
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff

    # ------------------------------------------------------------------
    # Paths.

    def state_dir(self, state: str) -> Path:
        if state not in STATES:
            raise ServiceError(f"unknown job state {state!r}")
        return self.root / "jobs" / state

    def record_path(self, job_id: str, state: str) -> Path:
        return self.state_dir(state) / f"{job_id}.json"

    def cancel_marker(self, job_id: str) -> Path:
        return self.root / "cancel" / job_id

    def events_path(self, job_id: str) -> Path:
        return self.root / "events" / f"{job_id}.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.root / "results" / f"{job_id}.json"

    def spans_path(self, job_id: str) -> Path:
        return self.root / "spans" / f"{job_id}.jsonl"

    def workers_dir(self) -> Path:
        return self.root / "workers"

    def status_path(self, worker: str) -> Path:
        return self.workers_dir() / f"{worker}.json"

    def ensure_layout(self) -> None:
        for state in STATES:
            self.state_dir(state).mkdir(parents=True, exist_ok=True)
        for sub in ("cancel", "events", "results", "spans", "workers"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Locking (multi-writer transitions only; claims are rename-atomic).

    def _lock(self):
        return store.locked(self.root / ".lock")

    # ------------------------------------------------------------------
    # Record I/O.

    def _publish(self, record: JobRecord, state: str) -> None:
        """Atomically (re)write *record* into *state*'s spool directory."""
        record.state = state
        record.touch()
        text = record.to_json()
        store.atomic_write(self.record_path(record.job_id, state),
                           lambda fh: fh.write(text.encode()))

    def _read(self, path: Path) -> JobRecord | None:
        try:
            return JobRecord.from_json(path.read_text())
        except (OSError, ValueError):
            return None

    def _leave_leased(self, record: JobRecord, dest_state: str) -> None:
        """Transition out of ``leased/``: destination copy first, then
        unlink the leased copy (see the module docstring's recovery rule).
        """
        self._publish(record, dest_state)
        try:
            self.record_path(record.job_id, "leased").unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Events.

    def append_event(self, job_id: str, kind: str, **fields) -> None:
        event = {"t": round(time.time(), 3), "kind": kind, **fields}
        try:
            store.locked_append(self.events_path(job_id),
                                json.dumps(event, sort_keys=True,
                                           separators=(",", ":")))
        except OSError:
            pass

    def read_events(self, job_id: str) -> list[dict]:
        """Parse the job's event stream, tolerating a torn final line
        (see :func:`repro.store.read_jsonl`)."""
        return store.read_jsonl(self.events_path(job_id))

    # ------------------------------------------------------------------
    # Worker spans (the job-trace stitcher's raw material).

    def append_spans(self, job_id: str, records) -> int:
        """Persist span records (``SpanRecord.as_dict`` dicts or objects)
        for *job_id*; append-only JSONL, one span per line, written in
        one locked append."""
        lines = [json.dumps(r if isinstance(r, dict) else r.as_dict(),
                            sort_keys=True, separators=(",", ":"))
                 for r in records]
        try:
            store.locked_append(self.spans_path(job_id), *lines)
        except OSError:
            pass
        return len(lines)

    def read_spans(self, job_id: str) -> list[dict]:
        """All persisted span dicts for *job_id* (torn lines skipped)."""
        return [data for data in store.read_jsonl(self.spans_path(job_id))
                if "t0_ns" in data]

    # ------------------------------------------------------------------
    # Submission (dedup + admission control).

    def submit(self, spec: dict, config: MachineConfig | None = None,
               trace: dict | None = None) -> tuple[JobRecord, bool]:
        """Admit one job; returns ``(record, created)``.

        ``created=False`` means an identical live job absorbed the
        submission (content-addressed dedup) — the caller polls the
        shared job.  Raises :class:`BackpressureError` past *max_depth*
        and :class:`ConfigError` for malformed specs.  *trace* is an
        optional client trace context (see
        :func:`repro.service.records.normalize_trace`); it is telemetry
        only and never enters the dedup key.
        """
        config = config if config is not None else MachineConfig()
        spec = normalize_spec(spec)
        trace = normalize_trace(trace)
        key = job_dedup_key(spec, config)
        self.ensure_layout()
        with self._lock():
            for state in _DEDUP_STATES:
                for record in self._records_in(state):
                    if record.dedup_key == key:
                        record.submitted += 1
                        self._publish(record, state)
                        self.append_event(record.job_id, "deduplicated",
                                          submitted=record.submitted)
                        metrics.inc("jobs_deduplicated")
                        return record, False
            depth = len(self._paths_in("pending"))
            if depth >= self.max_depth:
                metrics.inc("backpressure_rejections")
                raise BackpressureError(depth, self.max_depth)
            record = JobRecord(job_id=new_job_id(), spec=spec,
                               dedup_key=key,
                               max_attempts=self.max_attempts,
                               trace=trace)
            self._publish(record, "pending")
        self.append_event(record.job_id, "submitted", spec=spec)
        metrics.inc("jobs_submitted")
        return record, True

    # ------------------------------------------------------------------
    # Claiming and leases.

    def claim(self, worker: str, pid: int | None = None) -> JobRecord | None:
        """Claim the oldest eligible pending job for *worker*, or None.

        The claim itself is a single atomic rename — exactly one of any
        number of racing workers wins a given job.
        """
        now = time.time()
        for path in self._paths_in("pending"):
            record = self._read(path)
            if record is None:
                continue
            if record.not_before > now:
                continue
            if self.cancel_marker(record.job_id).exists():
                with self._lock():
                    self._finalize_cancelled(record, "pending")
                continue
            leased_path = self.record_path(record.job_id, "leased")
            try:
                os.rename(path, leased_path)
            except OSError:
                continue  # lost the race; try the next job
            record.lease = {"worker": worker,
                            "pid": pid if pid is not None else os.getpid(),
                            "deadline": now + self.lease_ttl,
                            "since": now,
                            "renewals": 0}
            self._publish(record, "leased")
            self.append_event(record.job_id, "leased", worker=worker,
                              pid=record.lease["pid"],
                              attempt=record.attempts + 1,
                              deadline=round(record.lease["deadline"], 3))
            metrics.inc("jobs_claimed")
            if record.attempts == 0:
                # First execution: time spent waiting in pending/.
                metrics.observe("job_queue_wait_seconds",
                                max(now - record.created, 0.0))
            return record
        return None

    def renew(self, job_id: str, worker: str) -> JobRecord | None:
        """Extend *worker*'s lease; returns the fresh record, or ``None``
        when the lease is lost (job expired and was requeued, cancelled,
        or completed elsewhere) — the worker must then abandon the job.
        """
        with self._lock():
            record = self._read(self.record_path(job_id, "leased"))
            if record is None or record.lease is None or \
                    record.lease.get("worker") != worker:
                return None
            record.lease["deadline"] = time.time() + self.lease_ttl
            record.lease["renewals"] = record.lease.get("renewals", 0) + 1
            self._publish(record, "leased")
        self.append_event(job_id, "heartbeat", worker=worker,
                          renewals=record.lease["renewals"],
                          deadline=round(record.lease["deadline"], 3))
        metrics.inc("lease_renewals")
        return record

    def record_cell(self, job_id: str, worker: str) -> None:
        """Bump the leased record's completed-cell counter (best-effort)."""
        with self._lock():
            record = self._read(self.record_path(job_id, "leased"))
            if record is None or record.lease is None or \
                    record.lease.get("worker") != worker:
                return
            record.cells_done += 1
            self._publish(record, "leased")

    # ------------------------------------------------------------------
    # Terminal transitions (always out of leased/).

    def _owned_leased(self, job_id: str, worker: str | None
                      ) -> JobRecord | None:
        """The current leased record, iff *worker* still holds the lease
        (``worker=None`` skips the ownership check — reaper/admin paths).
        Must be called under :meth:`_lock`.
        """
        current = self._read(self.record_path(job_id, "leased"))
        if current is None:
            return None
        if worker is not None and \
                (current.lease or {}).get("worker") != worker:
            return None
        return current

    def complete(self, record: JobRecord, result_path: str | Path,
                 worker: str | None = None) -> bool:
        """Finish a leased job; ``False`` if the lease was lost meanwhile
        (the job expired and someone else owns it now — this worker's
        result is simply dropped; the re-execution is deterministic).
        """
        with self._lock():
            current = self._owned_leased(record.job_id, worker)
            if current is None:
                return False
            current.outcome = "completed"
            current.error = None
            current.result_path = str(result_path)
            current.lease = None
            self._leave_leased(current, "done")
        self.append_event(record.job_id, "state", state="done",
                          outcome="completed")
        metrics.inc("jobs_completed")
        metrics.observe("job_latency_seconds",
                        max(time.time() - current.created, 0.0))
        self._clear_cancel(record.job_id)
        return True

    def fail(self, record: JobRecord, error: str,
             traceback_text: str | None = None,
             worker: str | None = None) -> str:
        """One failed execution: retry with backoff or quarantine.

        Returns the state the job landed in: ``pending`` for a retry,
        ``quarantined`` past the budget, ``failed`` if it was cancelled,
        or ``lost`` when the caller's lease had already expired (the
        record is untouched — its new owner is responsible for it).
        """
        with self._lock():
            current = self._owned_leased(record.job_id, worker)
            if current is None:
                return "lost"
            current.attempts += 1
            current.error = error
            current.traceback = traceback_text
            current.lease = None
            if self.cancel_marker(record.job_id).exists():
                current.outcome = "cancelled"
                self._leave_leased(current, "failed")
                landed = "failed"
            elif current.attempts >= current.max_attempts:
                current.outcome = "quarantined"
                self._leave_leased(current, "quarantined")
                landed = "quarantined"
            else:
                delay = self.retry_backoff * (2 ** (current.attempts - 1))
                current.not_before = time.time() + delay
                self._leave_leased(current, "pending")
                landed = "pending"
            record.attempts = current.attempts
        self.append_event(record.job_id, "failed", error=error,
                          attempt=current.attempts, landed=landed)
        metrics.inc("jobs_failed")
        if landed == "pending":
            metrics.inc("jobs_retried")
        elif landed == "quarantined":
            metrics.inc("jobs_quarantined")
        else:
            metrics.inc("jobs_cancelled")
        if landed != "pending":
            self._clear_cancel(record.job_id)
        return landed

    def cancel_job(self, record: JobRecord,
                   worker: str | None = None) -> bool:
        """A worker observed the cancel marker mid-run."""
        with self._lock():
            current = self._owned_leased(record.job_id, worker)
            if current is None:
                return False
            current.outcome = "cancelled"
            current.lease = None
            self._leave_leased(current, "failed")
        self.append_event(record.job_id, "state", state="failed",
                          outcome="cancelled")
        metrics.inc("jobs_cancelled")
        self._clear_cancel(record.job_id)
        return True

    def release(self, record: JobRecord, worker: str | None = None) -> None:
        """Graceful drain: requeue a leased job, attempt-neutral.

        Completed cells are checkpointed, so the next claimant resumes
        instead of recomputing.  A record that is no longer leased (lease
        lost while draining) is left alone.
        """
        with self._lock():
            current = self._owned_leased(record.job_id, worker)
            if current is None:
                return
            current.lease = None
            current.not_before = 0.0
            self._leave_leased(current, "pending")
        self.append_event(record.job_id, "released",
                          cells_done=current.cells_done)
        metrics.inc("jobs_released")

    # ------------------------------------------------------------------
    # Reaper: lease expiry + crash recovery.

    def expire_leases(self, now: float | None = None) -> list[str]:
        """Requeue (or quarantine) every leased job whose lease lapsed.

        Also applies the duplicate-recovery rule for crash leftovers.
        Returns the ids it acted on.  Called periodically by the server's
        reaper and once at startup (jobs stranded in ``leased/`` by a
        crashed server have long-passed deadlines and requeue instantly).
        """
        now = time.time() if now is None else now
        acted = []
        for path in self._paths_in("leased"):
            job_id = path.stem
            if self._drop_stale_leased_copy(job_id):
                acted.append(job_id)
                continue
            with self._lock():
                record = self._read(path)
                if record is None:
                    continue
                deadline = (record.lease or {}).get("deadline", 0.0)
                if deadline > now:
                    continue
                record.attempts += 1
                holder = (record.lease or {}).get("worker")
                record.lease = None
                if record.attempts >= record.max_attempts:
                    record.outcome = "quarantined"
                    record.error = (
                        f"lease expired {record.attempts} time(s) "
                        f"(last held by {holder or 'unknown'}) — worker "
                        f"crash loop, retry budget exhausted")
                    self._leave_leased(record, "quarantined")
                    landed = "quarantined"
                else:
                    record.not_before = 0.0
                    self._leave_leased(record, "pending")
                    landed = "pending"
            self.append_event(job_id, "lease_expired", worker=holder,
                              attempt=record.attempts, landed=landed)
            metrics.inc("lease_expiries")
            if landed == "quarantined":
                metrics.inc("jobs_quarantined")
            else:
                metrics.inc("jobs_retried")
            acted.append(job_id)
        return acted

    def _drop_stale_leased_copy(self, job_id: str) -> bool:
        """Recovery rule: leased copy + any other copy → drop the leased
        one (the crash happened after the destination was published)."""
        for state in STATES:
            if state == "leased":
                continue
            if self.record_path(job_id, state).exists():
                try:
                    self.record_path(job_id, "leased").unlink()
                except OSError:
                    pass
                return True
        return False

    # ------------------------------------------------------------------
    # Cancellation (client side).

    def request_cancel(self, job_id: str) -> str:
        """Cancel *job_id*; returns the resulting state.

        Pending jobs finalize immediately; leased jobs get a marker the
        worker observes at its next cell boundary; terminal jobs are
        left untouched (their state is returned).
        """
        found = self.get(job_id)
        if found is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if found.terminal:
            return found.state
        marker = self.cancel_marker(job_id)
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()
        with self._lock():
            record = self._read(self.record_path(job_id, "pending"))
            if record is not None:
                self._finalize_cancelled(record, "pending")
                return "failed"
        self.append_event(job_id, "cancel_requested")
        return "leased"

    def _finalize_cancelled(self, record: JobRecord, from_state: str) -> None:
        """Move a (non-leased) record straight to failed/cancelled."""
        record.outcome = "cancelled"
        record.lease = None
        self._publish(record, "failed")
        try:
            self.record_path(record.job_id, from_state).unlink()
        except OSError:
            pass
        self.append_event(record.job_id, "state", state="failed",
                          outcome="cancelled")
        metrics.inc("jobs_cancelled")
        self._clear_cancel(record.job_id)

    def _clear_cancel(self, job_id: str) -> None:
        try:
            self.cancel_marker(job_id).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Introspection.

    def _paths_in(self, state: str) -> list[Path]:
        directory = self.state_dir(state)
        if not directory.is_dir():
            return []
        return sorted(directory.glob("*.json"))

    def _records_in(self, state: str) -> list[JobRecord]:
        records = []
        for path in self._paths_in(state):
            record = self._read(path)
            if record is not None:
                records.append(record)
        return records

    def get(self, job_id: str) -> JobRecord | None:
        """The job's current record, wherever it is in the spool."""
        for state in STATES:
            record = self._read(self.record_path(job_id, state))
            if record is not None:
                return record
        return None

    def list_jobs(self) -> list[JobRecord]:
        records = []
        for state in STATES:
            records.extend(self._records_in(state))
        return sorted(records, key=lambda r: r.job_id)

    def counts(self) -> dict:
        return {state: len(self._paths_in(state)) for state in STATES}

    def load_result(self, record: JobRecord) -> dict | None:
        if record.result_path is None:
            return None
        try:
            return json.loads(Path(record.result_path).read_text())
        except (OSError, ValueError):
            return None
