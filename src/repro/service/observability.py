"""Service observability: fleet metrics, worker status, job-trace stitching.

Three concerns, all file-backed through the same spool the queue already
owns (no new persistence, no new dependencies):

* **Worker status.**  Each worker atomically publishes a small JSON file
  (``<service>/workers/<id>.json``) with its state, current job, and a
  :func:`repro.telemetry.metrics.combined_snapshot` of everything it has
  counted so far — including the in-flight job's open scope, so a scrape
  mid-job sees live totals.  Liveness is derived, not declared: a status
  older than the lease TTL means the worker is dead or wedged, which is
  the same signal the lease reaper acts on.

* **Fleet metrics.**  :func:`fleet_metrics` folds the server's own
  registry and every worker's published snapshot into one
  :class:`~repro.telemetry.metrics.MetricsRegistry` (all merges commute,
  so scrape order cannot change totals), then overlays scrape-time
  gauges measured straight off the spool: per-state depth, oldest
  pending age, max lease age, live/known workers.  ``GET /metrics``
  renders this with :func:`repro.telemetry.metrics.render_prometheus`.

* **Job-trace stitching.**  A job's path crosses at least three
  processes — client, queue/server, worker — none of which ever holds
  the whole story.  :func:`stitch_job_trace` reassembles it from what
  each durably left behind: the client's trace context on the job
  record, the queue's per-job event stream (state-residency spans are
  reconstructed from the transition events), and the worker's persisted
  span file.  The result is one span set with cross-process parent
  links, rendered by ``hidisc jobs trace`` as a single Perfetto trace
  with one lane per process.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from .. import store
from ..errors import ServiceError
from ..telemetry import metrics
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.spans import SpanRecord
from .queue import JobQueue

#: Synthetic pid for the queue's lane in stitched job traces (no real
#: process can have pid 0, so it never collides with client or worker).
QUEUE_LANE_PID = 0

#: Worker status files older than ``max(lease_ttl, _MIN_LIVENESS)``
#: seconds are considered dead (a live worker republishes at least once
#: per lease renewal).
_MIN_LIVENESS = 5.0


# ----------------------------------------------------------------------
# Worker status files.

def publish_worker_status(queue: JobQueue, worker: str, state: str,
                          job_id: str | None = None,
                          jobs_run: int = 0) -> None:
    """Atomically publish *worker*'s status file (best-effort).

    Includes the process's combined metrics snapshot so the server can
    aggregate per-worker counters into the fleet scrape without any IPC
    beyond the spool directory everything already shares.
    """
    payload = {
        "worker": worker,
        "pid": os.getpid(),
        "time": round(time.time(), 3),
        "state": state,
        "job": job_id,
        "jobs_run": jobs_run,
        "metrics": metrics.combined_snapshot(),
    }
    text = json.dumps(payload, sort_keys=True)
    try:
        store.atomic_write(queue.status_path(worker),
                           lambda fh: fh.write(text.encode()))
    except OSError:
        pass


def read_worker_statuses(queue: JobQueue,
                         window: float | None = None) -> list[dict]:
    """Every published worker status, annotated with ``age`` and
    ``alive`` (status fresher than *window*, default
    ``max(lease_ttl, 5s)``)."""
    if window is None:
        window = max(queue.lease_ttl, _MIN_LIVENESS)
    directory = queue.workers_dir()
    if not directory.is_dir():
        return []
    now = time.time()
    statuses = []
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(data, dict) or "worker" not in data:
            continue
        age = max(now - float(data.get("time") or 0.0), 0.0)
        data["age"] = round(age, 3)
        data["alive"] = age <= window
        statuses.append(data)
    return statuses


# ----------------------------------------------------------------------
# Fleet-wide metrics aggregation.

def fleet_metrics(queue: JobQueue, base_snapshot: dict | None = None,
                  statuses: list[dict] | None = None,
                  extra_gauges: dict | None = None) -> dict:
    """One merged metrics snapshot for the whole fleet.

    Folds the server's *base_snapshot* and every worker's published
    snapshot together (commutative merges — scrape order is
    irrelevant), then overlays gauges measured off the spool at scrape
    time: per-state depth, oldest-pending age, max lease age, and
    worker liveness.  *extra_gauges* (``{name: value}``) lets the
    server add its own (e.g. ``service_draining``).
    """
    if statuses is None:
        statuses = read_worker_statuses(queue)
    merged = MetricsRegistry()
    if base_snapshot:
        merged.merge(base_snapshot)
    for status in statuses:
        snap = status.get("metrics")
        if isinstance(snap, dict):
            merged.merge(snap)

    now = time.time()
    for state, depth in queue.counts().items():
        merged.gauge("jobs_depth", float(depth), state=state)
    pending = queue._records_in("pending")
    oldest = max((now - r.created for r in pending), default=0.0)
    merged.gauge("oldest_pending_age_seconds", round(max(oldest, 0.0), 3))
    leased = queue._records_in("leased")
    lease_age = max((now - (r.lease or {}).get("since", now)
                     for r in leased), default=0.0)
    merged.gauge("max_lease_age_seconds", round(max(lease_age, 0.0), 3))
    merged.gauge("workers_known", float(len(statuses)))
    merged.gauge("workers_live",
                 float(sum(1 for s in statuses if s.get("alive"))))
    for name, value in (extra_gauges or {}).items():
        merged.gauge(name, float(value))
    return merged.snapshot()


# ----------------------------------------------------------------------
# Job-trace stitching.

def resolve_job_id(queue: JobQueue, prefix: str) -> str:
    """Expand a job-id prefix to the unique job it names (convenience
    for the CLI — full ids are 20+ characters)."""
    matches = sorted({r.job_id for r in queue.list_jobs()
                      if r.job_id.startswith(prefix)})
    if not matches:
        raise ServiceError(f"unknown job {prefix!r}")
    if len(matches) > 1:
        raise ServiceError(
            f"ambiguous job id {prefix!r}: matches "
            f"{', '.join(matches[:4])}{'…' if len(matches) > 4 else ''}")
    return matches[0]


#: Event kind -> the queue state the job occupies *after* that event
#: (``None`` = no state change; terminal/landed kinds consult fields).
def _state_after(event: dict) -> str | None:
    kind = event.get("kind")
    if kind == "submitted":
        return "pending"
    if kind == "leased":
        return "leased"
    if kind == "released":
        return "pending"
    if kind in ("failed", "lease_expired"):
        return event.get("landed") or "pending"
    if kind == "state":
        return event.get("state")
    return None


def stitch_job_trace(queue: JobQueue, job_id: str
                     ) -> tuple[list[SpanRecord], dict]:
    """Reassemble one job's cross-process timeline.

    Returns ``(records, lane_names)`` ready for
    :func:`repro.telemetry.spans.write_orchestration_trace`:

    * a **client** lane (when the record carries a trace context) with
      the submit span, linked as the parent of the job's root span;
    * a **queue** lane (synthetic pid 0): a root ``job <id>`` span over
      the whole observed lifetime, state-residency child spans
      reconstructed from the transition events, and one instant per
      raw event;
    * one **worker** lane per pid found in the persisted span file
      (``job``/``execute``/per-cell spans, already parent-linked by the
      worker's own tracer).
    """
    record = queue.get(job_id)
    if record is None:
        raise ServiceError(f"unknown job {job_id!r}")
    events = queue.read_events(job_id)
    worker_spans = queue.read_spans(job_id)
    if not events and not worker_spans:
        raise ServiceError(f"job {job_id} has no events or spans to stitch")

    records: list[SpanRecord] = []
    lane_names: dict[int, str] = {}
    trace = record.trace if isinstance(record.trace, dict) else None

    event_ns = [int(float(e.get("t", 0.0)) * 1e9) for e in events]
    first_ns = min(event_ns) if event_ns else \
        min(s["t0_ns"] for s in worker_spans)
    last_ns = max((t + 1 for t in event_ns), default=first_ns)
    for span in worker_spans:
        last_ns = max(last_ns, span["t0_ns"] + (span.get("dur_ns") or 0))

    # Client lane: the submit span the CLI stamped into the trace context,
    # closed at the moment the queue durably accepted the job.
    client_sid = None
    if trace:
        client_sid = trace["span"]
        t0 = min(trace["t_ns"], first_ns)
        submitted_ns = next(
            (ns for e, ns in zip(events, event_ns)
             if e.get("kind") == "submitted"), first_ns)
        records.append(SpanRecord(
            name="submit job", cat="client", pid=trace["pid"],
            sid=client_sid, parent=None, t0_ns=t0,
            dur_ns=max(submitted_ns - t0, 1_000),
            args={"job_id": job_id}))
        lane_names[trace["pid"]] = f"hidisc client {trace['pid']}"

    # Queue lane: root span + state-residency spans + raw-event instants.
    seq = 0

    def queue_sid() -> str:
        nonlocal seq
        seq += 1
        return f"q.{seq}"

    root_sid = queue_sid()
    records.append(SpanRecord(
        name=f"job {job_id}", cat="queue", pid=QUEUE_LANE_PID,
        sid=root_sid, parent=client_sid, t0_ns=first_ns,
        dur_ns=max(last_ns - first_ns, 1_000),
        args={"state": record.state, "outcome": record.outcome,
              "attempts": record.attempts, "submitted": record.submitted}))
    lane_names[QUEUE_LANE_PID] = "hidisc job queue"

    open_state: str | None = None
    open_since = first_ns
    for event, t_ns in zip(events, event_ns):
        records.append(SpanRecord(
            name=event.get("kind", "event"), cat="queue",
            pid=QUEUE_LANE_PID, sid=queue_sid(), parent=root_sid,
            t0_ns=t_ns, dur_ns=None,
            args={k: v for k, v in event.items()
                  if k not in ("t", "kind", "spec")}))
        state = _state_after(event)
        if state is None or state == open_state:
            continue
        if open_state is not None:
            records.append(SpanRecord(
                name=open_state, cat="queue-state", pid=QUEUE_LANE_PID,
                sid=queue_sid(), parent=root_sid, t0_ns=open_since,
                dur_ns=max(t_ns - open_since, 1_000), args={}))
        open_state, open_since = state, t_ns
    if open_state is not None:
        # Close the final residency span at the last observed stamp —
        # for a live job that is "so far", for a terminal one the tail
        # of its lifetime.
        records.append(SpanRecord(
            name=open_state, cat="queue-state", pid=QUEUE_LANE_PID,
            sid=queue_sid(), parent=root_sid, t0_ns=open_since,
            dur_ns=max(last_ns - open_since, 1_000), args={}))

    # Worker lanes: persisted span dicts, intra-process parent links
    # intact; top-level worker spans (the per-attempt ``job <id>`` root)
    # are re-parented onto the queue's root span, completing the
    # client -> queue -> worker chain.
    for span in worker_spans:
        pid = int(span.get("pid", 0))
        records.append(SpanRecord(
            name=span.get("name", "span"), cat=span.get("cat", "orch"),
            pid=pid, sid=str(span.get("sid", "")),
            parent=span.get("parent") or root_sid,
            t0_ns=int(span["t0_ns"]), dur_ns=span.get("dur_ns"),
            args=span.get("args") or {}))
        lane_names.setdefault(pid, f"hidisc worker {pid}")

    return records, lane_names


# ----------------------------------------------------------------------
# Live fleet status (`hidisc jobs top`).

def render_fleet_line(payload: dict) -> str:
    """One-line fleet digest from a ``GET /metrics?format=json`` payload."""
    counts = payload.get("counts", {})
    snap = payload.get("metrics", {})
    gauges = snap.get("gauges", {})
    counters = snap.get("counters", {})
    live = int(gauges.get("workers_live", 0))
    known = int(gauges.get("workers_known", 0))
    return (
        "[top] "
        f"pending={counts.get('pending', 0)} "
        f"leased={counts.get('leased', 0)} "
        f"done={counts.get('done', 0)} "
        f"failed={counts.get('failed', 0)} "
        f"quarantined={counts.get('quarantined', 0)} | "
        f"workers {live}/{known} | "
        f"completed={int(counters.get('jobs_completed', 0))} "
        f"retried={int(counters.get('jobs_retried', 0))} "
        f"oldest_wait={gauges.get('oldest_pending_age_seconds', 0.0):.1f}s"
    )


def render_fleet_table(payload: dict, jobs: list[dict]) -> str:
    """Multi-line fleet summary: per-worker rows plus active jobs."""
    lines = [render_fleet_line(payload)[len("[top] "):]]
    workers = payload.get("workers", [])
    if workers:
        lines.append("")
        lines.append(f"{'worker':<14} {'state':<10} {'alive':<6} "
                     f"{'jobs':>5}  job")
        for status in workers:
            lines.append(
                f"{str(status.get('worker', '?')):<14} "
                f"{str(status.get('state', '?')):<10} "
                f"{'yes' if status.get('alive') else 'no':<6} "
                f"{status.get('jobs_run', 0):>5}  "
                f"{status.get('job') or '-'}")
    active = [j for j in jobs
              if j.get("state") in ("pending", "leased")]
    if active:
        lines.append("")
        lines.append(f"{'job':<26} {'state':<8} {'attempts':>8} "
                     f"{'cells':>6}")
        for job in active:
            lines.append(
                f"{str(job.get('job_id', '?'))[:26]:<26} "
                f"{str(job.get('state', '?')):<8} "
                f"{job.get('attempts', 0):>8} "
                f"{job.get('cells_done', 0):>6}")
    return "\n".join(lines)


def run_top(client, *, interval: float = 2.0, iterations: int = 0,
            stream=None, live: bool | None = None) -> int:
    """The ``hidisc jobs top`` loop: refresh a fleet status line from
    ``/metrics`` + ``/jobs`` every *interval* seconds.

    *iterations* bounds the refresh count (0 = until Ctrl-C, the
    interactive default); on exit the final fleet table is printed in
    full.  Rendering rides :class:`repro.telemetry.StatusLine`, so a
    TTY gets an in-place line and a pipe gets one plain line per
    refresh — the heartbeat's non-TTY contract.
    """
    import sys as _sys

    from ..telemetry.heartbeat import StatusLine

    out = stream if stream is not None else _sys.stderr
    status = StatusLine(out, live)
    payload: dict = {}
    jobs: list[dict] = []
    count = 0
    try:
        while True:
            payload = client.metrics()
            jobs = client.jobs()
            status.update(render_fleet_line(payload))
            count += 1
            if iterations and count >= iterations:
                break
            time.sleep(max(interval, 0.05))
    except KeyboardInterrupt:
        pass
    finally:
        status.finish()
    if payload:
        out.write(render_fleet_table(payload, jobs) + "\n")
        out.flush()
    return 0
