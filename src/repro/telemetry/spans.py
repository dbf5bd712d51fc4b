"""Host-side orchestration span tracer.

The simulated machine has had structured telemetry since PR 1; the *host*
orchestration around it (process-pool grid, compilation cache, suite
checkpoints, retry/backoff, fault campaigns) only emitted ad-hoc progress
strings.  This module gives that layer the same treatment: hierarchical
**spans** (context-manager API, monotonic durations, parent/child nesting,
process-safe ids) plus point **instants**, exportable as Chrome/Perfetto
``trace_event`` JSON so a whole ``hidisc suite --jobs N`` renders as one
timeline — the orchestrator and every worker process on their own lanes.

Zero overhead when off (the default): the module-level :func:`span` /
:func:`instant` helpers check one global and return a shared no-op context
manager, so an untraced run never allocates a record.  Enabling
(:func:`enable`) also sets :data:`ENV_FLAG` in ``os.environ``, which pool
workers inherit; the worker entry points bracket each task with
:func:`begin_worker_task` / :func:`end_worker_task` so the task's spans
travel back to the parent inside the task result (see
:mod:`repro.experiments.parallel`) and are re-merged onto the parent's
timeline with their worker pid intact.

Clocks: durations are measured with ``time.perf_counter_ns`` (monotonic,
immune to wall-clock steps); span *start* stamps use ``time.time_ns`` so
spans from different processes align on one timeline.  Span ids embed the
pid (``"<pid:x>.<seq>"``), so ids from concurrent workers can never
collide.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .sinks import write_trace_events

#: Environment variable propagating "orchestration tracing is on" to pool
#: workers (set by :func:`enable`, cleared by :func:`disable`).
ENV_FLAG = "HIDISC_ORCH_TRACE"


@dataclass
class SpanRecord:
    """One completed span (or instant, when ``dur_ns`` is ``None``)."""

    name: str
    cat: str
    pid: int
    sid: str
    parent: str | None
    #: wall-clock start in nanoseconds (``time.time_ns``) — comparable
    #: across processes, which is what puts workers on one timeline.
    t0_ns: int
    #: monotonic duration in nanoseconds; ``None`` marks an instant.
    dur_ns: int | None = None
    args: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name, "cat": self.cat, "pid": self.pid,
            "sid": self.sid, "parent": self.parent, "t0_ns": self.t0_ns,
            "dur_ns": self.dur_ns, "args": dict(self.args),
        }


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


#: The one no-op span; there is never a reason to make another.
NULL_SPAN = _NullSpan()


class _Span:
    """A live span: records itself on the tracer when the block exits."""

    __slots__ = ("_tracer", "record", "_t0_pc")

    def __init__(self, tracer: "SpanTracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record
        self._t0_pc = 0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. ``hit=True``)."""
        self.record.args.update(attrs)

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self.record.sid)
        self.record.t0_ns = time.time_ns()
        self._t0_pc = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.record.dur_ns = time.perf_counter_ns() - self._t0_pc
        if exc_type is not None:
            self.record.args["error"] = exc_type.__name__
        stack = self._tracer._stack
        if stack and stack[-1] == self.record.sid:
            stack.pop()
        self._tracer.records.append(self.record)
        return False


class SpanTracer:
    """Collects the span records of one process.

    Orchestration is single-threaded per process (the submission loop in
    the parent, one task at a time in a worker), so a plain nesting stack
    is sufficient for parent/child links.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.records: list[SpanRecord] = []
        self._stack: list[str] = []
        self._seq = 0

    def _new_id(self) -> str:
        self._seq += 1
        return f"{self.pid:x}.{self._seq}"

    def span(self, name: str, cat: str = "orch", **args) -> _Span:
        record = SpanRecord(
            name=name, cat=cat, pid=self.pid, sid=self._new_id(),
            parent=self._stack[-1] if self._stack else None,
            t0_ns=0, args=args,
        )
        return _Span(self, record)

    def instant(self, name: str, cat: str = "orch", **args) -> None:
        self.records.append(SpanRecord(
            name=name, cat=cat, pid=self.pid, sid=self._new_id(),
            parent=self._stack[-1] if self._stack else None,
            t0_ns=time.time_ns(), dur_ns=None, args=args,
        ))

    def record_span(self, name: str, t0_ns: int, dur_ns: int,
                    cat: str = "orch", parent: str | None = None,
                    **args) -> SpanRecord:
        """Retro-record a span that already happened.

        For callers that learn a span's bounds after the fact (the service
        executor timing a grid cell inside a callback, the trace stitcher
        reconstructing queue-state residency from persisted events) —
        *t0_ns* is a ``time.time_ns`` stamp and *dur_ns* a plain
        difference of such stamps.  The span nests under the currently
        open span unless *parent* is given explicitly.
        """
        record = SpanRecord(
            name=name, cat=cat, pid=self.pid, sid=self._new_id(),
            parent=parent if parent is not None
            else (self._stack[-1] if self._stack else None),
            t0_ns=t0_ns, dur_ns=dur_ns, args=args,
        )
        self.records.append(record)
        return record

    def adopt(self, records) -> None:
        """Merge spans shipped back from a worker process.

        Records keep their own pid and ids (pid-prefixed, so they cannot
        collide with ours) — on export each worker renders as its own
        process lane.
        """
        self.records.extend(records)


# ----------------------------------------------------------------------
# Module-level tracer (the zero-overhead-when-off switch).

_TRACER: SpanTracer | None = None


def enable() -> SpanTracer:
    """Install a fresh tracer and flag worker processes to trace too."""
    global _TRACER
    _TRACER = SpanTracer()
    os.environ[ENV_FLAG] = "1"
    return _TRACER


def disable() -> None:
    """Drop the tracer and clear the worker flag (records survive on the
    tracer object :func:`enable` returned)."""
    global _TRACER
    _TRACER = None
    os.environ.pop(ENV_FLAG, None)


def current() -> SpanTracer | None:
    return _TRACER


def active() -> bool:
    return _TRACER is not None


def span(name: str, cat: str = "orch", **args):
    """Context manager for one orchestration span (no-op when off)."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, cat, **args)


def instant(name: str, cat: str = "orch", **args) -> None:
    """Record a point event (no-op when off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.instant(name, cat, **args)


# ----------------------------------------------------------------------
# Worker-side bracketing (see repro.experiments.parallel).

def begin_worker_task() -> SpanTracer | None:
    """Install a fresh per-task tracer in a pool worker.

    Returns ``None`` when this process is already the tracing parent (the
    inline/serial path — its spans land on the parent tracer directly) or
    when orchestration tracing is off.  A fork-inherited parent tracer is
    recognised by its pid and replaced, never appended to: each task ships
    exactly its own spans back.
    """
    global _TRACER
    if _TRACER is not None and _TRACER.pid == os.getpid():
        return None
    if os.environ.get(ENV_FLAG) != "1":
        _TRACER = None
        return None
    _TRACER = SpanTracer()
    return _TRACER


def end_worker_task(tracer: SpanTracer | None):
    """Uninstall a :func:`begin_worker_task` tracer; return its records."""
    global _TRACER
    if tracer is None:
        return None
    if _TRACER is tracer:
        _TRACER = None
    return tracer.records


# ----------------------------------------------------------------------
# Export & summary.

def to_trace_events(records, main_pid: int | None = None,
                    lane_names: dict | None = None) -> list[dict]:
    """Chrome/Perfetto ``trace_event`` dicts for *records*.

    Each pid becomes its own process lane (the orchestrator plus one lane
    per worker); timestamps are microseconds since the earliest span in
    the set, so the whole run starts at t=0.  *lane_names* overrides the
    default lane title for specific pids (``{pid: "label"}``) — the
    service's job-trace stitcher uses it to label the client, queue and
    worker lanes.
    """
    records = list(records)
    if not records:
        return []
    epoch = min(r.t0_ns for r in records)
    pids: dict[int, None] = {}
    events: list[dict] = []
    for r in sorted(records, key=lambda r: (r.t0_ns, r.sid)):
        pids.setdefault(r.pid)
        ts = (r.t0_ns - epoch) / 1000.0
        if r.dur_ns is None:
            events.append({
                "ph": "i", "pid": r.pid, "tid": 0, "cat": r.cat,
                "name": r.name, "ts": ts, "s": "p", "args": dict(r.args),
            })
        else:
            events.append({
                "ph": "X", "pid": r.pid, "tid": 0, "cat": r.cat,
                "name": r.name, "ts": ts,
                "dur": max(r.dur_ns / 1000.0, 0.001),
                "args": dict(r.args, sid=r.sid, parent=r.parent),
            })
    meta: list[dict] = []
    for index, pid in enumerate(sorted(pids)):
        if lane_names and pid in lane_names:
            name = lane_names[pid]
            sort_index = list(lane_names).index(pid)
        else:
            name = ("hidisc orchestrator" if main_pid is not None
                    and pid == main_pid else f"hidisc worker {pid}")
            sort_index = 0 if name.endswith("orchestrator") else index + 1
        meta.append({"ph": "M", "pid": pid, "name": "process_name",
                     "args": {"name": name}})
        meta.append({"ph": "M", "pid": pid, "name": "process_sort_index",
                     "args": {"sort_index": sort_index}})
    return meta + events


def write_orchestration_trace(records, path: str | Path,
                              main_pid: int | None = None,
                              lane_names: dict | None = None) -> int:
    """Write *records* as a Perfetto-loadable trace at *path* (see
    :func:`~repro.telemetry.sinks.write_trace_events`).  Returns the number
    of events written."""
    return write_trace_events(
        to_trace_events(records, main_pid=main_pid, lane_names=lane_names),
        path)


def summarize(records) -> dict:
    """Ledger-ready digest of a span set: counts and total milliseconds
    per category, plus the slowest individual spans."""
    records = list(records)
    by_cat: dict[str, dict] = {}
    durated = [r for r in records if r.dur_ns is not None]
    for r in durated:
        entry = by_cat.setdefault(r.cat, {"count": 0, "ms": 0.0})
        entry["count"] += 1
        entry["ms"] += r.dur_ns / 1e6
    for entry in by_cat.values():
        entry["ms"] = round(entry["ms"], 3)
    slowest = sorted(durated, key=lambda r: r.dur_ns, reverse=True)[:5]
    return {
        "count": len(records),
        "by_category": {cat: by_cat[cat] for cat in sorted(by_cat)},
        "slowest": [
            {"name": r.name, "cat": r.cat,
             "ms": round(r.dur_ns / 1e6, 3),
             **({"args": dict(r.args)} if r.args else {})}
            for r in slowest
        ],
    }
