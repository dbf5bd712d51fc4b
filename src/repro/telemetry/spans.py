"""Host-side orchestration span tracer.

The simulated machine reports through structured telemetry; this module
gives the *host* orchestration around it (process-pool grid, compilation
cache, suite checkpoints, retry/backoff, fault campaigns, service jobs)
the same treatment: hierarchical **spans** (context-manager API,
monotonic durations, parent/child nesting, process-safe ids) plus point
**instants**, exported as Perfetto lanes (:func:`lane_events`, written by
:func:`repro.telemetry.sinks.write_perfetto`) so a whole
``hidisc suite --jobs N`` renders as one timeline — the orchestrator and
every worker process on their own lanes.

Zero overhead when off (the default): the module-level :func:`span` /
:func:`instant` helpers check one global and return a shared no-op context
manager, so an untraced run never allocates a record.  :func:`tracing` is
the one way to turn tracing on: ``hidisc --orch-trace``, each task of a
traced process pool and each service job wrap their work in it.  A pool
task's spans travel back to the parent inside the task result (see
:mod:`repro.experiments.parallel`) and are re-merged onto the parent's
timeline with their worker pid intact.

Clocks: durations are measured with ``time.perf_counter_ns`` (monotonic,
immune to wall-clock steps); span *start* stamps use ``time.time_ns`` so
spans from different processes align on one timeline.  Span ids embed the
pid (``"<pid:x>.<seq>"``), so ids from concurrent workers can never
collide.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field


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


@contextlib.contextmanager
def tracing():
    """Record this process's spans on a fresh :class:`SpanTracer` for the
    block, and reinstall whatever tracer was there before when it ends.

    Yields the tracer; its records outlive the block.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer = SpanTracer()
    try:
        yield tracer
    finally:
        _TRACER = previous


def current() -> SpanTracer | None:
    return _TRACER


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
# Export & summary.

def lane_events(records, lanes: dict[int, str]) -> list[tuple]:
    """*records* as events for :func:`~repro.telemetry.sinks.write_perfetto`.

    Each pid is one process lane, titled ``lanes[pid]``; timestamps are
    microseconds since the earliest record, so the set starts at t=0.
    Spans carry their id and parent id in their args.
    """
    records = sorted(records, key=lambda r: (r.t0_ns, r.sid))
    epoch = records[0].t0_ns if records else 0
    events = []
    for r in records:
        ts = (r.t0_ns - epoch) / 1000.0
        if r.dur_ns is None:
            event = {"ph": "i", "cat": r.cat, "name": r.name, "ts": ts,
                     "s": "p", "args": dict(r.args)}
        else:
            event = {"ph": "X", "cat": r.cat, "name": r.name, "ts": ts,
                     "dur": max(r.dur_ns / 1000.0, 0.001),
                     "args": dict(r.args, sid=r.sid, parent=r.parent)}
        events.append((lanes[r.pid], None, event))
    return events


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
