"""Pluggable telemetry sinks, and the one Perfetto trace builder.

A sink receives the structured event stream of one simulation run.  Three
event shapes cover everything the timing models emit:

* **duration** — something occupied a track for ``dur`` cycles (an issued
  instruction on a core lane, a cache fill on the memory lane);
* **instant** — a point event (CMAS fork/drop, branch mispredict);
* **counter** — a sampled value on a named counter track (LDQ/SDQ/SAQ
  occupancy, window occupancy, outstanding misses).

``NullSink`` is the zero-overhead default: the machines test the class
attribute :attr:`Sink.enabled` once at construction and skip every emit
call when it is ``False``, so a run without telemetry never enters this
module.

Every Chrome/Perfetto ``trace_event`` file the package writes (open it at
https://ui.perfetto.dev or in ``chrome://tracing``) comes from
:func:`write_perfetto`: its producers hand it events on *named lanes*
(``ChromeTraceSink`` for ``hidisc trace``,
:func:`repro.telemetry.lifecycle.lifecycle_events`,
:func:`repro.telemetry.spans.lane_events` for orchestration and job
traces), and it numbers the lanes, names them and writes the file through
:func:`write_trace_events`.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable
from pathlib import Path
from typing import IO

#: The process lane of the simulated machine's events.
SIM_PROCESS = "hidisc-sim"


def write_trace_events(events: Iterable[dict], path: str | Path) -> int:
    """Write *events* as a Chrome/Perfetto ``trace_event`` file at *path*.

    One event per line inside the ``traceEvents`` array, so the file is
    both a single valid JSON document and consumable line by line by
    streaming tools.  Returns the number of events written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w") as fh:
        fh.write('{"traceEvents": [')
        for event in events:
            fh.write(("," if count else "") + "\n"
                     + json.dumps(event, separators=(",", ":")))
            count += 1
        fh.write("\n]}\n")
    return count


def write_perfetto(events: Iterable[tuple[str, str | None, dict]],
                   path: str | Path) -> int:
    """Write events on named lanes as one Perfetto trace at *path*.

    Each item is ``(process, thread, event)``, where *event* is a
    ``trace_event`` dict without ``pid`` or ``tid``.  Processes get pids
    in order of first appearance from 0 (which is also their sort
    order), threads get tids from 1, and every lane is named by a
    metadata event.  A ``None`` thread marks a process-scoped event
    (counter tracks, host spans) that carries no ``tid``.  Events keep
    their order.  Returns the number of non-metadata events written.
    """
    events = list(events)
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    for process, thread, _ in events:
        pids.setdefault(process, len(pids))
        if thread is not None:
            tids.setdefault((process, thread), len(tids) + 1)
    meta = []
    for process, pid in pids.items():
        meta.append({"ph": "M", "pid": pid, "name": "process_name",
                     "args": {"name": process}})
        meta.append({"ph": "M", "pid": pid, "name": "process_sort_index",
                     "args": {"sort_index": pid}})
    for (process, thread), tid in tids.items():
        meta.append({"ph": "M", "pid": pids[process], "tid": tid,
                     "name": "thread_name", "args": {"name": thread}})

    def placed(process: str, thread: str | None, event: dict) -> dict:
        head = {"ph": event["ph"], "pid": pids[process]}
        if thread is not None:
            head["tid"] = tids[process, thread]
        return head | event

    write_trace_events(itertools.chain(
        meta, itertools.starmap(placed, events)), path)
    return len(events)


def sim_duration(track: str, name: str, ts: int, dur: int,
                 args: dict | None = None) -> tuple[str, str, dict]:
    """One simulated-machine span on *track*'s lane, in cycles (rendered
    as microseconds) and at least one cycle long."""
    return (SIM_PROCESS, track, {"ph": "X", "cat": "sim", "name": name,
                                 "ts": ts, "dur": max(dur, 1),
                                 "args": args or {}})


class Sink:
    """Interface (and documentation) of a telemetry sink."""

    #: Machines skip event emission entirely when this is False.
    enabled = True

    def duration(self, track: str, name: str, ts: int, dur: int,
                 args: dict | None = None) -> None:
        raise NotImplementedError

    def instant(self, track: str, name: str, ts: int,
                args: dict | None = None) -> None:
        raise NotImplementedError

    def counter(self, track: str, name: str, ts: int, value: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; further emits are undefined."""


class NullSink(Sink):
    """Discard everything (the default)."""

    enabled = False

    def duration(self, track, name, ts, dur, args=None) -> None:
        pass

    def instant(self, track, name, ts, args=None) -> None:
        pass

    def counter(self, track, name, ts, value) -> None:
        pass


#: Shared do-nothing sink; there is never a reason to make another.
NULL_SINK = NullSink()


class MemorySink(Sink):
    """Keep events in memory as tuples (tests and ad-hoc analysis).

    *max_events* bounds growth: once reached, further events are counted
    in :attr:`dropped` instead of stored (the oldest — usually the most
    interesting for a failure near the start — are kept).  A ``--verify``
    run with full telemetry can emit one event per dynamic instruction;
    without a cap that is the run's whole footprint in one list.
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1 (or None)")
        self.max_events = max_events
        self.events: list[tuple] = []
        self.dropped = 0

    def _full(self) -> bool:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return True
        return False

    def duration(self, track, name, ts, dur, args=None) -> None:
        if not self._full():
            self.events.append(("duration", track, name, ts, dur, args))

    def instant(self, track, name, ts, args=None) -> None:
        if not self._full():
            self.events.append(("instant", track, name, ts, args))

    def counter(self, track, name, ts, value) -> None:
        if not self._full():
            self.events.append(("counter", track, name, ts, value))

    def close(self) -> dict:
        """No resources to release; returns the capture summary."""
        return {"events": len(self.events), "dropped": self.dropped}

    def __repr__(self) -> str:
        cap = self.max_events if self.max_events is not None else "unbounded"
        return (f"MemorySink(events={len(self.events)}, cap={cap}, "
                f"dropped={self.dropped})")

    # convenience selectors -------------------------------------------------
    def of_kind(self, kind: str) -> list[tuple]:
        return [e for e in self.events if e[0] == kind]

    def tracks(self) -> set[str]:
        return {e[1] for e in self.events}


class JsonlSink(Sink):
    """One JSON object per line; trivially greppable / loadable with pandas."""

    def __init__(self, path: str | Path | IO[str]) -> None:
        if hasattr(path, "write"):
            self._fh: IO[str] = path  # type: ignore[assignment]
            self._owns = False
            self.path = None
        else:
            self.path = Path(path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")
            self._owns = True
        self.event_count = 0

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.event_count += 1

    def duration(self, track, name, ts, dur, args=None) -> None:
        rec = {"ev": "duration", "track": track, "name": name,
               "ts": ts, "dur": dur}
        if args:
            rec["args"] = args
        self._write(rec)

    def instant(self, track, name, ts, args=None) -> None:
        rec = {"ev": "instant", "track": track, "name": name, "ts": ts}
        if args:
            rec["args"] = args
        self._write(rec)

    def counter(self, track, name, ts, value) -> None:
        self._write({"ev": "counter", "track": track, "name": name,
                     "ts": ts, "value": value})

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class ChromeTraceSink(Sink):
    """A run's events as a Chrome/Perfetto trace (see :func:`write_perfetto`).

    Every track is a thread lane of the one ``hidisc-sim`` process, and
    counters are process-scoped ``ph: "C"`` tracks.  One simulated cycle
    displays as one microsecond.  :meth:`close` writes the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._events: list[tuple[str, str | None, dict]] = []

    @property
    def event_count(self) -> int:
        return len(self._events)

    def duration(self, track, name, ts, dur, args=None) -> None:
        self._events.append(sim_duration(track, name, ts, dur, args))

    def instant(self, track, name, ts, args=None) -> None:
        self._events.append((SIM_PROCESS, track, {
            "ph": "i", "cat": "sim", "name": name, "ts": ts, "s": "t",
            "args": args or {},
        }))

    def counter(self, track, name, ts, value) -> None:
        # Counter tracks are identified by (pid, name); `track` becomes a
        # prefix so e.g. "queues/LDQ" groups next to "queues/SDQ".
        self._events.append((SIM_PROCESS, None, {
            "ph": "C", "cat": "sim",
            "name": f"{track}/{name}" if track else name,
            "ts": ts, "args": {"value": value},
        }))

    def close(self) -> None:
        write_perfetto(self._events, self.path)
