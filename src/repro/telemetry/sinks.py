"""Pluggable telemetry sinks.

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
module.  ``ChromeTraceSink`` writes the Chrome/Perfetto ``trace_event``
JSON format (open the file at https://ui.perfetto.dev or in
``chrome://tracing``; one simulated cycle is rendered as one microsecond)
through :func:`write_trace_events`, the one writer of such files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO


def write_trace_events(events: list[dict], path: str | Path) -> int:
    """Write *events* as a Chrome/Perfetto ``trace_event`` file at *path*.

    One event per line inside the ``traceEvents`` array, so the file is
    both a single valid JSON document and consumable line by line by
    streaming tools.  Returns the number of events written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write('{"traceEvents": [\n')
        for index, event in enumerate(events):
            comma = "," if index + 1 < len(events) else ""
            fh.write(json.dumps(event, separators=(",", ":")) + comma + "\n")
        fh.write("]}\n")
    return len(events)


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
    """Chrome/Perfetto ``trace_event`` JSON (the "JSON Array Format").

    Tracks map to threads of one process; counters become ``ph: "C"``
    counter tracks.  Timestamps are in microseconds in the format, so one
    simulated cycle displays as one microsecond.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._events: list[dict] = []
        self._tids: dict[str, int] = {}

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
        return tid

    @property
    def event_count(self) -> int:
        return len(self._events)

    def duration(self, track, name, ts, dur, args=None) -> None:
        self._events.append({
            "ph": "X", "pid": 0, "tid": self._tid(track), "cat": "sim",
            "name": name, "ts": ts, "dur": max(dur, 1),
            "args": args or {},
        })

    def instant(self, track, name, ts, args=None) -> None:
        self._events.append({
            "ph": "i", "pid": 0, "tid": self._tid(track), "cat": "sim",
            "name": name, "ts": ts, "s": "t", "args": args or {},
        })

    def counter(self, track, name, ts, value) -> None:
        # Counter tracks are identified by (pid, name); `track` becomes a
        # prefix so e.g. "queues/LDQ" groups next to "queues/SDQ".
        self._events.append({
            "ph": "C", "pid": 0, "cat": "sim",
            "name": f"{track}/{name}" if track else name,
            "ts": ts, "args": {"value": value},
        })

    def close(self) -> None:
        meta = [
            {"ph": "M", "pid": 0, "name": "process_name",
             "args": {"name": "hidisc-sim"}},
        ]
        for track, tid in sorted(self._tids.items(), key=lambda kv: kv[1]):
            meta.append({"ph": "M", "pid": 0, "tid": tid,
                         "name": "thread_name", "args": {"name": track}})
        write_trace_events(meta + self._events, self.path)
