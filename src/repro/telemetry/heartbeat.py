"""Live progress heartbeat for long simulations.

An opt-in status stream: simulated cycle, running IPC, LDQ/SDQ/SAQ
occupancy, and host throughput (simulated cycles per wall-clock second).
Piggybacks on the run loop's existing sampler check — when disabled (the
default) the loop pays nothing new.

On a TTY the heartbeat renders as a single in-place status line
(``\\r``-rewritten every beat); on anything else (pipes, files, test
streams) it falls back to one line per beat.  Either way the run loop and
:meth:`repro.telemetry.Telemetry.close` call :meth:`Heartbeat.finish` on
completion *and* on exceptions, which clears any in-progress status line
so subsequent output (results, tracebacks) never splices into it.
"""

from __future__ import annotations

import sys
import time


class StatusLine:
    """A single refreshing status line with the heartbeat's TTY contract.

    On a TTY (``live=True``) each :meth:`update` rewrites the line in
    place with ``\\r``, padding over any longer previous rendering; on
    anything else each update is one plain newline-terminated line, so
    control sequences never reach a log file or pipe.  :meth:`finish`
    clears an in-progress line (idempotent), leaving the cursor at
    column 0 so subsequent output never splices into stale status text.

    Extracted from :class:`Heartbeat` so other refreshers (``hidisc jobs
    top``) share the exact same rendering contract.
    """

    def __init__(self, stream=None, live: bool | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            isatty = getattr(self.stream, "isatty", None)
            live = bool(isatty and isatty())
        self.live = live
        #: width of the currently-open ``\r`` status line (0 = none open).
        self._open_width = 0

    def update(self, text: str) -> None:
        if self.live:
            pad = max(self._open_width - len(text), 0)
            self.stream.write("\r" + text + " " * pad)
            self._open_width = len(text)
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def finish(self) -> None:
        if not self._open_width:
            return
        self.stream.write("\r" + " " * self._open_width + "\r")
        self.stream.flush()
        self._open_width = 0


class Heartbeat:
    """Emits a status line every *interval* simulated cycles.

    Writes to *stream* (default ``sys.stderr``, so heartbeats never
    corrupt ``--json`` output on stdout).  Follows the Sampler's
    ``next_at`` contract: the run loop checks ``now >= next_at`` and calls
    :meth:`emit`, which does the measuring and schedules the next beat.

    *live* selects the in-place single-line rendering; ``None`` (default)
    auto-detects it from ``stream.isatty()``.
    """

    def __init__(self, interval: int, stream=None,
                 live: bool | None = None) -> None:
        if interval < 1:
            raise ValueError("heartbeat interval must be >= 1 cycle")
        self.interval = interval
        self._line = StatusLine(stream, live)
        self.next_at = interval
        self.emitted = 0
        self._last_cycle = 0
        self._last_time = time.perf_counter()

    def snapshot(self, machine, now: int) -> dict:
        """Measure *machine* at cycle *now* as a JSON-ready dict.

        The fields :meth:`emit` renders, under the names the status line
        prints them with.  Does not advance ``next_at`` or write anything.
        """
        host_now = time.perf_counter()
        dt = host_now - self._last_time
        cps = (now - self._last_cycle) / dt if dt > 0 else 0.0
        committed = sum(core.stats.committed for core in machine.cores)
        occ = machine.queue_occupancy
        return {
            "cycle": now,
            "ipc": committed / now if now else 0.0,
            "ldq": occ["LDQ"],
            "sdq": occ["SDQ"],
            "saq": occ["SAQ"],
            "host_cps": cps,
        }

    def emit(self, machine, now: int) -> None:
        """Measure *machine* at cycle *now* and write one status line.

        On a non-TTY stream (CI logs, pipes, the service's captured
        worker stderr) the line is plain ``text + "\\n"`` — no ``\\r``
        control sequences ever reach a log file.
        """
        host_now = time.perf_counter()
        snap = self.snapshot(machine, now)
        text = (
            f"[hb] cycle={snap['cycle']} ipc={snap['ipc']:.3f} "
            f"ldq={snap['ldq']} sdq={snap['sdq']} saq={snap['saq']} "
            f"host_cps={snap['host_cps']:,.0f}"
        )
        self._line.update(text)
        self.emitted += 1
        self._last_cycle = now
        self._last_time = host_now
        self.next_at = now + self.interval

    def finish(self) -> None:
        """Clear/terminate an in-progress status line (idempotent).

        Called by the run loop on completion and on exceptions, and by
        ``Telemetry.close()`` — after it, the cursor sits at column 0 on a
        blank line, so whatever prints next cannot splice into a stale
        heartbeat.
        """
        self._line.finish()
