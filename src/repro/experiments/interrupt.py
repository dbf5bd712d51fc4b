"""Graceful SIGINT/SIGTERM handling for long experiment runs.

A full-scale suite is hours of simulation.  Before this module, an
interrupt killed the process wherever it happened to be — possibly
mid-``pickle.dump`` of a checkpoint cell or mid-append of a ledger record.
:class:`GracefulInterrupt` turns the *first* signal into a deferred stop:
the handler only sets a flag, and the experiment loops call :func:`poll`
at cell boundaries, which raises :class:`~repro.errors.InterruptedRun`
at the next safe point.  Completed cells are already checkpointed
(:mod:`repro.experiments.checkpoint`), so the CLI can append a ledger
record with ``outcome: "interrupted"`` and exit cleanly; ``--resume``
continues from exactly where the run stopped.  A *second* signal aborts
hard (the default handler is restored and re-raised), so a wedged run can
still be killed.

The service worker processes (:mod:`repro.service.worker`) reuse the same
context manager for their drain path: SIGTERM → finish the in-flight
cell → checkpoint → requeue the job → exit 0.

Signal handlers are process-global and only installable from the main
thread; :class:`GracefulInterrupt` degrades to an inert no-op anywhere
else (worker threads, embedded callers), so library code can call
:func:`poll` unconditionally.
"""

from __future__ import annotations

import signal
import sys
import threading

from ..errors import InterruptedRun

#: The innermost active handler (process-global, like signal disposition).
_current: "GracefulInterrupt | None" = None

#: Signals a graceful handler intercepts.
_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class GracefulInterrupt:
    """Context manager deferring SIGINT/SIGTERM to the next :func:`poll`.

    ``enabled=False`` (or entering from a non-main thread) makes the
    context a no-op, so callers can wrap code unconditionally.  *stream*
    receives the one-line "stopping at the next cell" note (default
    ``sys.stderr``).
    """

    def __init__(self, enabled: bool = True, stream=None) -> None:
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        #: name of the first signal seen ("SIGINT"/"SIGTERM"), or None.
        self.triggered: str | None = None
        self._previous: dict[int, object] = {}
        self._installed = False

    # ------------------------------------------------------------------
    def _handle(self, signum, frame) -> None:
        name = signal.Signals(signum).name
        if self.triggered is not None:
            # Second signal: abort hard through the original disposition.
            self._restore()
            raise KeyboardInterrupt(name)
        self.triggered = name
        try:
            self.stream.write(
                f"\n{name} received — finishing the in-flight cell, "
                f"checkpointing, and stopping (signal again to abort "
                f"hard)\n"
            )
            self.stream.flush()
        except (OSError, ValueError):
            pass

    def poll(self) -> None:
        """Raise :class:`InterruptedRun` if a signal has been seen."""
        if self.triggered is not None:
            raise InterruptedRun(self.triggered)

    # ------------------------------------------------------------------
    def __enter__(self) -> "GracefulInterrupt":
        global _current
        if not self.enabled or \
                threading.current_thread() is not threading.main_thread():
            return self
        for signum in _SIGNALS:
            self._previous[signum] = signal.getsignal(signum)
            signal.signal(signum, self._handle)
        self._installed = True
        _current = self
        return self

    def _restore(self) -> None:
        global _current
        if not self._installed:
            return
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError, TypeError):
                pass
        self._installed = False
        if _current is self:
            _current = None

    def __exit__(self, *exc) -> None:
        self._restore()


def current() -> GracefulInterrupt | None:
    """The active graceful-interrupt context, if any."""
    return _current


def poll() -> None:
    """Raise :class:`InterruptedRun` if the active context saw a signal.

    Safe to call from anywhere — a no-op when no graceful handler is
    installed, so library loops need no conditional.
    """
    if _current is not None:
        _current.poll()


def ignore_in_worker() -> None:
    """In a pool worker process: leave the stop decision to the parent.

    A forked worker inherits the parent's handlers, so a terminal's
    Ctrl-C, which signals the whole process group, printed the notice
    once per worker.  Workers ignore SIGINT (the parent finishes their
    in-flight cells, and on a second signal terminates them) and take
    SIGTERM's default action, so that terminating a worker kills it.
    """
    global _current
    _current = None
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
