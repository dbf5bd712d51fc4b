"""Structured deadlock/livelock detection for the timing machine.

The simulation loop used to paper over a zero-progress cycle by nudging the
clock one cycle and counting on the ``max_cycles`` guard to eventually turn
a genuine queue-plan deadlock into a generic error two billion cycles
later.  The :class:`ProgressWatchdog` replaces that:

* **Structural deadlock** — a cycle makes no progress *and* no wake-up
  event exists anywhere (nothing in flight, no future-ready instruction,
  no pending branch resolution).  By construction nothing can ever change
  again, so the watchdog raises immediately.  The "no event" probe is the
  machine's completion calendar (``Machine._skip_to_next_event``) — every
  in-flight completion is bucketed there, so the check is O(1) instead of
  a scan over ``complete_at``; an injected *dropped* completion never
  enters the calendar, which is exactly how a lost queue transfer starves
  its consumers into this error.
* **Livelock safety net** — events keep firing but no instruction has
  dispatched/issued/committed for ``window`` cycles (default
  ``MachineConfig.watchdog_window``).

Either way the raised :class:`~repro.errors.DeadlockError` carries a
forensic dump: an occupancy snapshot taken through the telemetry sampler,
every core's window-head (with per-dependence completion status), queue
occupancy, outstanding misses and any injected faults — enough to diagnose
the stuck transfer without re-running the simulation.
"""

from __future__ import annotations

from ..errors import DeadlockError
from ..telemetry import spans
from ..telemetry.sampler import take_sample


def forensic_dump(machine, now: int) -> dict:
    """Collect everything needed to diagnose a stuck machine."""
    complete_at = machine.complete_at
    cores: dict[str, dict] = {}
    for core in machine.cores:
        entry = None
        if core.window:
            head = core.window[0]
            entry = {
                "gid": head.gid,
                "pos": head.pos,
                "pc": machine.trace.pc[head.pos],
                "op": head.d.mnemonic,
                "issued": head.issued,
                "min_ready": head.min_ready,
                "deps": [
                    {"gid": dep, "complete_at": complete_at[dep]}
                    for dep in head.deps
                ],
            }
        cores[core.name] = {
            "window": len(core.window),
            "instr_queue": len(core.instr_queue),
            "committed": core.stats.committed,
            "head": entry,
        }
    faults = machine.faults
    return {
        "cycle": now,
        "benchmark": machine.benchmark,
        "mode": machine.mode,
        "fetch_pos": machine._fetch_pos,
        "trace_length": len(machine.trace),
        "waiting_branch": machine._waiting_branch,
        "occupancy": take_sample(machine, now).as_dict(),
        "outstanding_misses": machine.hierarchy.outstanding_misses(now),
        "cores": cores,
        "faults_injected": faults.summary() if faults is not None else {},
        "dropped_transfer_gids": (
            list(faults.dropped_gids) if faults is not None else []
        ),
    }


def _render(dump: dict, reason: str) -> str:
    """Actionable multi-line message summarizing the dump."""
    lines = [
        f"{dump['benchmark'] or '<unnamed>'} on {dump['mode']} deadlocked "
        f"at cycle {dump['cycle']}: {reason}",
        f"  fetch {dump['fetch_pos']}/{dump['trace_length']}, "
        f"queues {dump['occupancy']['queues']}, "
        f"{dump['outstanding_misses']} misses in flight",
    ]
    for name, core in dump["cores"].items():
        head = core["head"]
        if head is None:
            lines.append(
                f"  {name}: window empty, instr queue {core['instr_queue']}"
            )
            continue
        blocked = [d for d in head["deps"] if d["complete_at"] is None]
        why = (
            f"waiting on gids {[d['gid'] for d in blocked]} "
            f"(never completing)" if blocked and not head["issued"]
            else "issued but its completion never lands"
            if head["issued"] else "waiting on in-flight producers"
        )
        lines.append(
            f"  {name}: head {head['op']} gid {head['gid']} "
            f"(pc {head['pc']}) {why}; window {core['window']}, "
            f"instr queue {core['instr_queue']}"
        )
    if dump["faults_injected"]:
        lines.append(f"  injected faults: {dump['faults_injected']}")
    if dump["dropped_transfer_gids"]:
        lines.append(
            f"  dropped queue transfers: gids "
            f"{dump['dropped_transfer_gids']}"
        )
    else:
        lines.append(
            "  no faults were injected — this is a queue-plan or "
            "slicing bug; inspect the dump's per-core heads"
        )
    return "\n".join(lines)


class ProgressWatchdog:
    """Tracks forward progress of one timing run; raises on starvation."""

    def __init__(self, window: int = 10_000) -> None:
        if window < 1:
            raise ValueError("watchdog window must be >= 1 cycle")
        self.window = window
        self._last_progress = 0

    def note_progress(self, now: int) -> None:
        self._last_progress = now

    def check_stall(self, machine, now: int, next_event: int | None) -> None:
        """Called on every zero-progress cycle.

        *next_event* is the next cycle at which anything could happen, or
        ``None`` when no wake-up event exists — a structural deadlock.
        """
        if next_event is None:
            raise self.deadlock(
                machine, now,
                "no wake-up events in flight — nothing can ever progress",
            )
        if now - self._last_progress >= self.window:
            raise self.deadlock(
                machine, now,
                f"no instruction dispatched, issued or committed for "
                f"{now - self._last_progress} cycles "
                f"(watchdog window {self.window})",
            )

    def deadlock(self, machine, now: int, reason: str) -> DeadlockError:
        """Build (not raise) the forensic :class:`DeadlockError`."""
        dump = forensic_dump(machine, now)
        dump["reason"] = reason
        spans.instant("deadlock", cat="watchdog",
                      benchmark=machine.benchmark, mode=machine.mode,
                      cycle=now, reason=reason)
        return DeadlockError(_render(dump, reason), dump=dump)
