"""Per-dynamic-instruction lifecycle tracing.

Aggregate telemetry (CPI stacks, occupancy samples) says *how many* cycles
went where; this module records *which* cycles: for every committed
dynamic instruction, the cycle it was fetched, dispatched into the window,
became dependence-free (ready), issued, completed and retired.  That is the
raw material of every decoupled-architecture analysis — AP/CP slack, queue
wait intervals, and the critical-path question "which loads does the AP
runahead actually hide?".

Capture rides the event-driven scheduler's existing stage transitions (see
:mod:`repro.sim.core` and :mod:`repro.sim.decoupled`) behind the same
latched-flag guards as the rest of the telemetry package: a run without a
:class:`LifecycleCollector` pays one ``is None`` test per transition, and a
run with one only appends to plain-slot records — it never influences
scheduling, so capture is cycle-neutral by construction (asserted by the
tests against the sched-parity fixtures).

Storage is a bounded ring buffer (``max_records``; oldest committed records
drop first, counted in :attr:`LifecycleCollector.dropped`) and/or a
streaming JSONL sink for runs too long to hold in memory.

Consumers:

* :func:`repro.telemetry.konata.write_konata` — pipeline-viewer export;
* :func:`lifecycle_events` — per-instruction Chrome/Perfetto spans;
* :func:`critical_path_by_pc` / :func:`render_critical_path` — the
  commit-latency decomposition, summarized per static instruction.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from ..isa.disasm import disassemble_instruction
from ..utils import format_table
from .sinks import sim_duration

#: Commit-latency components (each committed instruction's
#: ``commit - fetch`` interval decomposes exactly into these).
LIFECYCLE_COMPONENTS: tuple[str, ...] = (
    "frontend",        # fetched, waiting for a window slot (dispatch)
    "data_wait",       # dispatched, waiting on register/memory producers
    "ldq_wait",        # dispatched, waiting on an AP push into the LDQ
    "sdq_wait",        # store waiting on its SDQ data from the CP
    "queue_full_wait", # push blocked on architectural-queue capacity
    "select_wait",     # dependence-free, waiting for an FU/issue slot
    "execute",         # in a non-memory functional unit
    "mem_l1",          # memory access satisfied by L1 / store buffer
    "mem_l2",          # memory access filled from L2
    "mem_mem",         # memory access filled from main memory
    "commit_wait",     # complete, waiting behind the in-order window head
)

_WAIT_BY_CLASS = {
    "ldq_empty": "ldq_wait",
    "sdq_empty": "sdq_wait",
    "queue_full": "queue_full_wait",
}

_MEM_KEY = {"l1": "mem_l1", "l2": "mem_l2", "mem": "mem_mem"}


class LifecycleRecord:
    """Stage cycles of one dynamic instruction (filled in as it flows)."""

    __slots__ = ("gid", "pos", "core", "fetch", "dispatch", "ready",
                 "issue", "complete", "commit", "mem_latency")

    def __init__(self, gid: int, pos: int, core: str, fetch: int):
        self.gid = gid
        self.pos = pos
        self.core = core
        self.fetch = fetch
        self.dispatch = -1
        self.ready = -1
        self.issue = -1
        self.complete = -1
        self.commit = -1
        #: raw access latency for memory operations (0 for non-memory);
        #: classified into an L1/L2/memory level at export time.
        self.mem_latency = 0


class LifecycleCollector:
    """Receives stage-transition hooks from one machine run.

    One collector observes exactly one run (like a
    :class:`~repro.telemetry.sampler.Sampler`); :meth:`bind` is called by
    the machine at construction and refuses a second run.  Committed
    records accumulate in :attr:`records` (a ring buffer when
    *max_records* is set — the newest window is kept and
    :attr:`dropped` counts evictions) and stream to *jsonl_path* as one
    JSON object per line when given.
    """

    def __init__(self, max_records: int | None = None,
                 jsonl_path: str | Path | None = None) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1 (or None)")
        self.max_records = max_records
        self.records: deque[LifecycleRecord] = deque(maxlen=max_records)
        self.committed = 0
        self._inflight: dict[int, LifecycleRecord] = {}
        self._trace = None
        self._decoded = None
        self._lat_l1 = 1
        self._lat_l1l2 = 13
        self.benchmark = ""
        self.mode = ""
        self._jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._fh = None
        self.streamed = 0
        if self._jsonl_path is not None:
            self._jsonl_path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self._jsonl_path.open("w")

    @property
    def dropped(self) -> int:
        """Committed records evicted by the ring cap."""
        return self.committed - len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LifecycleCollector(records={len(self.records)}, "
                f"committed={self.committed}, dropped={self.dropped}, "
                f"inflight={len(self._inflight)})")

    # ------------------------------------------------------------------
    # Machine-facing hooks (hot path when enabled; see repro.sim.core).
    # ------------------------------------------------------------------
    def bind(self, machine) -> None:
        """Latch the run's static context (called once by the machine)."""
        if self._trace is not None:
            raise ValueError(
                "a LifecycleCollector observes exactly one run; "
                "create a fresh collector per machine"
            )
        self._trace = machine.trace
        self._decoded = machine.decoded
        l1 = machine.hierarchy.l1.config.latency
        self._lat_l1 = l1
        self._lat_l1l2 = l1 + machine.hierarchy.l2.config.latency
        self.benchmark = machine.benchmark
        self.mode = machine.mode

    def on_fetch(self, gid: int, pos: int, core: str, now: int) -> None:
        self._inflight[gid] = LifecycleRecord(gid, pos, core, now)

    def on_dispatch(self, gid: int, now: int, ready: bool) -> None:
        rec = self._inflight.get(gid)
        if rec is not None:
            rec.dispatch = now
            if ready:
                rec.ready = now

    def on_ready(self, gid: int, now: int) -> None:
        rec = self._inflight.get(gid)
        if rec is not None and rec.ready < 0:
            rec.ready = now

    def on_issue(self, gid: int, now: int, latency: int,
                 is_mem: bool) -> None:
        rec = self._inflight.get(gid)
        if rec is not None:
            rec.issue = now
            rec.complete = now + latency
            if is_mem:
                rec.mem_latency = latency

    def on_commit(self, gid: int, now: int) -> None:
        rec = self._inflight.pop(gid, None)
        if rec is None:
            return
        rec.commit = now
        self.committed += 1
        self.records.append(rec)
        if self._fh is not None:
            self._fh.write(json.dumps(self.row(rec),
                                      separators=(",", ":")) + "\n")
            self.streamed += 1

    def close(self) -> dict:
        """Flush the JSONL stream; returns a capture summary."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return {"committed": self.committed, "kept": len(self.records),
                "dropped": self.dropped, "streamed": self.streamed}

    # ------------------------------------------------------------------
    # Export: resolved row dicts (the shape every consumer reads).
    # ------------------------------------------------------------------
    def mem_level(self, rec: LifecycleRecord) -> str:
        """'' for non-memory; else the level that served the access."""
        lat = rec.mem_latency
        if not lat:
            return ""
        if lat <= self._lat_l1:
            return "l1"
        if lat <= self._lat_l1l2:
            return "l2"
        return "mem"

    def row(self, rec: LifecycleRecord) -> dict:
        """One record as a plain JSON-ready dict (pc and disasm resolved)."""
        pc = self._trace.pc[rec.pos]
        d = self._decoded[pc]
        return {
            "gid": rec.gid, "pos": rec.pos, "pc": pc, "core": rec.core,
            "asm": disassemble_instruction(d.instr),
            "fetch": rec.fetch, "dispatch": rec.dispatch,
            "ready": rec.ready, "issue": rec.issue,
            "complete": rec.complete, "commit": rec.commit,
            "mem": self.mem_level(rec), "class": d.block_class,
        }

    def rows(self) -> list[dict]:
        """All retained records, in commit order."""
        return [self.row(rec) for rec in self.records]


# ----------------------------------------------------------------------
# Critical-path attribution.
# ----------------------------------------------------------------------
def breakdown_row(row: dict) -> dict[str, int]:
    """Decompose one committed row's ``commit - fetch`` latency.

    Returns a dict over :data:`LIFECYCLE_COMPONENTS` whose values sum
    exactly to ``commit - fetch``: front-end wait, producer wait (split by
    the instruction's static stall class into data/LDQ/SDQ/queue-full),
    FU-select wait, execution or memory latency (by serving level), and
    the in-order commit stall behind the window head.
    """
    out = dict.fromkeys(LIFECYCLE_COMPONENTS, 0)
    out["frontend"] = row["dispatch"] - row["fetch"]
    wait_key = _WAIT_BY_CLASS.get(row.get("class"), "data_wait")
    out[wait_key] = row["ready"] - row["dispatch"]
    out["select_wait"] = row["issue"] - row["ready"]
    latency = row["complete"] - row["issue"]
    mem = row.get("mem")
    out[_MEM_KEY[mem] if mem else "execute"] = latency
    out["commit_wait"] = row["commit"] - row["complete"]
    return out


def critical_path_by_pc(rows: list[dict]) -> list[dict]:
    """Aggregate :func:`breakdown_row` per (core, static pc).

    Returns one summary dict per static instruction per core — count,
    per-component cycle totals, and the grand total — sorted by total
    descending, so the head of the list is where commit latency
    concentrates (and, on a HiDISC run, where to look for loads the AP
    runahead does or does not hide).
    """
    agg: dict[tuple[str, int], dict] = {}
    for row in rows:
        key = (row["core"], row["pc"])
        entry = agg.get(key)
        if entry is None:
            entry = agg[key] = {
                "core": row["core"], "pc": row["pc"], "asm": row["asm"],
                "count": 0, "total": 0,
                **dict.fromkeys(LIFECYCLE_COMPONENTS, 0),
            }
        parts = breakdown_row(row)
        entry["count"] += 1
        for comp, cycles in parts.items():
            entry[comp] += cycles
        entry["total"] += row["commit"] - row["fetch"]
    return sorted(agg.values(), key=lambda e: (-e["total"], e["core"],
                                               e["pc"]))


def render_critical_path(summary: list[dict], limit: int = 12) -> str:
    """ASCII table of the top-*limit* static instructions by total cycles."""
    if not summary:
        return "(no lifecycle records — run with a LifecycleCollector)"
    headers = ["core", "pc", "instruction", "n", "frontend", "data",
               "ldq", "sdq", "qfull", "select", "exec", "mem", "commit",
               "total"]
    rows: list[list[object]] = []
    for e in summary[:limit]:
        rows.append([
            e["core"], e["pc"], e["asm"], e["count"], e["frontend"],
            e["data_wait"], e["ldq_wait"], e["sdq_wait"],
            e["queue_full_wait"], e["select_wait"], e["execute"],
            e["mem_l1"] + e["mem_l2"] + e["mem_mem"], e["commit_wait"],
            e["total"],
        ])
    return format_table(headers, rows)


# ----------------------------------------------------------------------
# Chrome trace export (per-instruction spans).
# ----------------------------------------------------------------------
def lifecycle_events(rows: list[dict]) -> list[tuple[str, str, dict]]:
    """One fetch-to-commit span per committed instruction, for
    :func:`~repro.telemetry.sinks.write_perfetto`.

    Each span lands on a per-core ``<core> pipeline`` lane and carries
    the full stage timestamps plus the non-zero breakdown components in
    its args, so Perfetto's slice pane shows exactly where that dynamic
    instruction's latency went.
    """
    events = []
    for row in rows:
        args = {k: row[k] for k in ("gid", "pos", "pc", "fetch", "dispatch",
                                    "ready", "issue", "complete", "commit")}
        args["breakdown"] = {comp: cycles
                             for comp, cycles in breakdown_row(row).items()
                             if cycles}
        events.append(sim_duration(f"{row['core']} pipeline", row["asm"],
                                   row["fetch"], row["commit"] - row["fetch"],
                                   args))
    return events
