"""Persistent run ledger: one append-only JSONL record per run.

Every experiment invocation (suite, figures, stats/trace/lifecycle,
faults) appends one line to ``<cache-dir>/ledger.jsonl`` describing what
ran and how it behaved: command and argv, config fingerprint, package
version and git commit, outcome, wall-clock, the merged metrics snapshot
(:mod:`repro.telemetry.metrics`) and — when orchestration tracing was on —
the span summary (:mod:`repro.telemetry.spans`).  ``hidisc runs
list|show|report`` renders the ledger; a future ``hidisc serve`` streams
the same records as its wire format.

Durability model mirrors the run cache's pragmatism: each record is one
locked append (:func:`repro.store.locked_append` — the simulation
service makes concurrent writers the norm), an unwritable ledger
degrades to a no-op, and unparsable lines are skipped on read
(:func:`repro.store.read_jsonl`) — the ledger observes runs, it is
never a correctness dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path

from .. import store
from ..config import MachineConfig
from .cache import config_fingerprint

#: Ledger file name under the cache directory.
LEDGER_FILENAME = "ledger.jsonl"


def ledger_path(cache_root: str | Path) -> Path:
    return Path(cache_root) / LEDGER_FILENAME


def new_run_id() -> str:
    """Process-safe, time-sortable run identifier."""
    return f"{time.time_ns():x}-{os.getpid():x}"


def _git_commit() -> str | None:
    """Best-effort short commit hash of the working tree (None outside a
    repository or without git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def build_record(*, run_id: str, command: str, argv: list[str],
                 outcome: str, exit_code: int,
                 elapsed_seconds: float, config: MachineConfig,
                 metrics_snapshot: dict, spans_summary: dict | None = None,
                 extra: dict | None = None) -> dict:
    """Assemble one ledger record (pure; :meth:`RunLedger.append` persists)."""
    from .. import __version__

    counters = metrics_snapshot.get("counters", {})
    cells = counters.get("cells_completed", 0) + \
        counters.get("cells_resumed", 0)
    record = {
        "run_id": run_id,
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "git": _git_commit(),
        "config": hashlib.sha256(
            config_fingerprint(config).encode("utf-8")).hexdigest()[:16],
        "outcome": outcome,
        "exit_code": exit_code,
        "elapsed_seconds": round(elapsed_seconds, 3),
        "cells": cells,
        "cells_per_second": round(cells / elapsed_seconds, 3)
        if elapsed_seconds > 0 else 0.0,
        "metrics": metrics_snapshot,
        "spans": spans_summary or {},
    }
    if extra:
        record.update(extra)
    return record


class RunLedger:
    """Append-only JSONL store of run records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: dict) -> bool:
        """Persist one record; best-effort (False when unwritable).

        Serialized against concurrent appenders (service workers, parallel
        CLI invocations sharing a cache dir) via a locked append.
        """
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            store.locked_append(self.path, line)
        except OSError:
            return False
        return True

    def entries(self, limit: int | None = None) -> list[dict]:
        """Records in append (chronological) order, newest last.

        Unparsable lines (torn writes, manual edits) are skipped; *limit*
        keeps only the newest N.
        """
        records = [r for r in store.read_jsonl(self.path) if "run_id" in r]
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def find(self, run_id_prefix: str) -> dict | None:
        """Newest record whose run_id starts with *run_id_prefix*."""
        for record in reversed(self.entries()):
            if str(record.get("run_id", "")).startswith(run_id_prefix):
                return record
        return None

    def baseline_for(self, record: dict) -> dict | None:
        """The most recent *earlier* record of the same command — the
        natural comparison point for regression reports."""
        candidates = self.entries()
        try:
            position = next(
                i for i, r in enumerate(candidates)
                if r.get("run_id") == record.get("run_id")
            )
        except StopIteration:
            position = len(candidates)
        for other in reversed(candidates[:position]):
            if other.get("command") == record.get("command"):
                return other
        return None


# ----------------------------------------------------------------------
# Rendering (hidisc runs list|show|report).

def _hit_rate(record: dict) -> float | None:
    counters = record.get("metrics", {}).get("counters", {})
    hits = counters.get("cache_hits", 0)
    misses = counters.get("cache_misses", 0)
    if hits + misses == 0:
        return None
    return hits / (hits + misses)


def render_runs_list(records: list[dict]) -> str:
    """One line per run, newest last (like a shell history)."""
    if not records:
        return "ledger is empty — run any experiment command to record one"
    header = (f"{'run id':14s} {'when (UTC)':20s} {'command':10s} "
              f"{'outcome':14s} {'elapsed':>9s} {'cells':>6s} "
              f"{'cache':>6s}")
    lines = [header, "-" * len(header)]
    for record in records:
        rate = _hit_rate(record)
        lines.append(
            f"{str(record.get('run_id', '?'))[:14]:14s} "
            f"{str(record.get('time', '?'))[:19]:20s} "
            f"{str(record.get('command', '?')):10s} "
            f"{str(record.get('outcome', '?'))[:14]:14s} "
            f"{record.get('elapsed_seconds', 0.0):8.1f}s "
            f"{record.get('cells', 0):6d} "
            + (f"{rate * 100:5.0f}%" if rate is not None else "     -")
        )
    return "\n".join(lines)


def render_run_report(record: dict) -> str:
    """Full per-run report: identity, metrics, span summary."""
    lines = [
        f"run {record.get('run_id')} — hidisc {record.get('command')} "
        f"({record.get('outcome')}, exit {record.get('exit_code')})",
        f"  at {record.get('time')}  version {record.get('version')}"
        + (f"  commit {record['git']}" if record.get("git") else "")
        + f"  config {record.get('config')}",
        f"  argv: {' '.join(record.get('argv', [])) or '(none)'}",
        f"  elapsed {record.get('elapsed_seconds', 0.0):.1f}s, "
        f"{record.get('cells', 0)} cells "
        f"({record.get('cells_per_second', 0.0):.2f} cells/s)",
    ]
    if record.get("job_id"):
        # Service-executed suites carry their job identity (see
        # repro.service.worker._append_ledger).
        lines.append(
            f"  service job {record['job_id']} on "
            f"{record.get('worker', 'unknown worker')} "
            f"(attempts {record.get('attempts', 0)}, "
            f"{record.get('cells_done', 0)} cells reported)")
    metrics_snapshot = record.get("metrics", {})
    counters = metrics_snapshot.get("counters", {})
    if counters:
        lines.append("  counters:")
        for key in sorted(counters):
            lines.append(f"    {key:32s} {counters[key]:>12g}")
    gauges = metrics_snapshot.get("gauges", {})
    for key in sorted(gauges):
        lines.append(f"  gauge {key} = {gauges[key]:g}")
    for key, hist in sorted(metrics_snapshot.get("histograms", {}).items()):
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        lines.append(
            f"  histogram {key}: n={hist['count']} mean={mean:.4g} "
            f"min={hist['min']:.4g} max={hist['max']:.4g}"
        )
    span_summary = record.get("spans") or {}
    by_category = span_summary.get("by_category", {})
    if by_category:
        lines.append(f"  spans ({span_summary.get('count', 0)} records):")
        for cat in sorted(by_category):
            entry = by_category[cat]
            lines.append(f"    {cat:12s} {entry['count']:6d} spans "
                         f"{entry['ms']:10.1f} ms total")
        slowest = span_summary.get("slowest", [])
        if slowest:
            lines.append("  slowest spans:")
            for item in slowest:
                lines.append(f"    {item['name']:24s} [{item['cat']}] "
                             f"{item['ms']:10.1f} ms")
    return "\n".join(lines)


def render_regressions(record: dict, baseline: dict) -> str:
    """Compare *record* against a prior ledger entry of the same command."""

    def delta(cur: float, base: float) -> str:
        if base == 0:
            return "(new)" if cur else "(=)"
        change = (cur - base) / base * 100.0
        return f"({change:+.0f}%)"

    lines = [
        f"vs run {str(baseline.get('run_id'))[:14]} "
        f"at {str(baseline.get('time'))[:19]}:"
    ]
    cur_elapsed = record.get("elapsed_seconds", 0.0)
    base_elapsed = baseline.get("elapsed_seconds", 0.0)
    lines.append(f"  elapsed        {cur_elapsed:8.1f}s vs "
                 f"{base_elapsed:8.1f}s {delta(cur_elapsed, base_elapsed)}")
    cur_rate = record.get("cells_per_second", 0.0)
    base_rate = baseline.get("cells_per_second", 0.0)
    lines.append(f"  cells/sec      {cur_rate:8.2f}  vs "
                 f"{base_rate:8.2f}  {delta(cur_rate, base_rate)}")
    cur_hit, base_hit = _hit_rate(record), _hit_rate(baseline)
    if cur_hit is not None or base_hit is not None:
        lines.append(
            f"  cache hit-rate {100 * (cur_hit or 0.0):7.0f}%  vs "
            f"{100 * (base_hit or 0.0):7.0f}%"
        )
    cur_counters = record.get("metrics", {}).get("counters", {})
    base_counters = baseline.get("metrics", {}).get("counters", {})
    watched = ("pool_retries", "pool_fallback_tasks", "pool_worker_failures",
               "cache_corrupt", "checkpoint_corrupt")
    for key in watched:
        cur, base = cur_counters.get(key, 0), base_counters.get(key, 0)
        if cur or base:
            lines.append(f"  {key:14s} {cur:8g}  vs {base:8g}  "
                         f"{delta(cur, base)}")
    regressions = []
    if base_elapsed > 0 and cur_elapsed > base_elapsed * 1.25:
        regressions.append(
            f"elapsed {cur_elapsed:.1f}s is "
            f"{(cur_elapsed / base_elapsed - 1) * 100:.0f}% over baseline")
    if base_hit is not None and cur_hit is not None \
            and cur_hit < base_hit - 0.25:
        regressions.append(
            f"cache hit-rate fell {100 * (base_hit - cur_hit):.0f} points")
    for key in ("pool_retries", "pool_worker_failures"):
        if cur_counters.get(key, 0) > base_counters.get(key, 0):
            regressions.append(f"{key} increased")
    if regressions:
        lines.append("  REGRESSIONS: " + "; ".join(regressions))
    else:
        lines.append("  no regressions vs baseline")
    return "\n".join(lines)
