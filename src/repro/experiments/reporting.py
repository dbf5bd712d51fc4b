"""Rendering helpers: ASCII tables, bar charts, JSON export.

The harness prints the same rows/series the paper's figures plot; the bar
renderer gives a terminal-friendly visual of Figures 8 and 9.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path

from ..telemetry.cpi import render_cpi_stacks  # noqa: F401  (re-export)
from ..utils import format_table


def render_bars(series: Mapping[str, Mapping[str, float]],
                value_format: str = "{:5.3f}",
                width: int = 40,
                baseline: float = 1.0) -> str:
    """Grouped horizontal bar chart.

    *series* maps group label (benchmark) -> {bar label (model): value}.
    Bars are scaled to the global maximum; a ``|`` marks the baseline.
    """
    all_values = [v for bars in series.values() for v in bars.values()]
    if not all_values:
        return "(no data)"
    peak = max(max(all_values), baseline)
    lines: list[str] = []
    for group, bars in series.items():
        lines.append(f"{group}")
        for label, value in bars.items():
            filled = int(round(width * value / peak))
            mark = int(round(width * baseline / peak))
            bar = ""
            for i in range(width):
                if i < filled:
                    bar += "#"
                elif i == mark:
                    bar += "|"
                else:
                    bar += " "
            lines.append(f"  {label:<12s} {value_format.format(value)} {bar}")
    return "\n".join(lines)


def write_json(path: str | Path, payload: object) -> Path:
    """Serialise *payload* (nested dicts/lists/floats) to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def percent(value: float) -> str:
    """Format a ratio as a signed percentage ('+11.9%')."""
    return f"{(value - 1.0) * 100:+.1f}%"


def render_run_stats(result) -> str:
    """Full text report of one run: summary, CPI stack, LoD breakdown.

    *result* is a :class:`repro.sim.RunResult`; the CPI-stack table is
    rendered when the run was telemetry-enabled.
    """
    lines = [result.summary().strip(), ""]
    if result.cpi_stacks:
        lines.append(f"CPI stack ({result.cycles} cycles/core; "
                     "components sum to cycles):")
        lines.append(render_cpi_stacks(result.cpi_stacks, result.cycles))
        lines.append("")
    breakdown = result.stall_breakdown()
    if any(any(v for v in per_core.values())
           for per_core in breakdown.values()):
        rows = [
            [core, c["ldq_empty"], c["sdq_empty"], c["queue_full"]]
            for core, c in breakdown.items()
        ]
        lines.append("Loss-of-decoupling stalls (cycles at retirement):")
        lines.append(format_table(
            ["core", "ldq_empty", "sdq_empty", "queue_full"], rows))
    return "\n".join(lines)
