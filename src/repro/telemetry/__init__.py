"""Cycle-level telemetry: event tracing, CPI stacks, occupancy timelines.

Typical use::

    from repro.telemetry import Telemetry, ChromeTraceSink

    tel = Telemetry(sink=ChromeTraceSink("run.json"), cpi=True,
                    sample_interval=128)
    result = Machine(config, program, trace, mode="hidisc",
                     queue_plan=qplan, cmas_plan=cplan,
                     telemetry=tel).run()
    tel.close()                      # writes run.json (open in Perfetto)
    print(result.cpi_stacks)         # components sum to result.cycles

Per-dynamic-instruction lifecycle tracing (Konata export, critical-path
attribution) lives in :mod:`repro.telemetry.lifecycle` /
:mod:`repro.telemetry.konata`, differential run analysis in
:mod:`repro.telemetry.diff`.  See :mod:`repro.telemetry.cpi` for the cycle
taxonomy and :mod:`repro.telemetry.sinks` for the available sinks.

Host-side *orchestration* observability (span tracing of the process-pool
grid, the metrics registry feeding the run ledger) lives in
:mod:`repro.telemetry.spans` and :mod:`repro.telemetry.metrics`.
"""

from . import metrics, spans

from .cpi import (
    CPI_COMPONENTS,
    LOD_COMPONENTS,
    MEMORY_COMPONENTS,
    check_stack,
    new_stack,
    render_cpi_stacks,
    stack_total,
)
from .diff import diff_payloads, first_divergent_commit, load_payload, render_diff
from .events import Telemetry
from .heartbeat import Heartbeat, StatusLine
from .konata import konata_lines, write_konata
from .lifecycle import (
    LIFECYCLE_COMPONENTS,
    LifecycleCollector,
    LifecycleRecord,
    breakdown_row,
    critical_path_by_pc,
    lifecycle_events,
    render_critical_path,
)
from .sampler import Sample, Sampler, take_sample
from .sinks import (
    NULL_SINK,
    ChromeTraceSink,
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    write_perfetto,
)

__all__ = [
    "CPI_COMPONENTS",
    "ChromeTraceSink",
    "Heartbeat",
    "JsonlSink",
    "LIFECYCLE_COMPONENTS",
    "LOD_COMPONENTS",
    "LifecycleCollector",
    "LifecycleRecord",
    "MEMORY_COMPONENTS",
    "MemorySink",
    "NULL_SINK",
    "NullSink",
    "Sample",
    "Sampler",
    "Sink",
    "StatusLine",
    "Telemetry",
    "breakdown_row",
    "check_stack",
    "critical_path_by_pc",
    "diff_payloads",
    "first_divergent_commit",
    "konata_lines",
    "lifecycle_events",
    "load_payload",
    "metrics",
    "new_stack",
    "render_cpi_stacks",
    "render_critical_path",
    "render_diff",
    "spans",
    "stack_total",
    "take_sample",
    "write_konata",
    "write_perfetto",
]
