"""The telemetry bus: one object carrying a run's observability configuration.

A :class:`Telemetry` instance bundles the orthogonal collectors:

* an event **sink** (:mod:`repro.telemetry.sinks`) for the structured event
  stream — instruction issue spans, cache fills, CMAS forks, mispredicts;
* the **CPI stack** switch — per-core exhaustive cycle attribution
  (:mod:`repro.telemetry.cpi`);
* the occupancy **sampler** interval (:mod:`repro.telemetry.sampler`);
* a per-dynamic-instruction **lifecycle** collector
  (:mod:`repro.telemetry.lifecycle`);
* a live **heartbeat** (:mod:`repro.telemetry.heartbeat`) for long runs.

Pass one to :class:`repro.sim.Machine` (or ``run_model``).
``Machine`` reads the flags once at construction, so a ``None`` telemetry
(or one with everything off) leaves the timing hot path untouched.  One
``Telemetry`` may be reused across runs when only CPI stacks are collected;
give each traced run its own sink/sampler/lifecycle collector.
"""

from __future__ import annotations

from pathlib import Path

from ..config import TelemetryConfig
from .heartbeat import Heartbeat
from .lifecycle import LifecycleCollector
from .sampler import Sampler
from .sinks import NULL_SINK, ChromeTraceSink, JsonlSink, Sink


class Telemetry:
    """Observability configuration + collectors for simulation runs."""

    def __init__(self, sink: Sink | None = None, cpi: bool = True,
                 sample_interval: int = 0,
                 lifecycle: LifecycleCollector | None = None,
                 heartbeat: Heartbeat | None = None) -> None:
        self.sink: Sink = sink if sink is not None else NULL_SINK
        self.cpi = cpi
        self.sample_interval = sample_interval
        #: per-dynamic-instruction stage records (one collector per run).
        self.lifecycle = lifecycle
        #: live progress line for long runs (opt-in; writes to stderr).
        self.heartbeat = heartbeat
        #: Samplers of every run observed through this telemetry object,
        #: in run order (usually one).
        self.samplers: list[Sampler] = []

    @property
    def events_on(self) -> bool:
        return self.sink.enabled

    def new_sampler(self) -> Sampler | None:
        """Called by the machine at run start; one sampler per run."""
        if self.sample_interval <= 0:
            return None
        sampler = Sampler(self.sample_interval, self.sink)
        self.samplers.append(sampler)
        return sampler

    @property
    def samples(self):
        """Samples of the most recent run (empty list when sampling off)."""
        return self.samplers[-1].samples if self.samplers else []

    def close(self) -> None:
        """Flush the sink and lifecycle stream (writes traces to disk),
        and clear any in-progress heartbeat status line."""
        if self.heartbeat is not None:
            self.heartbeat.finish()
        self.sink.close()
        if self.lifecycle is not None:
            self.lifecycle.close()

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: TelemetryConfig,
                    trace_path: str | Path | None = None,
                    lifecycle_jsonl: str | Path | None = None) -> "Telemetry":
        """Build a telemetry object from a :class:`TelemetryConfig`.

        *trace_path* selects the sink: ``None`` means no event stream
        (CPI/sampling only); otherwise the configured ``trace_format``
        decides between Chrome ``trace_event`` JSON and JSONL.
        *lifecycle_jsonl* streams the lifecycle records there in addition
        to the configured ring buffer.
        """
        sink: Sink | None = None
        if trace_path is not None:
            if config.trace_format == "jsonl":
                sink = JsonlSink(trace_path)
            else:
                sink = ChromeTraceSink(trace_path)
        lifecycle: LifecycleCollector | None = None
        if config.lifecycle or lifecycle_jsonl is not None:
            lifecycle = LifecycleCollector(
                max_records=config.lifecycle_max_records or None,
                jsonl_path=lifecycle_jsonl,
            )
        heartbeat: Heartbeat | None = None
        if config.heartbeat_interval:
            heartbeat = Heartbeat(config.heartbeat_interval)
        return cls(sink=sink, cpi=config.cpi,
                   sample_interval=config.sample_interval,
                   lifecycle=lifecycle, heartbeat=heartbeat)
