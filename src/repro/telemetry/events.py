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

from .heartbeat import Heartbeat
from .lifecycle import LifecycleCollector
from .sampler import Sampler
from .sinks import NULL_SINK, Sink


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
        #: in run order (one per run, or per window of a sampled run).
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
        """Every sampler's samples, in run order (empty when sampling is
        off).  A sampled run has one sampler per detailed window, and
        each window's clock restarts at 0, so the driver tags those
        samples with their window (:attr:`Sample.window`)."""
        return [s for sampler in self.samplers for s in sampler.samples]

    def close(self) -> None:
        """Flush the sink and lifecycle stream (writes traces to disk),
        and clear any in-progress heartbeat status line."""
        if self.heartbeat is not None:
            self.heartbeat.finish()
        self.sink.close()
        if self.lifecycle is not None:
            self.lifecycle.close()
