"""Periodic sampled timeseries of machine occupancy state.

The event stream answers "what happened"; the sampler answers "how full was
everything over time".  Every ``interval`` cycles it snapshots

* per-core scheduling-window and instruction-queue occupancy,
* LDQ/SDQ/SAQ occupancy (as tracked by the machine's issue-time counters),
* outstanding misses in flight in the memory hierarchy,

keeps the samples in memory (:attr:`Sampler.samples`) and mirrors the
window, instruction-queue and miss counts to the active sink as
``occupancy/*`` and ``memory/*`` counter tracks, so a Chrome trace shows
them under the instruction lanes.  The LDQ/SDQ/SAQ tracks need no
sampling: the machine writes a ``queues/*`` point on every change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sinks import Sink


@dataclass
class Sample:
    """One snapshot of machine occupancy state."""

    cycle: int
    #: core name -> (window occupancy, instruction-queue occupancy)
    cores: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: queue name -> occupancy (LDQ/SDQ/SAQ)
    queues: dict[str, int] = field(default_factory=dict)
    outstanding_misses: int = 0
    #: in a sampled run, the detailed window this sample belongs to and
    #: that window's first trace position (its ``cycle`` counts from the
    #: window's start); ``None`` in a full-detail run.
    window: int | None = None
    start_pos: int | None = None

    def as_dict(self) -> dict:
        out = {
            "cycle": self.cycle,
            "cores": {name: {"window": w, "instr_queue": q}
                      for name, (w, q) in self.cores.items()},
            "queues": dict(self.queues),
            "outstanding_misses": self.outstanding_misses,
        }
        if self.window is not None:
            out["window"] = self.window
            out["start_pos"] = self.start_pos
        return out


def take_sample(machine, now: int) -> Sample:
    """Snapshot *machine*'s occupancy state at cycle *now*.

    Shared by the periodic :class:`Sampler` and the resilience watchdog's
    forensic deadlock dumps (:mod:`repro.resilience.watchdog`).
    """
    sample = Sample(cycle=now)
    for core in machine.cores:
        sample.cores[core.name] = (len(core.window), len(core.instr_queue))
    sample.queues = dict(machine.queue_occupancy)
    sample.outstanding_misses = machine.hierarchy.outstanding_misses(now)
    return sample


class Sampler:
    """Fixed-interval occupancy sampler attached to one machine run."""

    def __init__(self, interval: int, sink: Sink | None = None) -> None:
        if interval < 1:
            raise ValueError("sample interval must be >= 1 cycle")
        self.interval = interval
        self.sink = sink if (sink is not None and sink.enabled) else None
        self.samples: list[Sample] = []
        #: next cycle at or after which :meth:`record` should run (the
        #: machine's clock can jump over dead time, so this is a floor,
        #: not an exact schedule).
        self.next_at = 0

    def record(self, machine, now: int) -> Sample:
        """Snapshot *machine* at cycle *now*; emits counters to the sink."""
        sample = take_sample(machine, now)
        self.samples.append(sample)
        self.next_at = now + self.interval

        sink = self.sink
        if sink is not None:
            for name, (window, iq) in sample.cores.items():
                sink.counter("occupancy", f"{name} window", now, window)
                sink.counter("occupancy", f"{name} iq", now, iq)
            sink.counter("memory", "outstanding_misses", now,
                         sample.outstanding_misses)
        return sample
