"""Run results: everything a simulation reports.

:class:`RunResult` is the single artefact the experiment harness consumes;
it carries enough detail to regenerate every figure of the paper (cycles
and IPC for Figure 8/10, demand miss rates for Figure 9, queue/LoD counters
for the Neighborhood analysis in §5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .branch import BranchStats
from .cache import CacheStats
from .hierarchy import HierarchyStats


@dataclass
class RunResult:
    """Outcome of one timing simulation."""

    machine: str                      # superscalar | cp_ap | cp_cmp | hidisc
    benchmark: str
    #: cycles inside the measurement window (equals ``total_cycles`` when
    #: no warmup/fast-forward region was configured).
    cycles: int
    #: dynamic instructions of the *original* program inside the
    #: measurement window (the unit of work); inserted communication
    #: instructions are excluded so IPC is comparable across models.
    work_instructions: int
    #: cycles including the warmup region.
    total_cycles: int = 0
    #: committed instructions per core (includes communication instructions).
    committed: dict[str, int] = field(default_factory=dict)
    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    memory: HierarchyStats = field(default_factory=HierarchyStats)
    branch: BranchStats = field(default_factory=BranchStats)
    core_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    #: CMAS bookkeeping.
    cmas_threads_forked: int = 0
    cmas_threads_dropped: int = 0
    #: Per-core CPI stacks (core name -> component -> cycles); populated
    #: when the run was telemetry-enabled, empty otherwise.  Components
    #: sum to :attr:`cycles` — see :mod:`repro.telemetry.cpi`.
    cpi_stacks: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Faults that actually fired (kind -> count); empty unless the run had
    #: a :class:`repro.resilience.FaultInjector` attached.
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: True once the co-simulation oracle passed this run (``--verify``).
    verified: bool = False
    #: True when this result was *extrapolated* from sampled detailed
    #: intervals rather than measured over every cycle (see
    #: :mod:`repro.sim.sampling`).
    sampled: bool = False
    #: Sampling metadata: the :class:`~repro.config.SamplingPlan`
    #: parameters, the exact fast-forward/warmup/detail schedule, the
    #: sampled-vs-total position counts and the measured 95% confidence
    #: interval on cycles (relative).  Empty for full-detail runs.
    sampling: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Work instructions per cycle (the paper's Figure 10 metric)."""
        if self.cycles == 0:
            return 0.0
        return self.work_instructions / self.cycles

    @property
    def l1_demand_miss_rate(self) -> float:
        return self.l1.demand_miss_rate

    def speedup_over(self, baseline: "RunResult") -> float:
        """Execution-time speedup of *self* relative to *baseline*."""
        if self.cycles == 0:
            raise ValueError("cannot compute speedup of a zero-cycle run")
        return baseline.cycles / self.cycles

    def miss_rate_ratio(self, baseline: "RunResult") -> float:
        """L1 demand miss-rate relative to *baseline* (Figure 9's y-axis)."""
        base = baseline.l1_demand_miss_rate
        if base == 0.0:
            return 1.0
        return self.l1_demand_miss_rate / base

    def loss_of_decoupling_cycles(self) -> int:
        """Simulated cycles any core's retirement was blocked on
        cross-stream sync: the LDQ/SDQ stall counters of ``core_stats``.

        Only cycles the loop simulates count here; a dead-time skip (no
        core can progress, so the clock jumps to the next event) adds
        nothing.  The CPI stacks' ``ldq_empty``, ``sdq_empty`` and
        ``queue_full`` components charge every cycle, skipped ones too, so
        the two disagree for a core that waits across skips: on the quick
        grid the CP's counts differ 2.0–39× (field cp_ap: 38 here, 1,469
        in its CPI stack), while the AP's agree.
        """
        total = 0
        for stats in self.core_stats.values():
            total += stats.get("ldq_empty_stalls", 0)
            total += stats.get("sdq_empty_stalls", 0)
            total += stats.get("queue_full_stalls", 0)
        return total

    def stall_breakdown(self) -> dict[str, dict[str, int]]:
        """Per-core loss-of-decoupling composition (§5.3 taxonomy).

        Maps core name to the three LoD stall counters, so trajectories can
        track *which* synchronisation mechanism caps the speedup, not just
        the :meth:`loss_of_decoupling_cycles` sum.
        """
        out: dict[str, dict[str, int]] = {}
        for core, stats in self.core_stats.items():
            out[core] = {
                "ldq_empty": stats.get("ldq_empty_stalls", 0),
                "sdq_empty": stats.get("sdq_empty_stalls", 0),
                "queue_full": stats.get("queue_full_stalls", 0),
            }
        return out

    def summary(self) -> str:
        """One-line human-readable summary (with LoD composition)."""
        line = (
            f"{self.benchmark:>14s} on {self.machine:<11s}: "
            f"{self.cycles:>9d} cycles, IPC {self.ipc:5.3f}, "
            f"L1 demand miss rate {self.l1_demand_miss_rate:6.4f}"
        )
        lod = self.loss_of_decoupling_cycles()
        if lod:
            parts = {"ldq_empty": 0, "sdq_empty": 0, "queue_full": 0}
            for per_core in self.stall_breakdown().values():
                for key, value in per_core.items():
                    parts[key] += value
            composition = "/".join(
                f"{key.split('_')[0]} {value}"
                for key, value in parts.items() if value
            )
            line += f", LoD {lod} ({composition})"
        return line
