"""Fault-injection campaigns: prove graceful degradation, run by run.

A campaign takes one compiled benchmark, one machine mode and one seeded
:class:`~repro.resilience.faults.FaultPlan`, and asserts the resilience
contract: the machine either **completes with a passing oracle diff** or
**raises a typed** :class:`~repro.errors.ReproError` **with forensics** —
silent divergence is the only failure.

Two phases per campaign run:

1. **Functional phase** — the plan's data-corrupting sites
   (``corrupt_transfer``, ``drop_transfer``) are armed on the decoupled
   functional executor's LDQ; a fired fault must surface as a
   :class:`~repro.errors.QueueProtocolError` (starved pop) or a failed
   workload/oracle check.
2. **Timing phase** — a :class:`~repro.resilience.faults.FaultInjector`
   rides the timing machine (fill delays/drops, line corruption, queue
   stalls/drops, trigger suppression), and the run is refereed by
   :func:`~repro.resilience.oracle.verified_run`.

Anything that is *not* a :class:`~repro.errors.ReproError` propagates —
that is a harness bug, not degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError
from ..sim.functional import DecoupledFunctionalSimulator
from ..telemetry import metrics, spans
from .faults import FaultInjector, FaultPlan
from .oracle import verified_run


@dataclass
class CampaignOutcome:
    """What one faulted run did."""

    benchmark: str
    mode: str
    plan_seed: int
    #: "completed" (oracle-clean) or "raised" (typed error).
    outcome: str = "completed"
    error_type: str | None = None
    error: str | None = None
    #: timing-phase faults that actually fired, by kind.
    fired: dict[str, int] = field(default_factory=dict)
    #: functional-phase queue fault counters (drops/corruptions).
    queue_faults: dict[str, int] = field(default_factory=dict)
    cycles: int = 0
    verified: bool = False

    @property
    def graceful(self) -> bool:
        """The resilience contract held (no silent divergence)."""
        return self.outcome == "completed" and self.verified \
            or self.outcome == "raised"

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "plan_seed": self.plan_seed,
            "outcome": self.outcome,
            "error_type": self.error_type,
            "error": self.error,
            "fired": dict(self.fired),
            "queue_faults": dict(self.queue_faults),
            "cycles": self.cycles,
            "verified": self.verified,
            "graceful": self.graceful,
        }

    def summary(self) -> str:
        if self.outcome == "completed":
            detail = f"{self.cycles} cycles, oracle clean"
        else:
            detail = f"{self.error_type}: {(self.error or '').splitlines()[0]}"
        fired = f", fired {self.fired}" if self.fired else ""
        qf = f", queue faults {self.queue_faults}" if self.queue_faults else ""
        return (f"{self.benchmark:>14s}/{self.mode:<11s} "
                f"seed {self.plan_seed}: {self.outcome} ({detail}){fired}{qf}")


def run_fault_campaign(cw, config, mode: str,
                       plan: FaultPlan) -> CampaignOutcome:
    """Execute one faulted run of *cw* on *mode*; never returns silently
    wrong numbers — see the module docstring for the contract."""
    with spans.span("fault_campaign_cell", cat="faults", benchmark=cw.name,
                    mode=mode, seed=plan.seed) as sp:
        outcome = _run_fault_campaign(cw, config, mode, plan)
        sp.set(outcome=outcome.outcome)
        metrics.inc("campaign_cells")
        if outcome.outcome == "raised":
            metrics.inc("campaign_raised")
        return outcome


def _run_fault_campaign(cw, config, mode: str,
                        plan: FaultPlan) -> CampaignOutcome:
    outcome = CampaignOutcome(benchmark=cw.name, mode=mode,
                              plan_seed=plan.seed)

    # Phase 1: functional data faults (the timing model carries no data,
    # so payload corruption is injected where the values actually flow).
    schedules = plan.functional_schedules()
    if schedules:
        sim = DecoupledFunctionalSimulator(cw.compilation.decoupled)
        for name, schedule in schedules.items():
            queue = getattr(sim.queues, name.lower())
            queue.schedule_faults(schedule)
        try:
            state = sim.run()
            cw.workload.verify(state)
            if not sim.queues.ldq.empty or not sim.queues.sdq.empty:
                raise ReproError(
                    f"{cw.name}: queues not drained after faulted "
                    f"functional run"
                )
        except ReproError as exc:
            outcome.outcome = "raised"
            outcome.error_type = type(exc).__name__
            outcome.error = str(exc)
        for name in ("ldq", "sdq"):
            stats = getattr(sim.queues, name).stats
            if stats.drops or stats.corruptions:
                outcome.queue_faults[name.upper()] = (
                    stats.drops + stats.corruptions
                )
        if outcome.outcome == "raised":
            return outcome

    # Phase 2: timing faults under the co-simulation oracle.
    injector = FaultInjector(plan)
    try:
        result = verified_run(cw, config, mode, faults=injector)
    except ReproError as exc:
        outcome.outcome = "raised"
        outcome.error_type = type(exc).__name__
        outcome.error = str(exc)
        outcome.fired = injector.summary()
        return outcome
    outcome.cycles = result.cycles
    outcome.verified = result.verified
    outcome.fired = injector.summary()
    return outcome
