"""Deterministic fault injection for the timing and functional simulators.

A :class:`FaultPlan` is a seeded, fully reproducible list of
:class:`FaultSite`\\ s.  Each site names a *kind* and the ordinal of the
event it fires at (the *k*-th cache fill, the *k*-th queue-transfer issue,
the *k*-th CMAS fork attempt), so the same plan injects the same faults on
every replay — campaigns are diffable and failures bisectable.

Fault kinds and the layer they act on:

==================  ======================================================
``delay_fill``      timing: the k-th L1-miss fill takes ``arg`` extra
                    cycles (a flaky DRAM rank / contended channel).
``drop_fill``       timing: the k-th fill is lost and retried — the miss
                    pays the full round-trip twice.
``corrupt_line``    timing: the k-th fill arrives corrupt; ECC discards the
                    line, so the next touch re-misses.  Architecturally
                    safe by construction (data lives in main memory).
``stall_queue``     timing: the k-th LDQ/SDQ transfer is delayed ``arg``
                    cycles on the inter-processor wires.
``drop_transfer``   timing: the k-th LDQ/SDQ transfer is lost.  The
                    consumer can never wake, so the machine *must* end in
                    a :class:`~repro.errors.DeadlockError` with a forensic
                    dump — never a silently-wrong cycle count.
``corrupt_transfer``functional: the k-th queue push's payload is bit-
                    flipped (see :meth:`ArchQueue.schedule_faults`); the
                    faulted functional run must raise a typed error or
                    fail workload verification.
``suppress_trigger``timing: the k-th CMAS fork is suppressed — pure
                    graceful degradation (fewer prefetches, same result).
==================  ======================================================

The timing-side hooks live behind ``machine.faults`` / ``hierarchy.faults``
attribute tests that are ``None`` in normal runs, so the injector costs
nothing when absent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import ConfigError

#: Every fault kind, grouped by the event domain its ordinal counts.
FILL_KINDS = ("delay_fill", "drop_fill", "corrupt_line")
QUEUE_KINDS = ("stall_queue", "drop_transfer")
FORK_KINDS = ("suppress_trigger",)
FUNCTIONAL_KINDS = ("corrupt_transfer", "drop_transfer")
FAULT_KINDS = FILL_KINDS + QUEUE_KINDS + FORK_KINDS + ("corrupt_transfer",)


@dataclass(frozen=True)
class FaultSite:
    """One scheduled fault: *kind* fires at event ordinal *at* (0-based)."""

    kind: str
    at: int
    #: extra cycles for delay/stall kinds (ignored by the others).
    arg: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{', '.join(FAULT_KINDS)})"
            )
        if self.at < 0:
            raise ConfigError("fault ordinal must be >= 0")
        if self.arg < 0:
            raise ConfigError("fault arg must be >= 0")


#: :meth:`FaultPlan.random` draws event ordinals below this, and delays
#: of up to ``_MAX_DELAY`` cycles.
_HORIZON = 2000
_MAX_DELAY = 200


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic fault-injection schedule."""

    seed: int
    sites: tuple[FaultSite, ...] = ()

    @classmethod
    def random(cls, seed: int, count: int = 8,
               kinds: tuple[str, ...] = FAULT_KINDS) -> "FaultPlan":
        """Draw *count* sites uniformly over *kinds* and event ordinals
        ``[0, _HORIZON)``, each delaying by ``1.._MAX_DELAY`` cycles.

        The same ``(seed, count, kinds)`` always yields the same plan.
        Ordinals past the end of a run simply never fire;
        :meth:`FaultInjector.counts` reports what actually landed.
        """
        if count < 0:
            raise ConfigError("fault count must be >= 0")
        rng = random.Random(seed)
        sites = tuple(
            FaultSite(kind=rng.choice(kinds), at=rng.randrange(_HORIZON),
                      arg=rng.randrange(1, _MAX_DELAY + 1))
            for _ in range(count)
        )
        return cls(seed=seed, sites=sites)

    def describe(self) -> str:
        """One line per site, in domain-ordinal order."""
        if not self.sites:
            return f"fault plan seed={self.seed}: empty"
        lines = [f"fault plan seed={self.seed}: {len(self.sites)} sites"]
        for site in sorted(self.sites, key=lambda s: (s.kind, s.at)):
            arg = f" (+{site.arg} cycles)" if site.kind in (
                "delay_fill", "stall_queue") else ""
            lines.append(f"  {site.kind:>16s} @ event #{site.at}{arg}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def functional_schedules(self) -> dict[str, dict[int, str]]:
        """Per-queue ArchQueue fault schedules for the functional layer.

        Queue-domain drops and ``corrupt_transfer`` sites apply to the LDQ
        (the dominant transfer path); the ordinal is the push ordinal.
        """
        schedule: dict[int, str] = {}
        for site in self.sites:
            if site.kind == "drop_transfer":
                schedule[site.at] = "drop"
            elif site.kind == "corrupt_transfer":
                schedule.setdefault(site.at, "corrupt")
        return {"LDQ": schedule} if schedule else {}


class FaultInjector:
    """Runtime companion of one :class:`FaultPlan` for one timing run.

    The machine, its memory hierarchy and its cores each hold a reference
    and call the ``on_*`` hooks at their event sites; the injector counts
    event ordinals per domain and answers with the scheduled action.
    A fresh injector must be built per run (ordinal counters are stateful).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fill_sites: dict[int, FaultSite] = {}
        self._queue_sites: dict[int, FaultSite] = {}
        self._fork_sites: dict[int, FaultSite] = {}
        for site in plan.sites:
            if site.kind in FILL_KINDS:
                self._fill_sites.setdefault(site.at, site)
            elif site.kind in QUEUE_KINDS:
                self._queue_sites.setdefault(site.at, site)
            elif site.kind in FORK_KINDS:
                self._fork_sites.setdefault(site.at, site)
            # corrupt_transfer is functional-only: timing carries no data.
        self._fills = 0
        self._queue_pushes = 0
        self._forks = 0
        #: kind -> number of faults that actually fired this run.
        self.counts: dict[str, int] = {}
        #: gids of queue pushes whose transfer was dropped (forensics).
        self.dropped_gids: list[int] = []

    def _fired(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Hooks (hot paths guard on `faults is not None` before calling).
    # ------------------------------------------------------------------
    def on_fill(self, hierarchy, block: int, latency: int, now: int) -> int:
        """Called by the hierarchy for every L1-miss fill; returns the
        (possibly fault-adjusted) latency."""
        site = self._fill_sites.get(self._fills)
        self._fills += 1
        if site is None:
            return latency
        self._fired(site.kind)
        if site.kind == "delay_fill":
            return latency + site.arg
        if site.kind == "drop_fill":
            # The fill is lost; the retry pays the round trip again.
            return latency * 2
        # corrupt_line: ECC rejects the data when the fill lands — discard
        # the allocated line and the in-flight entry so the next touch
        # re-misses instead of consuming bad data.
        hierarchy.reject_fill(block)
        return latency

    def on_queue_push(self, gid: int) -> int | None:
        """Called by a core when an LDQ/SDQ-writing instruction issues.

        Returns extra latency cycles, or ``None`` when the transfer is
        dropped (the push never completes; the watchdog converts the
        resulting starvation into a :class:`~repro.errors.DeadlockError`).
        """
        site = self._queue_sites.get(self._queue_pushes)
        self._queue_pushes += 1
        if site is None:
            return 0
        self._fired(site.kind)
        if site.kind == "stall_queue":
            return site.arg
        self.dropped_gids.append(gid)
        return None

    def on_fork(self) -> bool:
        """Called per CMAS fork attempt; True suppresses the fork."""
        site = self._fork_sites.get(self._forks)
        self._forks += 1
        if site is None:
            return False
        self._fired(site.kind)
        return True

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """Faults that actually fired, by kind (empty dict = none)."""
        return dict(self.counts)
