"""Resilience subsystem: fault injection, deadlock forensics, verification.

Three pillars (ISSUE 3):

* :mod:`~repro.resilience.faults` — seeded deterministic
  :class:`FaultPlan`/:class:`FaultInjector` covering cache-line
  corruption, fill delays/drops, queue-transfer stalls/drops/corruption
  and CMAS trigger suppression.
* :mod:`~repro.resilience.watchdog` — :class:`ProgressWatchdog`, the
  structured replacement for the old "nudge one cycle" deadlock
  workaround; raises :class:`~repro.errors.DeadlockError` with a forensic
  occupancy dump.
* :mod:`~repro.resilience.oracle` — the functional referee that
  ``prepare`` runs on every compilation (queue drain, memory, registers,
  store order), and the commit-stream check that ``--verify`` adds to
  every timing run.

:mod:`~repro.resilience.campaign` composes them into fault-injection
campaigns proving graceful degradation (``hidisc faults``).
"""

from .campaign import CampaignOutcome, run_fault_campaign
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSite
from .oracle import (
    check_commit_stream,
    check_equivalence,
    verified_run,
)
from .watchdog import ProgressWatchdog, forensic_dump

__all__ = [
    "FAULT_KINDS",
    "CampaignOutcome",
    "FaultInjector",
    "FaultPlan",
    "FaultSite",
    "ProgressWatchdog",
    "check_commit_stream",
    "check_equivalence",
    "forensic_dump",
    "run_fault_campaign",
    "verified_run",
]
