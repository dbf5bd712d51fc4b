"""The functional model's architectural data queues (LDQ, SDQ).

The queues are the heart of a decoupled machine: they carry data between
the streams and *are* the slip-distance mechanism.  The functional
executors use them through :meth:`ArchQueue.push` / :meth:`ArchQueue.pop`.
They are unbounded (queue depth is a timing-model parameter,
:class:`~repro.config.QueueConfig`), and popping an empty queue raises
:class:`~repro.errors.QueueProtocolError` because in a correctly
separated program, program-order execution can never pop early.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import QueueProtocolError


def _corrupt_value(item):
    """Deterministically perturb one queue payload (bit-flip semantics)."""
    if isinstance(item, bool) or not isinstance(item, (int, float)):
        return item
    if isinstance(item, int):
        return item ^ 1
    return -item if item != 0.0 else 1.0


@dataclass
class QueueStats:
    """Occupancy statistics of one queue."""

    pushes: int = 0
    pops: int = 0
    max_occupancy: int = 0
    #: transfers discarded by fault injection (repro.resilience).
    drops: int = 0
    #: transfers whose payload was corrupted by fault injection.
    corruptions: int = 0


class ArchQueue:
    """An unbounded FIFO with statistics."""

    def __init__(self, name: str):
        self.name = name
        self._items: deque = deque()
        self.stats = QueueStats()
        #: push ordinal (0-based) -> "drop" | "corrupt" (fault injection).
        self._fault_schedule: dict[int, str] | None = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    # ------------------------------------------------------------------
    def schedule_faults(self, schedule: dict[int, str]) -> None:
        """Arm deterministic push faults: ``{push_ordinal: "drop"|"corrupt"}``.

        The *k*-th push (0-based) is discarded (``drop``) or its payload
        perturbed (``corrupt``).  Used by :mod:`repro.resilience.faults`
        to prove that a faulty queue transfer surfaces as a typed error
        (:class:`~repro.errors.QueueProtocolError` on the starved pop, or
        a verification failure downstream) — never as silent corruption.
        """
        self._fault_schedule = dict(schedule) if schedule else None

    def push(self, item) -> None:
        """Append *item* (unless an armed fault drops or corrupts it)."""
        if self._fault_schedule is not None:
            action = self._fault_schedule.get(self.stats.pushes)
            if action == "drop":
                self.stats.pushes += 1
                self.stats.drops += 1
                return
            if action == "corrupt":
                item = _corrupt_value(item)
                self.stats.corruptions += 1
        self._items.append(item)
        self.stats.pushes += 1
        if len(self._items) > self.stats.max_occupancy:
            self.stats.max_occupancy = len(self._items)

    def pop(self):
        """Remove and return the head; raises if empty."""
        if not self._items:
            raise QueueProtocolError(f"pop on empty queue {self.name}")
        self.stats.pops += 1
        return self._items.popleft()


class QueueSet:
    """The LDQ/SDQ pair of one decoupled functional machine."""

    def __init__(self):
        self.ldq = ArchQueue("LDQ")
        self.sdq = ArchQueue("SDQ")
