"""Functional-unit issue bandwidth model.

Units are modelled as fully pipelined: what a pool limits is *issues per
cycle*, not occupancy.  (sim-outorder models some units as unpipelined;
for the DIS kernels the difference is negligible next to memory latency,
and the simplification keeps the wakeup loop cheap — a per-cycle counter
reset instead of per-unit busy lists.)

Counters are plain lists indexed by :data:`FU_INDEX` (the static decode
table carries the index), so the select loop never hashes an Enum.
"""

from __future__ import annotations

from ..config import CoreConfig
from ..isa.opcodes import FuClass

#: Dense index for each FU class — the decode table stores this int so the
#: issue loop does list indexing instead of Enum-keyed dict lookups.
FU_INDEX: dict[FuClass, int] = {fu: i for i, fu in enumerate(FuClass)}


class FuPools:
    """Per-cycle issue counters for one core's functional units."""

    __slots__ = ("limits", "_used", "_zeros")

    def __init__(self, config: CoreConfig):
        by_class: dict[FuClass, int] = {
            FuClass.IALU: config.int_alus,
            FuClass.IMULDIV: config.int_muldivs,
            FuClass.FALU: config.fp_alus if config.has_fp else 0,
            FuClass.FMULDIV: config.fp_muldivs if config.has_fp else 0,
            FuClass.LSU: config.mem_ports if config.has_lsu else 0,
            FuClass.NONE: 1 << 30,
        }
        self.limits: list[int] = [by_class[fu] for fu in FuClass]
        self._zeros: list[int] = [0] * len(self.limits)
        self._used: list[int] = list(self._zeros)

    def new_cycle(self) -> None:
        """Reset issue counters at the start of a cycle."""
        self._used[:] = self._zeros

    def take_idx(self, idx: int) -> bool:
        """Claim one issue slot by FU index; False if the pool is empty."""
        used = self._used
        if used[idx] >= self.limits[idx]:
            return False
        used[idx] += 1
        return True
