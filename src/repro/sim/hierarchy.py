"""Two-level memory hierarchy with additive latencies and miss merging.

Latency model (Table 1 defaults)::

    L1 hit               : l1.latency                  (1 cycle)
    L1 miss, L2 hit      : l1.latency + l2.latency     (13 cycles)
    L1 miss, L2 miss     : l1.latency + l2.latency + memory_latency

Outstanding misses to the same L1 block merge MSHR-style: a second access
while the fill is in flight completes when the fill does, instead of paying
the full latency again.  This matters for spatially-local streams and for
CMP prefetches racing demand loads (a *late* prefetch still shortens the
demand miss).

The hierarchy is shared by every processor of a machine (the AP and CMP of
HiDISC access the same L1/L2, which is how the CMP's prefetches help).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..config import CacheConfig, MachineConfig
from .cache import Cache, CacheStats


@dataclass
class HierarchyStats:
    """Aggregate statistics of one simulation run."""

    demand_loads: int = 0
    demand_stores: int = 0
    prefetches: int = 0
    #: Demand accesses whose miss latency was (partly) hidden by merging
    #: with an outstanding fill.
    merged_misses: int = 0
    #: Prefetches that were still in flight when the demand access arrived.
    late_prefetch_overlaps: int = 0


class MemoryHierarchy:
    """L1 + unified L2 + main-memory latency, with MSHR-style merging."""

    def __init__(self, l1: CacheConfig, l2: CacheConfig, memory_latency: int):
        self.l1 = Cache(l1)
        self.l2 = Cache(l2)
        self.memory_latency = memory_latency
        self.stats = HierarchyStats()
        #: Telemetry sink for fill/merge events (set by the owning machine
        #: when event tracing is on; None keeps the hot path untouched).
        self.sink = None
        #: Optional FaultInjector (set by the owning machine); its
        #: ``on_fill`` hook sees every L1-miss fill.
        self.faults = None
        #: L1-block address -> absolute cycle when the in-flight fill lands.
        self._inflight: dict[int, int] = {}
        #: blocks whose in-flight fill was initiated by a prefetch
        self._inflight_prefetch: set[int] = set()

    @classmethod
    def from_config(cls, config: MachineConfig) -> "MemoryHierarchy":
        return cls(config.l1, config.l2, config.memory_latency)

    # ------------------------------------------------------------------
    def _expire_inflight(self, now: int) -> None:
        if not self._inflight:
            return
        done = [block for block, ready in self._inflight.items() if ready <= now]
        for block in done:
            del self._inflight[block]
            self._inflight_prefetch.discard(block)

    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool, now: int,
               is_prefetch: bool = False) -> int:
        """Simulate one access at absolute cycle *now*; returns its latency.

        Architectural data motion is handled by the functional layer; this
        method only updates cache/MSHR state and computes timing.
        """
        self._expire_inflight(now)
        stats = self.stats
        if is_prefetch:
            stats.prefetches += 1
        elif is_write:
            stats.demand_stores += 1
        else:
            stats.demand_loads += 1

        block = self.l1.block_address(address)
        inflight_ready = self._inflight.get(block)
        hit = self.l1.access(address, is_write, is_prefetch)

        if inflight_ready is not None:
            # The line's fill is still in flight (its tag may already be
            # installed — the first access allocated it).  Merge: this
            # access completes when the outstanding fill lands.
            if not is_prefetch:
                stats.merged_misses += 1
                if block in self._inflight_prefetch:
                    stats.late_prefetch_overlaps += 1
            if self.sink is not None:
                self.sink.instant("memory", "mshr_merge", now,
                                  {"block": block, "prefetch": is_prefetch})
            return max(self.l1.config.latency, inflight_ready - now)

        if hit:
            return self.l1.config.latency

        latency = self.l1.config.latency + self.l2.config.latency
        if not self.l2.access(address, False, is_prefetch):
            latency += self.memory_latency
        self._inflight[block] = now + latency
        if is_prefetch:
            self._inflight_prefetch.add(block)
        if self.faults is not None:
            # May stretch the latency (delay/drop-and-retry) or discard the
            # just-allocated line (corrupt_line calls reject_fill).
            latency = self.faults.on_fill(self, block, latency, now)
            if block in self._inflight:
                self._inflight[block] = now + latency
        if self.sink is not None:
            deep = latency > self.l1.config.latency + self.l2.config.latency
            self.sink.duration(
                "memory", "mem_fill" if deep else "L2_fill", now, latency,
                {"block": block, "prefetch": is_prefetch},
            )
        return latency

    # ------------------------------------------------------------------
    def warm_many(self, events: Iterable[tuple[int, bool]]) -> None:
        """Timing-free functional warming (sampled fast-forward) over
        ``(address, is_write)`` pairs.

        Each event is a demand access through :meth:`Cache.access` (L1,
        then L2 on a miss), so tag, LRU, dirty and prefetched-flag state
        end exactly as the timing path would leave them.  It charges no
        latency, touches no MSHR entry and discards what it counts:
        warming is never measured, and a window with no warm-up prefix
        never resets the statistics it starts with.
        """
        l1, l2 = self.l1, self.l2
        kept = l1.stats, l2.stats
        l1.stats, l2.stats = CacheStats(), CacheStats()
        for address, is_write in events:
            if not l1.access(address, is_write):
                l2.access(address)
        l1.stats, l2.stats = kept

    def settle(self) -> None:
        """Drain in-flight fill state between detailed intervals.

        Each sampled interval restarts the machine clock at 0, so fill
        ready-times recorded during the previous interval are meaningless;
        the lines themselves stay resident (allocation happened at access
        time), only the outstanding-miss bookkeeping is dropped.
        """
        self._inflight.clear()
        self._inflight_prefetch.clear()

    def reject_fill(self, block: int) -> None:
        """Discard the L1 line at *block* and its in-flight fill, so the
        next access re-misses (a fill whose data ECC rejected)."""
        self.l1.invalidate_block(block)
        self._inflight.pop(block, None)
        self._inflight_prefetch.discard(block)

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.stats = HierarchyStats()
        self.l1.stats = CacheStats()
        self.l2.stats = CacheStats()

    def outstanding_misses(self, now: int | None = None) -> int:
        """Fills currently in flight (for occupancy sampling)."""
        if now is not None:
            self._expire_inflight(now)
        return len(self._inflight)
