"""Set-associative cache model with true-LRU replacement.

The cache stores only tags and dirty bits — data always lives in
:class:`~repro.sim.memory.MainMemory` (the functional simulator keeps the
architectural state; caches exist purely for timing and statistics, which
is exactly how sim-outorder structures it too).

Accesses are classified as *demand* (issued by the CP/AP/superscalar
pipeline) or *prefetch* (issued by the CMP running a CMAS).  Figure 9 of
the paper reports demand-miss reduction, so the two classes are counted
separately.

:meth:`Cache.access` is the one LRU routine: the timing hierarchy's demand
and prefetch path, sampled functional warming and the compiler's cache
profile all go through it.  Each set is a dict from tag to flag bits whose
insertion order is the LRU order (oldest first), so a lookup is one dict
operation and a hit re-inserts its tag at the MRU end.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CacheConfig
from ..utils import ilog2

#: Flag bits of a resident line.
DIRTY = 1
#: Installed by a CMP prefetch and not yet demand-touched.
PREFETCHED = 2


@dataclass
class CacheStats:
    """Counters for one cache level."""

    demand_accesses: int = 0
    demand_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_misses: int = 0
    writebacks: int = 0
    evictions: int = 0
    #: Demand misses that hit a line brought in by a prefetch (usefulness).
    useful_prefetch_hits: int = 0

    @property
    def demand_miss_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    def as_dict(self) -> dict[str, float]:
        """JSON-ready counters (used by the `hidisc stats` payload)."""
        return {
            "demand_accesses": self.demand_accesses,
            "demand_misses": self.demand_misses,
            "demand_miss_rate": self.demand_miss_rate,
            "prefetch_accesses": self.prefetch_accesses,
            "prefetch_misses": self.prefetch_misses,
            "writebacks": self.writebacks,
            "evictions": self.evictions,
            "useful_prefetch_hits": self.useful_prefetch_hits,
        }


class Cache:
    """One level of set-associative, write-back, write-allocate cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.block_bits = ilog2(config.block_bytes)
        self.set_bits = ilog2(config.sets)
        self.set_mask = config.sets - 1
        # Each set maps tag -> flag bits, least recently used first.
        self._sets: list[dict[int, int]] = [{} for _ in range(config.sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _set_tag(self, address: int) -> tuple[dict[int, int], int]:
        block = address >> self.block_bits
        return self._sets[block & self.set_mask], block >> self.set_bits

    def block_address(self, address: int) -> int:
        """Block-aligned address containing *address*."""
        return (address >> self.block_bits) << self.block_bits

    # ------------------------------------------------------------------
    def probe(self, address: int) -> bool:
        """Non-destructive lookup: True on hit.  No LRU update, no stats."""
        lines, tag = self._set_tag(address)
        return tag in lines

    def access(self, address: int, is_write: bool = False,
               is_prefetch: bool = False) -> bool:
        """Perform one access: lookup, LRU update, fill + eviction on miss.

        Returns True on a hit.
        """
        block = address >> self.block_bits
        lines = self._sets[block & self.set_mask]
        tag = block >> self.set_bits
        stats = self.stats
        if is_prefetch:
            stats.prefetch_accesses += 1
        else:
            stats.demand_accesses += 1

        flags = lines.pop(tag, None)
        if flags is not None:
            if not is_prefetch and flags & PREFETCHED:
                stats.useful_prefetch_hits += 1
                flags ^= PREFETCHED
            lines[tag] = (flags | DIRTY) if is_write else flags
            return True

        # Miss: allocate (write-allocate policy covers stores too).
        if is_prefetch:
            stats.prefetch_misses += 1
        else:
            stats.demand_misses += 1
        if len(lines) >= self.config.ways:
            stats.evictions += 1
            if lines.pop(next(iter(lines))) & DIRTY:
                stats.writebacks += 1
        lines[tag] = ((DIRTY if is_write else 0)
                      | (PREFETCHED if is_prefetch else 0))
        return False

    def invalidate_block(self, address: int) -> bool:
        """Drop the line containing *address* if resident; True if dropped.

        Models a corrupted fill detected by ECC (repro.resilience fault
        injection): the architectural data always lives in main memory, so
        discarding the line is safe — the next access simply re-fetches.
        No statistics are charged; the re-fetch shows up as an ordinary
        miss.
        """
        lines, tag = self._set_tag(address)
        return lines.pop(tag, None) is not None

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    def resident_blocks(self) -> set[int]:
        """Set of block-aligned addresses currently cached (for tests)."""
        return {((tag << self.set_bits) | index) << self.block_bits
                for index, lines in enumerate(self._sets) for tag in lines}
