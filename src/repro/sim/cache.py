"""Set-associative cache model with true-LRU replacement.

The cache stores only tags and dirty bits — data always lives in
:class:`~repro.sim.memory.MainMemory` (the functional simulator keeps the
architectural state; caches exist purely for timing and statistics, which
is exactly how sim-outorder structures it too).

Accesses are classified as *demand* (issued by the CP/AP/superscalar
pipeline) or *prefetch* (issued by the CMP running a CMAS).  Figure 9 of
the paper reports demand-miss reduction, so the two classes are counted
separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CacheConfig
from ..utils import ilog2


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

    def merge(self, other: "CacheStats") -> None:
        for name in (
            "demand_accesses", "demand_misses", "prefetch_accesses",
            "prefetch_misses", "writebacks", "evictions", "useful_prefetch_hits",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))

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


@dataclass
class _Line:
    tag: int
    dirty: bool = False
    #: line was installed by a CMP prefetch and not yet demand-touched
    prefetched: bool = False


@dataclass
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Block-aligned byte address of the evicted dirty line, if any.
    writeback_address: int | None = None


class Cache:
    """One level of set-associative, write-back, write-allocate cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.block_bits = ilog2(config.block_bytes)
        self.set_bits = ilog2(config.sets)
        self.set_mask = config.sets - 1
        # Each set is an MRU-first list of _Line.
        self._sets: list[list[_Line]] = [[] for _ in range(config.sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _index_tag(self, address: int) -> tuple[int, int]:
        block = address >> self.block_bits
        return block & self.set_mask, block >> self.set_bits

    def block_address(self, address: int) -> int:
        """Block-aligned address containing *address*."""
        return (address >> self.block_bits) << self.block_bits

    # ------------------------------------------------------------------
    def probe(self, address: int) -> bool:
        """Non-destructive lookup: True on hit.  No LRU update, no stats."""
        index, tag = self._index_tag(address)
        return any(line.tag == tag for line in self._sets[index])

    def access(self, address: int, is_write: bool = False,
               is_prefetch: bool = False) -> AccessResult:
        """Perform one access: lookup, LRU update, fill + eviction on miss."""
        index, tag = self._index_tag(address)
        lines = self._sets[index]
        stats = self.stats

        if is_prefetch:
            stats.prefetch_accesses += 1
        else:
            stats.demand_accesses += 1

        for pos, line in enumerate(lines):
            if line.tag == tag:
                if pos:
                    lines.insert(0, lines.pop(pos))
                if is_write:
                    line.dirty = True
                if not is_prefetch and line.prefetched:
                    stats.useful_prefetch_hits += 1
                    line.prefetched = False
                return AccessResult(hit=True)

        # Miss: allocate (write-allocate policy covers stores too).
        if is_prefetch:
            stats.prefetch_misses += 1
        else:
            stats.demand_misses += 1

        writeback = None
        if len(lines) >= self.config.ways:
            victim = lines.pop()
            stats.evictions += 1
            if victim.dirty:
                stats.writebacks += 1
                victim_block = (victim.tag << self.set_bits) | index
                writeback = victim_block << self.block_bits
        lines.insert(0, _Line(tag=tag, dirty=is_write, prefetched=is_prefetch))
        return AccessResult(hit=False, writeback_address=writeback)

    def invalidate_all(self) -> None:
        """Drop every line (between benchmark runs)."""
        self._sets = [[] for _ in range(self.config.sets)]

    def invalidate_block(self, address: int) -> bool:
        """Drop the line containing *address* if resident; True if dropped.

        Models a corrupted fill detected by ECC (repro.resilience fault
        injection): the architectural data always lives in main memory, so
        discarding the line is safe — the next access simply re-fetches.
        No statistics are charged; the re-fetch shows up as an ordinary
        miss.
        """
        index, tag = self._index_tag(address)
        lines = self._sets[index]
        for pos, line in enumerate(lines):
            if line.tag == tag:
                del lines[pos]
                return True
        return False

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    def resident_blocks(self) -> set[int]:
        """Set of block-aligned addresses currently cached (for tests)."""
        out = set()
        for index, lines in enumerate(self._sets):
            for line in lines:
                block = (line.tag << self.set_bits) | index
                out.add(block << self.block_bits)
        return out
