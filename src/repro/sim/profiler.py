"""Cache-access profiling (paper §3.1/§4.2).

The HiDISC compiler selects *probable cache miss instructions* from a
cache-access profile of the binary.  This module replays a functional
trace through a fresh Table-1 cache hierarchy (demand accesses only, in
program order) and reports per-static-instruction access and miss counts.

The profile deliberately uses the *sequential* access order — it models a
profiling run of the original binary on a conventional machine, which is
what the paper's compiler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asm.program import Program
from ..config import MachineConfig
from .cache import Cache
from .trace import Trace


@dataclass
class PcProfile:
    """Access/miss counts of one static memory instruction."""

    accesses: int = 0
    misses: int = 0
    #: of the L1 misses, how many also missed L2 (went to memory).
    l2_misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """Fraction of the L1 misses that continued to main memory."""
        return self.l2_misses / self.misses if self.misses else 0.0

    def expected_latency(self, l1_latency: int, l2_latency: int,
                         memory_latency: int) -> float:
        """Profile-estimated average latency of this instruction."""
        latency = float(l1_latency)
        latency += self.miss_rate * l2_latency
        latency += self.miss_rate * self.l2_miss_rate * memory_latency
        return latency


@dataclass
class CacheProfile:
    """Per-PC cache behaviour of one (program, input) pair."""

    per_pc: dict[int, PcProfile] = field(default_factory=dict)
    total_accesses: int = 0
    total_misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.total_misses / self.total_accesses if self.total_accesses else 0.0

    def probable_miss_pcs(self, threshold: float,
                          min_accesses: int = 4) -> set[int]:
        """Static PCs whose miss rate exceeds *threshold* (paper's
        'probable cache miss instructions')."""
        return {
            pc for pc, prof in self.per_pc.items()
            if prof.accesses >= min_accesses and prof.miss_rate >= threshold
        }


def profile_cache(
    program: Program,
    trace,
    config: MachineConfig,
) -> CacheProfile:
    """Replay memory accesses of *trace* through L1+L2; collect per-PC stats.

    Only loads are candidates for CMAS selection, but stores also touch the
    caches during profiling (they shape the contents, and write misses are
    counted per PC too).  The opcodes say which instructions access
    memory, so profiling needs no decode table.
    """
    trace = Trace.of(trace)
    text = program.text
    is_store = [instr.is_store for instr in text]
    pcs, addrs = trace.pc, trace.addr
    l1 = Cache(config.l1)
    l2 = Cache(config.l2)
    profile = CacheProfile()
    per_pc = profile.per_pc
    for i in trace.positions(text, "is_mem").tolist():
        addr = addrs[i]
        pc = pcs[i]
        prof = per_pc.get(pc)
        if prof is None:
            prof = per_pc[pc] = PcProfile()
        prof.accesses += 1
        if not l1.access(addr, is_store[pc]):
            prof.misses += 1
            if not l2.access(addr):
                prof.l2_misses += 1
    profile.total_accesses = l1.stats.demand_accesses
    profile.total_misses = l1.stats.demand_misses
    return profile
