"""Hash join: probe a chained hash index, accumulating over *all* matches.

A classic equi-join inner loop: the build side's keys are indexed with
:func:`~repro.workloads.generators.build_hash_chains` offline, and the
kernel streams the probe side through the index.  Unlike DM's first-hit
lookups, a join must walk every bucket chain to the end — the build keys
are drawn from a small key space so buckets hold genuine duplicates, and
each match contributes ``build_value * probe_value`` to the join payload.

Access character: like DM, the chain walk is serially dependent pointer
chasing through head/next/keys arrays in traversal order uncorrelated
with layout; the extra value-array touch per match adds a second
data-dependent load stream.  Match arithmetic (the multiply-accumulate)
is pure Computation Stream work.
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from ..utils import is_power_of_two
from .base import Workload
from .generators import build_hash_chains


class HashJoinWorkload(Workload):
    """Join *probes* probe records against an index over *build* records."""

    name = "hashjoin"
    label = "HashJoin"
    warmup_fraction = 0.3

    def __init__(self, build: int = 2048, probes: int = 600,
                 buckets: int = 512, hit_fraction: float = 0.5,
                 value_range: tuple[int, int] = (1, 1000),
                 seed: int = 2003):
        super().__init__(seed=seed)
        if not is_power_of_two(buckets):
            raise ValueError("buckets must be a power of two")
        lo, hi = value_range
        if lo > hi:
            raise ValueError("value_range lo must not exceed hi")
        self.build_n = build
        self.probes = probes
        self.buckets = buckets
        self.hit_fraction = hit_fraction
        self.value_range = (lo, hi)
        rng = self.rng()
        # small key space => buckets contain real duplicate keys
        key_space = max(2, build // 2)
        self._rkeys = rng.integers(0, key_space, size=build, dtype=np.int64)
        self._rvalues = rng.integers(lo, hi + 1, size=build, dtype=np.int64)
        self._head, self._next = build_hash_chains(self._rkeys, buckets)
        hits = rng.choice(self._rkeys, size=probes)
        misses = rng.integers(key_space, 2 * key_space, size=probes,
                              dtype=np.int64)
        take_hit = rng.random(probes) < hit_fraction
        self._pkeys = np.where(take_hit, hits, misses).astype(np.int64)
        self._pvalues = rng.integers(lo, hi + 1, size=probes, dtype=np.int64)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        b = ProgramBuilder(self.name)
        b.data_i64("rkeys", self._rkeys)
        b.data_i64("rvalues", self._rvalues)
        b.data_i64("next", self._next)
        b.data_i64("head", self._head)
        b.data_i64("pkeys", self._pkeys)
        b.data_i64("pvalues", self._pvalues)
        b.data_i64("out", [0, 0])

        b.la("s0", "rkeys")
        b.la("s1", "rvalues")
        b.la("s2", "next")
        b.la("s3", "head")
        b.la("s4", "pkeys")
        b.la("s5", "pvalues")
        b.li("a1", self.probes)
        b.li("s6", 0)                      # probe index
        b.li("s7", 0)                      # payload sum (CS)
        b.li("v0", 0)                      # match count (CS)
        b.li("t8", -1)                     # chain terminator

        b.label("ploop")
        b.slli("t0", "s6", 3)
        b.add("t1", "t0", "s4")
        b.ld("t2", 0, "t1")                # pkey
        b.add("t1", "t0", "s5")
        b.ld("t3", 0, "t1")                # pval
        b.andi("t4", "t2", self.buckets - 1)
        b.slli("t4", "t4", 3)
        b.add("t4", "t4", "s3")
        b.ld("t5", 0, "t4")                # p = head[h]
        b.label("chain")
        b.beq("t5", "t8", "done_p")
        b.slli("t6", "t5", 3)
        b.add("t7", "t6", "s0")
        b.ld("t9", 0, "t7")                # rkeys[p]
        b.bne("t9", "t2", "skip")
        b.comment("match: count += 1, sum += rvalues[p] * pval")
        b.addi("v0", "v0", 1)
        b.add("t7", "t6", "s1")
        b.ld("t9", 0, "t7")
        b.mul("t9", "t9", "t3")
        b.add("s7", "s7", "t9")            # CS accumulation
        b.label("skip")
        b.add("t7", "t6", "s2")
        b.ld("t5", 0, "t7")                # p = next[p]: walk the WHOLE chain
        b.j("chain")
        b.label("done_p")
        b.addi("s6", "s6", 1)
        b.blt("s6", "a1", "ploop")

        b.la("a0", "out")
        b.sd("v0", 0, "a0")
        b.sd("s7", 8, "a0")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        mask = self.buckets - 1
        count = 0
        total = 0
        for key, pval in zip(self._pkeys, self._pvalues):
            key, pval = int(key), int(pval)
            p = int(self._head[key & mask])
            while p != -1:
                if int(self._rkeys[p]) == key:
                    count += 1
                    total += int(self._rvalues[p]) * pval
                p = int(self._next[p])
        return {"out": np.array([count, total], dtype=np.int64)}
