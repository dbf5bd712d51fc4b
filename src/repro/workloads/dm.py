"""DM (Data Management) benchmark: hash-indexed record lookups.

The DIS Data Management benchmark models a database workload: records are
reached through an index whose traversal order is uncorrelated with memory
layout.  The reproduction builds a chained hash index offline (in the data
generator) and the kernel performs a stream of key lookups: hash the key,
walk the bucket chain comparing keys (integer compares driving branches —
legal AP work), and accumulate the values of the hits on the CP.

Access character: head/next/keys arrays total several hundred KiB and the
probe order is random — every chain hop is a likely L1 miss, and the chain
loads are serially dependent (pointer chasing through the index).
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from ..utils import is_power_of_two
from .base import Workload
from .generators import build_hash_chains, random_records


class DmWorkload(Workload):
    """Look up *queries* keys in a hash index over *n* records."""

    name = "dm"
    label = "DM"
    warmup_fraction = 0.3

    def __init__(self, n: int = 4096, buckets: int = 1024,
                 queries: int = 1800, hit_fraction: float = 0.5,
                 seed: int = 2003):
        super().__init__(seed=seed)
        if not is_power_of_two(buckets):
            raise ValueError("buckets must be a power of two")
        self.n = n
        self.buckets = buckets
        self.queries = queries
        self.hit_fraction = hit_fraction
        rng = self.rng()
        self._keys, self._values = random_records(rng, n, key_space=1 << 20)
        self._head, self._next = build_hash_chains(self._keys, buckets)
        # Half the queries target existing keys, half are uniform misses.
        hits = rng.choice(self._keys, size=queries)
        misses = rng.integers(0, 1 << 20, size=queries, dtype=np.int64)
        take_hit = rng.random(queries) < hit_fraction
        self._queries = np.where(take_hit, hits, misses).astype(np.int64)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        b = ProgramBuilder(self.name)
        b.data_i64("keys", self._keys)
        b.data_i64("values", self._values)
        b.data_i64("next", self._next)
        b.data_i64("head", self._head)
        b.data_i64("queries", self._queries)
        b.data_i64("out", [0])

        b.la("s0", "keys")
        b.la("s1", "values")
        b.la("s2", "next")
        b.la("s3", "head")
        b.la("s4", "queries")
        b.li("s5", self.queries)
        b.li("s6", 0)                      # query index
        b.li("s7", 0)                      # value sum of hits (CS)
        b.li("t8", -1)                     # chain terminator

        b.label("qloop")
        b.slli("t0", "s6", 3)
        b.add("t0", "t0", "s4")
        b.ld("t1", 0, "t0")                # key = queries[q]
        b.andi("t2", "t1", self.buckets - 1)
        b.slli("t2", "t2", 3)
        b.add("t2", "t2", "s3")
        b.ld("t3", 0, "t2")                # p = head[h]
        b.label("chain")
        b.beq("t3", "t8", "done_q")
        b.slli("t4", "t3", 3)
        b.add("t5", "t4", "s0")
        b.ld("t6", 0, "t5")                # keys[p]
        b.bne("t6", "t1", "next_p")
        b.comment("hit: sum += values[p]")
        b.add("t7", "t4", "s1")
        b.ld("t9", 0, "t7")
        b.add("s7", "s7", "t9")            # CS accumulation
        b.j("done_q")
        b.label("next_p")
        b.add("t7", "t4", "s2")
        b.ld("t3", 0, "t7")                # p = next[p]
        b.j("chain")
        b.label("done_q")
        b.addi("s6", "s6", 1)
        b.blt("s6", "s5", "qloop")

        b.la("a0", "out")
        b.sd("s7", 0, "a0")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        mask = self.buckets - 1
        total = 0
        for key in self._queries:
            key = int(key)
            p = int(self._head[key & mask])
            while p != -1:
                if int(self._keys[p]) == key:
                    total += int(self._values[p])
                    break
                p = int(self._next[p])
        return {"out": np.array([total], dtype=np.int64)}
