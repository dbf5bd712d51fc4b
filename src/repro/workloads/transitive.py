"""Transitive Closure stressmark: k-limited min-plus closure of a graph.

Floyd-Warshall relaxation over a dense distance matrix, restricted to the
first *kiters* pivots (enough rounds to exercise the access pattern
without cubing the runtime).  The inner loop streams two rows and
rewrites one of them; the minimum is computed branch-free and the store
data therefore comes from the Computation Stream.

The paper's findings for TC — no benefit from access/execute decoupling,
the best cache-miss reduction of the suite (26.7%) — come from exactly
this structure: every inner iteration synchronises through the SDQ (no
slip), while the row-streaming misses are perfectly coverable by the CMP.
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from .base import Workload
from .generators import random_distance_matrix


class TransitiveWorkload(Workload):
    """Min-plus closure over an *n* x *n* matrix, first *kiters* pivots."""

    name = "transitive"
    label = "TC"
    #: the first pivot round warms the caches; the second is measured.
    warmup_fraction = 0.5

    def __init__(self, n: int = 72, kiters: int = 2, density: float = 0.25,
                 seed: int = 2003):
        super().__init__(seed=seed)
        if kiters > n:
            raise ValueError("kiters cannot exceed n")
        self.n = n
        self.kiters = kiters
        self.density = density
        self._matrix = random_distance_matrix(self.rng(), n, density)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        n = self.n
        row_bytes = n * 8
        b = ProgramBuilder(self.name)
        b.data_i64("dist", self._matrix.ravel())

        b.la("s0", "dist")
        b.li("s1", self.kiters)
        b.li("a1", n)                       # row count
        b.li("s2", 0)                       # k

        b.label("kloop")
        # krow = dist + k*n*8
        b.muli("t0", "s2", row_bytes)
        b.add("s5", "t0", "s0")             # s5 = &dist[k][0]
        b.li("s3", 0)                       # i
        b.label("iloop")
        b.muli("t0", "s3", row_bytes)
        b.add("s6", "t0", "s0")             # s6 = &dist[i][0]
        # s8 = dist[i][k]
        b.slli("t1", "s2", 3)
        b.add("t1", "t1", "s6")
        b.ld("s7", 0, "t1")
        b.addi("a3", "s6", row_bytes)       # end of row i
        b.mov("t2", "s5")                   # t2 walks dist[k][*]
        b.mov("t4", "s6")                   # t4 walks dist[i][*]
        b.label("jloop")
        b.ld("t1", 0, "t2")                 # dkj
        b.ld("t3", 0, "t4")                 # dij
        # CS: new = min(dij, dik + dkj), branch-free.
        b.add("t5", "s7", "t1")
        b.slt("t6", "t5", "t3")
        b.sub("t6", "zero", "t6")
        b.xor("t7", "t3", "t5")
        b.and_("t7", "t7", "t6")
        b.xor("t7", "t7", "t3")
        b.sd("t7", 0, "t4")                 # SDQ rendezvous every element
        b.addi("t2", "t2", 8)
        b.addi("t4", "t4", 8)
        b.blt("t4", "a3", "jloop")
        b.addi("s3", "s3", 1)
        b.blt("s3", "a1", "iloop")
        b.addi("s2", "s2", 1)
        b.blt("s2", "s1", "kloop")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        n = self.n
        dist = self._matrix.copy()
        for k in range(self.kiters):
            for i in range(n):
                dik = int(dist[i, k])
                for j in range(n):
                    alt = dik + int(dist[k, j])
                    if alt < dist[i, j]:
                        dist[i, j] = alt
        return {"dist": dist}
