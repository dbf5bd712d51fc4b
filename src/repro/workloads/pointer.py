"""Pointer stressmark: pointer (index) chasing through a large field.

Following the DIS Pointer stressmark's structure, the kernel runs many
independent *hop sequences*: each starts at a random index of a large word
field and follows ``w = field[w]`` for a fixed number of hops.  Hops
within a sequence are serially dependent (the access no prefetcher can
predict); different sequences are independent, which is the memory-level
parallelism a pre-executing CMP can exploit — it walks several sequences
ahead of the AP, which is what gives HiDISC its latency tolerance on this
benchmark (paper Figure 10).

Alongside the chase, each hop folds the visited index into an xor-sum and
a branch-free running minimum — Computation-Stream work that crosses the
LDQ every hop.

Memory behaviour: with the default 64 Ki-word (512 KiB) field and random
start points, nearly every hop misses L1 and most miss L2.
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from .base import Workload
from .generators import mixed_starts, segmented_chain

_MIN_INIT = 1 << 62


class PointerWorkload(Workload):
    """Run *sequences* chains of *hops* hops through an *n*-word field."""

    name = "pointer"
    label = "Pointer"
    warmup_fraction = 0.35

    def __init__(self, n: int = 65536, sequences: int = 1800, hops: int = 2,
                 hot: int = 2048, hot_fraction: float = 0.97,
                 seed: int = 2003):
        super().__init__(seed=seed)
        self.n = n
        self.sequences = sequences
        self.hops = hops
        self.hot = hot
        self.hot_fraction = hot_fraction
        rng = self.rng()
        self._field = segmented_chain(rng, n, hot)
        self._starts = mixed_starts(rng, sequences, n, hot, hot_fraction)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        b = ProgramBuilder(self.name)
        b.data_i64("field", self._field)
        b.data_i64("starts", self._starts)
        b.data_i64("out", [0, 0, 0])

        b.la("s0", "field")
        b.la("s1", "starts")
        b.li("s2", 0)                      # sequence index (AS)
        b.li("s3", self.sequences)
        b.li("s5", self.hops)
        b.li("s4", 0)                      # xor accumulator (CS)
        b.li64("s6", _MIN_INIT)            # running minimum (CS)

        b.label("seqloop")
        b.slli("t0", "s2", 3)
        b.add("t0", "t0", "s1")
        b.ld("t1", 0, "t0")                # w = starts[seq]
        b.li("t5", 0)                      # hop counter (AS)
        b.label("hoploop")
        b.slli("t2", "t1", 3)
        b.add("t2", "t2", "s0")
        b.comment("w = field[w] — the serial chase")
        b.ld("t1", 0, "t2")
        b.xor("s4", "s4", "t1")            # CS: xor-sum of visited indices
        # CS: branch-free minimum  min ^= (w ^ min) & -(w < min)
        b.slt("t6", "t1", "s6")
        b.sub("t7", "zero", "t6")
        b.xor("t8", "t1", "s6")
        b.and_("t8", "t8", "t7")
        b.xor("s6", "s6", "t8")
        b.addi("t5", "t5", 1)
        b.blt("t5", "s5", "hoploop")
        b.addi("s2", "s2", 1)
        b.blt("s2", "s3", "seqloop")

        b.la("a0", "out")
        b.sd("s4", 0, "a0")
        b.sd("s6", 8, "a0")
        b.sd("t1", 16, "a0")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        field = self._field
        acc = 0
        minimum = _MIN_INIT
        w = 0
        for start in self._starts:
            w = int(start)
            for _ in range(self.hops):
                w = int(field[w])
                acc ^= w
                if w < minimum:
                    minimum = w
        return {"out": np.array([acc, minimum, w], dtype=np.int64)}
