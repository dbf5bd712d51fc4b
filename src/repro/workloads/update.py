"""Update stressmark: pointer chasing with read-modify-write traffic.

Like Pointer, but every hop *writes back*: the visited slot is overwritten
with a running checksum before moving on.  The store data is produced by
the Computation Stream, so each hop also exercises the SDQ rendezvous —
Update is the benchmark where the paper reports HiDISC's largest speedup
(18.5%), driven by the CMP prefetching the line that both the load *and*
the subsequent store to the same address need.

Structure mirrors the DIS Update stressmark: many independent hop
sequences over a large field (serial within, parallel across).
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from ..utils import is_power_of_two
from .base import Workload
from .generators import mixed_starts, segmented_chain


class UpdateWorkload(Workload):
    """Run *sequences* chains of *hops* RMW hops through an *n*-word field."""

    name = "update"
    label = "Update"
    warmup_fraction = 0.35

    def __init__(self, n: int = 65536, sequences: int = 1400, hops: int = 2,
                 hot: int = 2048, hot_fraction: float = 0.95,
                 seed: int = 2003):
        super().__init__(seed=seed)
        if not is_power_of_two(n):
            raise ValueError("field size must be a power of two")
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
        b.data_i64("out", [0, 0])

        b.la("s0", "field")
        b.la("s1", "starts")
        b.li("s2", 0)                      # sequence index (AS)
        b.li("s3", self.sequences)
        b.li("s5", self.hops)
        b.li("s4", 0)                      # running checksum (CS)

        b.label("seqloop")
        b.slli("t0", "s2", 3)
        b.add("t0", "t0", "s1")
        b.ld("t1", 0, "t0")                # w = starts[seq]
        b.li("t5", 0)                      # hop counter (AS)
        b.label("hoploop")
        b.slli("t2", "t1", 3)
        b.add("t2", "t2", "s0")
        b.comment("next = field[w]")
        b.ld("t3", 0, "t2")
        # CS: checksum folds in the successor index.
        b.add("s4", "s4", "t3")
        b.xori("s4", "s4", 0x5D)
        b.comment("field[w] = checksum mod n — RMW with CS-produced data")
        b.andi("t4", "s4", self.n - 1)
        b.sd("t4", 0, "t2")
        b.mov("t1", "t3")
        b.addi("t5", "t5", 1)
        b.blt("t5", "s5", "hoploop")
        b.addi("s2", "s2", 1)
        b.blt("s2", "s3", "seqloop")

        b.la("a0", "out")
        b.sd("s4", 0, "a0")
        b.sd("t1", 8, "a0")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        field = self._field.copy()
        checksum = 0
        w = 0
        for start in self._starts:
            w = int(start)
            for _ in range(self.hops):
                nxt = int(field[w])
                checksum = (checksum + nxt) ^ 0x5D
                checksum &= (1 << 64) - 1
                if checksum >= 1 << 63:
                    checksum -= 1 << 64
                field[w] = checksum & (self.n - 1)
                w = nxt
        return {"out": np.array([checksum, w], dtype=np.int64)}
