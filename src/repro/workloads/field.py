"""Field stressmark: token search through a byte field.

A sequential scan over a random byte array counting occurrences of a token
and accumulating a position-weighted checksum.  Accesses are regular and
spatially local (one miss per 32-byte line), so the cache behaves well —
this is the benchmark where the paper notes the CMP contributes little
("contains a relatively small number of cache misses") while the
access/execute *decoupling* itself shows its merit: every loaded byte and
every index crosses to the CP, which does the comparison arithmetic.

Matching is branch-free (``xori`` + ``slti``) so the comparison chain stays
in the Computation Stream.
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from .base import Workload
from .generators import random_bytes


class FieldWorkload(Workload):
    """Scan *n* bytes for *token*; count hits and weighted positions."""

    name = "field"
    label = "Field"
    warmup_fraction = 0.1

    def __init__(self, n: int = 6000, token: int = 0x42, seed: int = 2003):
        super().__init__(seed=seed)
        if not 0 <= token < 256:
            raise ValueError("token must be a byte")
        self.n = n
        self.token = token
        self._data = random_bytes(self.rng(), n)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        b = ProgramBuilder(self.name)
        b.data_bytes("bytes", self._data.tobytes())
        b.align(8)
        b.data_i64("out", [0, 0])

        b.la("s0", "bytes")
        b.li("s1", self.n)
        b.li("s2", 0)                      # index i (AS)
        b.li("s3", 0)                      # match count (CS)
        b.li("s4", 0)                      # weighted position sum (CS)

        b.label("loop")
        b.add("t5", "s0", "s2")
        b.lbu("t0", 0, "t5")
        # CS: eq = (byte == token), branch-free.
        b.xori("t1", "t0", self.token)
        b.slti("t1", "t1", 1)
        b.add("s3", "s3", "t1")
        b.mul("t2", "t1", "s2")            # eq * i
        b.add("s4", "s4", "t2")
        b.addi("s2", "s2", 1)
        b.blt("s2", "s1", "loop")

        b.la("a0", "out")
        b.sd("s3", 0, "a0")
        b.sd("s4", 8, "a0")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        matches = self._data == self.token
        count = int(matches.sum())
        wsum = int(np.flatnonzero(matches).sum())
        return {"out": np.array([count, wsum], dtype=np.int64)}
