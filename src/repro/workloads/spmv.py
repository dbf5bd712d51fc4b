"""Sparse matrix-vector multiply (CSR, integer payload).

``y = A @ x`` with *A* in compressed-sparse-row form: ``rowptr`` bounds
each row's slice of ``colidx``/``vals``, and the inner loop gathers
``x[colidx[k]]`` — the canonical data-dependent gather.  Row lengths
vary (some rows are empty), so the inner trip count is data-driven.

Access character: ``rowptr``/``colidx``/``vals`` stream sequentially
(the Access Processor's bread and butter), while the ``x`` gather jumps
by the generator's column stride — small strides keep the gather
cache-resident, large strides turn every gather into a likely miss.
The multiply-accumulate is pure Computation Stream work.  Integer
payloads keep verification exact.
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from .base import Workload


class SpmvWorkload(Workload):
    """``y = A @ x`` over *rows* CSR rows of ~*row_nnz* entries each."""

    name = "spmv"
    label = "SpMV"
    warmup_fraction = 0.1

    def __init__(self, rows: int = 384, row_nnz: int = 8,
                 stride: int = 1, value_range: tuple[int, int] = (1, 100),
                 seed: int = 2003):
        super().__init__(seed=seed)
        if rows <= 0 or row_nnz <= 0 or stride <= 0:
            raise ValueError("rows, row_nnz and stride must be positive")
        lo, hi = value_range
        if lo > hi:
            raise ValueError("value_range lo must not exceed hi")
        self.rows = rows
        self.row_nnz = row_nnz
        self.stride = stride
        self.value_range = (lo, hi)
        cols = rows  # square matrix; x has one slot per column
        rng = self.rng()
        rowptr = [0]
        colidx: list[int] = []
        # columns land on multiples of the stride, so the gather's reach
        # scales with it (stride 1 = dense-ish reuse, large = scattered)
        reach = max(1, cols // stride)
        for _ in range(rows):
            nnz = int(rng.integers(0, 2 * row_nnz + 1))  # empty rows happen
            picks = np.unique(
                (rng.integers(0, reach, size=nnz) * stride) % cols
            ) if nnz else np.empty(0, dtype=np.int64)
            colidx.extend(int(c) for c in picks)
            rowptr.append(len(colidx))
        self._rowptr = np.asarray(rowptr, dtype=np.int64)
        self._colidx = np.asarray(colidx, dtype=np.int64)
        self._vals = rng.integers(lo, hi + 1, size=len(colidx), dtype=np.int64)
        self._x = rng.integers(lo, hi + 1, size=cols, dtype=np.int64)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        b = ProgramBuilder(self.name)
        b.data_i64("rowptr", self._rowptr)
        b.data_i64("colidx", self._colidx if len(self._colidx) else [0])
        b.data_i64("vals", self._vals if len(self._vals) else [0])
        b.data_i64("x", self._x)
        b.data_space("y", self.rows * 8)

        b.la("s0", "rowptr")
        b.la("s1", "colidx")
        b.la("s2", "vals")
        b.la("s3", "x")
        b.la("s4", "y")
        b.li("s5", self.rows)
        b.li("s6", 0)                      # row index

        b.label("rloop")
        b.slli("t0", "s6", 3)
        b.add("t1", "t0", "s0")
        b.ld("t2", 0, "t1")                # k    = rowptr[r]
        b.ld("t3", 8, "t1")                # kend = rowptr[r+1]
        b.li("s7", 0)                      # acc (CS)
        b.label("inner")
        b.bge("t2", "t3", "row_done")      # handles empty rows too
        b.slli("t4", "t2", 3)
        b.add("t5", "t4", "s1")
        b.ld("t6", 0, "t5")                # c = colidx[k]
        b.add("t7", "t4", "s2")
        b.ld("t9", 0, "t7")                # v = vals[k]
        b.slli("t6", "t6", 3)
        b.add("t6", "t6", "s3")
        b.ld("t6", 0, "t6")                # x[c]  (the gather)
        b.mul("t9", "t9", "t6")
        b.add("s7", "s7", "t9")            # CS accumulation
        b.addi("t2", "t2", 1)
        b.j("inner")
        b.label("row_done")
        b.add("t0", "t0", "s4")
        b.sd("s7", 0, "t0")                # y[r]
        b.addi("s6", "s6", 1)
        b.blt("s6", "s5", "rloop")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        y = np.zeros(self.rows, dtype=np.int64)
        for r in range(self.rows):
            lo, hi = int(self._rowptr[r]), int(self._rowptr[r + 1])
            for k in range(lo, hi):
                y[r] += self._vals[k] * self._x[self._colidx[k]]
        return {"y": y}
