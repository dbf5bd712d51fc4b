"""Neighborhood stressmark: pixel co-occurrence over an image.

For every pixel the kernel loads the pixel and its diagonal neighbour at
distance *d*, updates a co-occurrence histogram indexed by the two pixel
*values* (data-dependent store addresses — the access pattern the paper
calls "non-contiguous"), accumulates a product sum, and writes a running
checksum per pixel.

The per-pixel checksum store is the paper's Neighborhood signature: its
data is produced by the Computation Stream, so the AP must rendezvous with
the CP through the SDQ *every iteration*.  These frequent synchronisations
are the "loss of decoupling" events that make CP+AP *slower* than the
baseline on this benchmark (paper §5.3) — the reproduction keeps that
behaviour measurable via the SDQ stall counters.
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from .base import Workload
from .generators import random_image


class NeighborhoodWorkload(Workload):
    """Co-occurrence histogram of an *size* x *size* image at distance *d*."""

    name = "neighborhood"
    label = "Neighborhood"
    warmup_fraction = 0.1

    def __init__(self, size: int = 64, distance: int = 2, levels: int = 16,
                 seed: int = 2003):
        super().__init__(seed=seed)
        if distance >= size:
            raise ValueError("distance must be smaller than the image size")
        self.size = size
        self.distance = distance
        self.levels = levels
        self._image = random_image(self.rng(), size, size, levels)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        n, d, levels = self.size, self.distance, self.levels
        span = n - d
        b = ProgramBuilder(self.name)
        b.data_i64("image", self._image.ravel())
        b.data_i64("hist", np.zeros(levels * levels, dtype=np.int64))
        b.data_i64("running", np.zeros(span * span, dtype=np.int64))
        b.data_i64("out", [0])

        b.la("s0", "image")
        b.la("s5", "hist")
        b.la("s7", "running")
        b.li("s1", span)                  # row/col limit
        b.li("s2", 0)                     # i
        b.li("s4", n)                     # row stride in words
        b.li("s6", 0)                     # product sum (CS)
        b.li("t8", 0)                     # pixel counter (AS)
        b.li("a2", levels)

        neighbor_off = d * (n + 1) * 8    # x[i+d, j+d] relative to x[i, j]

        b.label("iloop")
        b.li("s3", 0)                     # j
        b.label("jloop")
        b.mul("t0", "s2", "s4")
        b.add("t0", "t0", "s3")
        b.slli("t0", "t0", 3)
        b.add("t0", "t0", "s0")
        b.ld("t1", 0, "t0")               # p1
        b.ld("t2", neighbor_off, "t0")    # p2
        b.comment("hist[p1*levels + p2] += 1 (data-dependent address)")
        b.mul("t3", "t1", "a2")
        b.add("t3", "t3", "t2")
        b.slli("t3", "t3", 3)
        b.add("t3", "t3", "s5")
        b.ld("t4", 0, "t3")
        b.addi("t4", "t4", 1)             # CS: increment crosses the queues
        b.sd("t4", 0, "t3")
        b.mul("t5", "t1", "t2")           # CS: product sum
        b.add("s6", "s6", "t5")
        b.comment("running[pixel] = sum — per-pixel CP/AP rendezvous")
        b.slli("t6", "t8", 3)
        b.add("t6", "t6", "s7")
        b.sd("s6", 0, "t6")
        b.addi("t8", "t8", 1)
        b.addi("s3", "s3", 1)
        b.blt("s3", "s1", "jloop")
        b.addi("s2", "s2", 1)
        b.blt("s2", "s1", "iloop")

        b.la("a0", "out")
        b.sd("s6", 0, "a0")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        n, d, levels = self.size, self.distance, self.levels
        span = n - d
        img = self._image
        hist = np.zeros(levels * levels, dtype=np.int64)
        running = np.zeros(span * span, dtype=np.int64)
        total = 0
        k = 0
        for i in range(span):
            for j in range(span):
                p1 = int(img[i, j])
                p2 = int(img[i + d, j + d])
                hist[p1 * levels + p2] += 1
                total += p1 * p2
                running[k] = total
                k += 1
        return {
            "hist": hist,
            "running": running,
            "out": np.array([total], dtype=np.int64),
        }
