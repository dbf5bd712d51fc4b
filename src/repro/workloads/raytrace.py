"""Ray Tracing benchmark: primary-ray culling census over a sphere set.

The DIS suite's Ray Tracing application is the floating-point member of
the benchmark set.  The reproduction models the hot inner stage of a
tracer's primary-ray cast: for each ray it scans the structure-of-arrays
sphere set, computes the projection of every sphere centre onto the ray
(``b = d . c``), counts the spheres inside the acceptance cone
(``b > cut``) and tracks the maximum projection — the census a tracer
uses to cull and order intersection candidates.

Everything data-dependent is branch-free: the hit predicate is an ``flt``
into an integer accumulator, the maximum an ``fmax`` — so the Access
Stream stays pure integer (loads, indices, loop control) while the FP
pipeline runs on the CP.  The computation slice per sphere (8 ops) is
sized so the CP's 16-entry window can overlap two iterations; three FP
loads cross the LDQ per sphere, the heaviest queue traffic of the suite.
"""

from __future__ import annotations

import numpy as np

from ..asm.builder import ProgramBuilder
from ..asm.program import Program
from .base import Workload
from .generators import random_rays, random_spheres

_CUT = 60.0


class RayTraceWorkload(Workload):
    """Culling census: *rays* rays against *spheres* spheres."""

    name = "raytrace"
    label = "RayTray"
    #: the first ray's pass over the sphere arrays warms the caches.
    warmup_fraction = 0.34

    def __init__(self, spheres: int = 2048, rays: int = 3, seed: int = 2003):
        super().__init__(seed=seed)
        self.n_spheres = spheres
        self.n_rays = rays
        rng = self.rng()
        self._spheres = random_spheres(rng, spheres)
        self._rays = random_rays(rng, rays)

    # ------------------------------------------------------------------
    def build(self) -> Program:
        b = ProgramBuilder(self.name)
        s = self._spheres
        b.data_f64("cx", s["cx"])
        b.data_f64("cy", s["cy"])
        b.data_f64("cz", s["cz"])
        r = self._rays
        b.data_f64("dirs", np.column_stack([r["dx"], r["dy"], r["dz"]]).ravel())
        b.data_f64("bmax", np.zeros(self.n_rays))
        b.data_i64("hits", np.zeros(self.n_rays, dtype=np.int64))
        b.data_f64("fconst", [-1.0e30, _CUT])

        b.la("s0", "cx")
        b.la("s1", "cy")
        b.la("s2", "cz")
        b.la("s4", "dirs")
        b.la("s5", "bmax")
        b.la("a0", "hits")
        b.li("s6", 0)                       # ray index
        b.li("s7", self.n_rays)
        b.li("a1", self.n_spheres * 8)      # byte extent of sphere arrays
        b.la("a2", "fconst")
        b.fld("f22", 0, "a2")               # -BIG (bmax identity)
        b.fld("f21", 8, "a2")               # acceptance-cone cut

        b.label("rayloop")
        b.muli("t0", "s6", 24)
        b.add("t0", "t0", "s4")
        b.fld("f0", 0, "t0")                # dx
        b.fld("f1", 8, "t0")                # dy
        b.fld("f2", 16, "t0")               # dz
        b.fmov("f19", "f22")                # bmax = -BIG  (CS)
        b.li("v0", 0)                       # hit count   (CS)
        b.li("t1", 0)                       # sphere byte offset (AS)

        b.label("sphloop")
        b.add("t2", "t1", "s0")
        b.fld("f3", 0, "t2")                # cx
        b.add("t2", "t1", "s1")
        b.fld("f4", 0, "t2")                # cy
        b.add("t2", "t1", "s2")
        b.fld("f5", 0, "t2")                # cz
        # CS: b = dx*cx + dy*cy + cz ; census.  (Primary rays point down
        # +z with dz ~= 1, so the tracer's culling metric folds the z term
        # in unscaled — one multiply fewer on the single FP MUL unit.)
        b.fmul("f7", "f0", "f3")
        b.fmul("f8", "f1", "f4")
        b.fadd("f7", "f7", "f8")
        b.fadd("f7", "f7", "f5")            # f7 = b
        b.fmax("f19", "f19", "f7")          # running max projection
        b.flt("t3", "f21", "f7")            # inside the cone iff b > cut
        b.add("v0", "v0", "t3")
        b.addi("t1", "t1", 8)
        b.blt("t1", "a1", "sphloop")

        b.comment("bmax[ray], hits[ray] = census results")
        b.slli("t5", "s6", 3)
        b.add("t6", "t5", "s5")
        b.fsd("f19", 0, "t6")
        b.add("t6", "t5", "a0")
        b.sd("v0", 0, "t6")
        b.addi("s6", "s6", 1)
        b.blt("s6", "s7", "rayloop")
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    def expected_outputs(self) -> dict[str, object]:
        s = self._spheres
        r = self._rays
        bmax = np.empty(self.n_rays)
        hits = np.empty(self.n_rays, dtype=np.int64)
        for i in range(self.n_rays):
            dx, dy, dz = r["dx"][i], r["dy"][i], r["dz"][i]
            best = -1.0e30
            count = 0
            for j in range(self.n_spheres):
                bq = (dx * s["cx"][j] + dy * s["cy"][j]) + s["cz"][j]
                best = max(best, bq)
                if bq > _CUT:
                    count += 1
            bmax[i] = best
            hits[i] = count
        return {"bmax": bmax, "hits": hits}
