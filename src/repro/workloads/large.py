"""Large-scale workload family: the sampled-simulation stress tier.

Each entry scales its benchmark family to **at least 50x the quick-suite
dynamic instruction count** (hundreds of thousands to about a million
instructions per benchmark).  At that scale full detailed simulation of
one (benchmark, model) cell takes long enough that the sampled driver
(:mod:`repro.sim.sampling`) is the practical way to run grids — which is
exactly what this tier exists to exercise: enough sampling periods for
the extrapolation to converge, with workload generation still cheap
enough to run inside benchmarks and CI.
"""

from __future__ import annotations

from .base import Workload
from .dm import DmWorkload
from .field import FieldWorkload
from .hashjoin import HashJoinWorkload
from .neighborhood import NeighborhoodWorkload
from .pointer import PointerWorkload
from .raytrace import RayTraceWorkload
from .spmv import SpmvWorkload
from .transitive import TransitiveWorkload
from .update import UpdateWorkload

#: name -> (family, constructor kwargs) producing >= 50x the quick-suite
#: dynamic instruction counts (asserted by tests/test_sampling.py; the
#: program images are pinned by tests/test_workloads.py).  Primary sizes
#: grow where footprint drives the access pattern; the secondary work
#: axis (queries / sequences / rays / pivots / probes) grows with them.
LARGE_WORKLOADS: dict[str, tuple[type[Workload], dict]] = {
    "dm": (DmWorkload, dict(n=16384, buckets=4096, queries=14400)),
    "raytrace": (RayTraceWorkload, dict(rays=15)),
    "pointer": (PointerWorkload, dict(sequences=9000, hops=4)),
    "update": (UpdateWorkload, dict(sequences=7000, hops=4)),
    "field": (FieldWorkload, dict(n=48000)),
    "neighborhood": (NeighborhoodWorkload, dict(size=160)),
    "transitive": (TransitiveWorkload, dict(kiters=14)),
    "hashjoin": (HashJoinWorkload,
                 dict(build=4096, probes=5400, buckets=1024)),
    "spmv": (SpmvWorkload, dict(rows=3700)),
}


def large_workload(name: str, seed: int = 2003) -> Workload:
    """One benchmark at large scale (``KeyError`` for unknown names)."""
    if name not in LARGE_WORKLOADS:
        raise KeyError(
            f"unknown large workload {name!r}; choose from "
            f"{sorted(LARGE_WORKLOADS)}")
    cls, kwargs = LARGE_WORKLOADS[name]
    return cls(**kwargs, seed=seed)
