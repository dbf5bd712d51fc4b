"""The seven DIS benchmarks (paper §5.1).

=================  ====================================  =====================
Benchmark          Character                             Paper's observation
=================  ====================================  =====================
DM                 hash-index record lookups             prefetching helps
RayTray            FP-heavy nearest-hit search           decoupling helps
Pointer            serial pointer chasing                latency-tolerance demo
Update             pointer chasing + RMW stores          best speedup (18.5%)
Field              regular token scan                    decoupling > CMP
Neighborhood       per-pixel CP/AP synchronisation       CP+AP *degrades*
TC                 row-streaming min-plus closure        best miss cut (26.7%)
HashJoin*          full-chain hash-index join            (reproduction extra)
SpMV*              CSR gather mat-vec                    (reproduction extra)
=================  ====================================  =====================

(* not in the paper's DIS suite; added for coverage of join-style and
gather-style access patterns.)

Use :func:`all_workloads` / :func:`quick_workloads` for the paper-scale and
test-scale suites, :func:`get_workload` by name, or :func:`large_workload`
for one benchmark of the sampled-simulation tier.  Every tier is a fixed
set of constructor arguments.
"""

from __future__ import annotations

from .base import Workload, check_ap_executable
from .dm import DmWorkload
from .field import FieldWorkload
from .hashjoin import HashJoinWorkload
from .large import LARGE_WORKLOADS, large_workload
from .neighborhood import NeighborhoodWorkload
from .pointer import PointerWorkload
from .raytrace import RayTraceWorkload
from .spmv import SpmvWorkload
from .transitive import TransitiveWorkload
from .update import UpdateWorkload

#: Paper presentation order (Figure 8, left to right), followed by the
#: reproduction's extra data-intensive families.
WORKLOAD_CLASSES: tuple[type[Workload], ...] = (
    DmWorkload,
    RayTraceWorkload,
    PointerWorkload,
    UpdateWorkload,
    FieldWorkload,
    NeighborhoodWorkload,
    TransitiveWorkload,
    HashJoinWorkload,
    SpmvWorkload,
)

WORKLOADS_BY_NAME = {cls.name: cls for cls in WORKLOAD_CLASSES}


def all_workloads(seed: int = 2003) -> list[Workload]:
    """The full suite at paper scale (tens of thousands of dynamic
    instructions each — minutes of simulation for all four models)."""
    return [cls(seed=seed) for cls in WORKLOAD_CLASSES]


def quick_workloads(seed: int = 2003) -> list[Workload]:
    """Scaled-down suite for tests and quick benchmark runs."""
    return [
        DmWorkload(n=2048, buckets=512, queries=220, seed=seed),
        RayTraceWorkload(spheres=160, rays=2, seed=seed),
        PointerWorkload(n=8192, sequences=160, hops=4, seed=seed),
        UpdateWorkload(n=8192, sequences=130, hops=4, seed=seed),
        FieldWorkload(n=900, seed=seed),
        NeighborhoodWorkload(size=24, distance=2, seed=seed),
        TransitiveWorkload(n=26, kiters=2, seed=seed),
        HashJoinWorkload(build=512, probes=90, buckets=128, seed=seed),
        SpmvWorkload(rows=96, row_nnz=6, seed=seed),
    ]


def get_workload(name: str, quick: bool = False, seed: int = 2003) -> Workload:
    """Instantiate one benchmark by name."""
    if name not in WORKLOADS_BY_NAME:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS_BY_NAME)}"
        )
    source = quick_workloads(seed) if quick else all_workloads(seed)
    for workload in source:
        if workload.name == name:
            return workload
    raise AssertionError("unreachable")  # pragma: no cover


__all__ = [
    "DmWorkload",
    "FieldWorkload",
    "HashJoinWorkload",
    "LARGE_WORKLOADS",
    "NeighborhoodWorkload",
    "PointerWorkload",
    "RayTraceWorkload",
    "SpmvWorkload",
    "TransitiveWorkload",
    "UpdateWorkload",
    "WORKLOADS_BY_NAME",
    "WORKLOAD_CLASSES",
    "Workload",
    "all_workloads",
    "check_ap_executable",
    "get_workload",
    "large_workload",
    "quick_workloads",
]
