"""Simulation layer: functional golden model, caches, queues, timing cores.

Typical use::

    from repro.sim import generate_trace, Machine
    trace, state = generate_trace(program)   # a columnar Trace
    result = Machine(config, program, trace, mode="superscalar").run()
"""

from .branch import BranchPredictor, BranchStats, BranchTargetBuffer
from .cache import Cache, CacheStats
from .decoupled import MODES, Machine
from .functional import (
    ArchState,
    DecoupledFunctionalSimulator,
    DynInstr,
    FunctionalSimulator,
    load_program,
)
from .hierarchy import HierarchyStats, MemoryHierarchy
from .machine import RunResult
from .memory import MainMemory
from .profiler import CacheProfile, PcProfile, profile_cache
from .queues import ArchQueue, QueueSet, QueueStats
from .sampling import WarmupProbe, build_schedule, run_sampled
from .trace import (
    CmasPlan,
    QueuePlan,
    Trace,
    build_cmas_plan,
    build_queue_plan,
    generate_decoupled_trace,
    generate_trace,
)

__all__ = [
    "ArchQueue",
    "ArchState",
    "BranchPredictor",
    "BranchStats",
    "BranchTargetBuffer",
    "Cache",
    "CacheProfile",
    "CacheStats",
    "CmasPlan",
    "DecoupledFunctionalSimulator",
    "DynInstr",
    "FunctionalSimulator",
    "HierarchyStats",
    "MODES",
    "Machine",
    "MainMemory",
    "MemoryHierarchy",
    "PcProfile",
    "QueuePlan",
    "QueueSet",
    "QueueStats",
    "RunResult",
    "Trace",
    "WarmupProbe",
    "build_cmas_plan",
    "build_queue_plan",
    "build_schedule",
    "generate_decoupled_trace",
    "generate_trace",
    "load_program",
    "profile_cache",
    "run_sampled",
]
