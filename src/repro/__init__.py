"""Reproduction of *HiDISC: A Decoupled Architecture for Data-Intensive
Applications* (Ro, Gaudiot, Crago, Despain — IPDPS 2003).

Package map:

* :mod:`repro.isa` — the 64-bit RISC instruction set.
* :mod:`repro.asm` — assembler and program-builder DSL.
* :mod:`repro.slicer` — the HiDISC compiler (stream separation, CMAS).
* :mod:`repro.sim` — functional and cycle-level timing simulation.
* :mod:`repro.workloads` — the seven DIS benchmarks.
* :mod:`repro.experiments` — the harness regenerating every table/figure.
* :mod:`repro.telemetry` — event tracing, CPI stacks, occupancy sampling.

Quickstart::

    from repro import MachineConfig, assemble, compile_hidisc
    from repro.sim import Machine, generate_trace

    program = assemble(SOURCE)
    config = MachineConfig()
    comp = compile_hidisc(program, config)
    trace, _ = generate_trace(program)
    base = Machine(config, comp.original, trace, mode="superscalar").run()
"""

from .asm import Program, ProgramBuilder, assemble
from .config import (
    FIGURE10_LATENCIES,
    CacheConfig,
    CoreConfig,
    MachineConfig,
    SamplingPlan,
)
from .errors import ReproError
from .slicer import compile_hidisc
from .telemetry import Telemetry

__version__ = "1.2.0"

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "FIGURE10_LATENCIES",
    "MachineConfig",
    "Program",
    "ProgramBuilder",
    "ReproError",
    "SamplingPlan",
    "Telemetry",
    "__version__",
    "assemble",
    "compile_hidisc",
]
