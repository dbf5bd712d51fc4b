"""Differential program fuzzing for the HiDISC toolchain.

Every piece of this reproduction claims the same thing in a different
accent: the compiled and reference interpreter tables, the four timing
models, and the timing-vs-functional co-simulation oracle must all agree
on what a program *means*.  The fuzzer turns that claim into a search:

* :mod:`repro.fuzz.generator` draws seeded random programs over the
  ProgramBuilder DSL, constrained so every program terminates with
  defined semantics and stays AP-executable after separation;
* :mod:`repro.fuzz.harness` runs one program through every execution
  path and reports the first divergence (re-using
  :func:`repro.telemetry.diff.first_divergent_commit` for the
  bisection-ready answer);
* :mod:`repro.fuzz.shrink` delta-debugs a failing program down to a
  minimal statement list that still reproduces the divergence;
* :mod:`repro.fuzz.corpus` persists failures as replayable JSON;
* :mod:`repro.fuzz.campaign` ties it together for ``hidisc fuzz``.
"""

from .campaign import run_fuzz_campaign
from .corpus import load_repro, replay_repro, save_repro
from .generator import FuzzProgram, generate_program
from .harness import FAULTS, Divergence, check_program, injected_fault
from .shrink import shrink_program

__all__ = [
    "Divergence",
    "FAULTS",
    "FuzzProgram",
    "check_program",
    "generate_program",
    "injected_fault",
    "load_repro",
    "replay_repro",
    "run_fuzz_campaign",
    "save_repro",
    "shrink_program",
]
