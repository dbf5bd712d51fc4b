"""The HiDISC compiler: stream separation, communication, CMAS extraction.

The one-call entry point is :func:`compile_hidisc`, which reproduces the
paper's Figure 4 pipeline:

1. derive the Program Flow Graph (:mod:`repro.slicer.pfg`),
2. define load/store instructions and chase backward slices
   (:mod:`repro.slicer.separation`),
3. insert communication instructions (:mod:`repro.slicer.communication`),
4. select the CMAS from a cache-access profile (:mod:`repro.slicer.cmas`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.program import Program
from ..config import MachineConfig
from .adaptive import adaptive_trigger_distances
from .cfg import BasicBlock, ControlFlowGraph
from .cmas import CmasSelection, extract_cmas
from .communication import DecoupledProgram, insert_communication
from .dataflow import ENTRY_DEF, DefUse, compute_def_use
from .pfg import ProgramFlowGraph
from .separation import SeparationResult, separate
from .validate import validate_decoupled_static, validate_separation


@dataclass
class HidiscCompilation:
    """Everything the machines need, for one (program, input) pair."""

    #: original program annotated with streams + CMAS marks (run by the
    #: ``superscalar`` and ``cp_cmp`` models).
    original: Program
    #: decoupled program with communication instructions (run by the
    #: ``cp_ap`` and ``hidisc`` models).
    decoupled: Program
    separation: SeparationResult
    communication: DecoupledProgram
    selection: CmasSelection

    def report(self) -> dict[str, int]:
        """Static compilation statistics (for examples and docs)."""
        counts = self.separation.counts()
        return {
            "static_instructions": counts["total"],
            "access_stream": counts["access"],
            "computation_stream": counts["computation"],
            "ldq_pairs": self.communication.ldq_pairs,
            "sdq_stores": self.communication.sdq_stores,
            "probable_miss_loads": len(self.selection.probable_miss_pcs),
            "cmas_instructions": self.selection.slice_size,
        }


def compile_hidisc(
    program: Program,
    config: MachineConfig,
    trace=None,
    probable_miss_pcs: set[int] | None = None,
) -> HidiscCompilation:
    """Run the full HiDISC compiler on *program*.

    The cache-access profile needs a training run; pass a pre-computed
    *trace* to reuse one, or let this function generate it.  Pass
    *probable_miss_pcs* to bypass profiling entirely (tests, ablations).
    """
    sep = separate(program)
    validate_separation(sep)
    annotated_original = sep.annotate()

    comm = insert_communication(sep)
    decoupled = comm.program

    if probable_miss_pcs is None:
        from ..sim.profiler import profile_cache
        from ..sim.trace import generate_trace

        if trace is None:
            trace, _ = generate_trace(program)
        profile = profile_cache(program, trace, config)
        probable_miss_pcs = {
            pc for pc in profile.probable_miss_pcs(config.cmas.miss_rate_threshold)
            if program.text[pc].is_load
        }

    selection = extract_cmas(sep, probable_miss_pcs)
    selection.apply(annotated_original)
    selection.apply(decoupled, comm.instr_map)
    validate_decoupled_static(decoupled)

    return HidiscCompilation(
        original=annotated_original,
        decoupled=decoupled,
        separation=sep,
        communication=comm,
        selection=selection,
    )


__all__ = [
    "BasicBlock",
    "adaptive_trigger_distances",
    "CmasSelection",
    "ControlFlowGraph",
    "DecoupledProgram",
    "DefUse",
    "ENTRY_DEF",
    "HidiscCompilation",
    "ProgramFlowGraph",
    "SeparationResult",
    "compile_hidisc",
    "compute_def_use",
    "extract_cmas",
    "insert_communication",
    "separate",
    "validate_decoupled_static",
    "validate_separation",
]
