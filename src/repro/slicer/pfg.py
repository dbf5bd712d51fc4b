"""Program Flow Graph (paper §4.2, step 1: "Deriving the Program Flow Graph").

The PFG is the instruction-granularity register dependence graph: a node
per static instruction and an edge ``def -> use`` whenever the definition
may reach the use.  It is a thin, queryable wrapper over
:mod:`repro.slicer.dataflow`, with the *parents* relation ("which
instructions produce my operands?") that the backward-chasing step walks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.program import Program
from .cfg import ControlFlowGraph
from .dataflow import ENTRY_DEF, DefUse, compute_def_use


@dataclass
class ProgramFlowGraph:
    """Register dependence graph of one program."""

    program: Program
    cfg: ControlFlowGraph
    def_use: DefUse

    @classmethod
    def build(cls, program: Program) -> "ProgramFlowGraph":
        cfg = ControlFlowGraph(program)
        return cls(program=program, cfg=cfg, def_use=compute_def_use(program, cfg))

    # ------------------------------------------------------------------
    def parents(self, pc: int, regs: tuple[int, ...] | None = None) -> set[int]:
        """Defining pcs of the given source registers of instruction *pc*.

        With ``regs=None``, all source operands are chased.  ``ENTRY_DEF``
        parents (program-entry values) are omitted — they have no producing
        instruction.
        """
        instr = self.program.text[pc]
        if regs is None:
            regs = instr.source_regs()
        out: set[int] = set()
        for reg in regs:
            for d in self.def_use.defs_for_use(pc, reg):
                if d != ENTRY_DEF:
                    out.add(d)
        return out

    def children(self, pc: int) -> set[tuple[int, int]]:
        """(use pc, reg) pairs this definition may reach."""
        return set(self.def_use.uses_of_def.get(pc, ()))

    def backward_slice(self, seeds: dict[int, tuple[int, ...] | None]) -> set[int]:
        """Transitive backward closure from *seeds*.

        *seeds* maps a pc to the register subset to chase at that seed
        (``None`` = all sources).  Instructions reached transitively are
        chased on **all** their sources (paper: once an instruction joins
        the Access Stream, its whole backward slice does too).  The result
        contains the seeds.
        """
        visited: set[int] = set(seeds)
        worklist: list[int] = []
        for pc, regs in seeds.items():
            worklist.extend(self.parents(pc, regs))
        while worklist:
            pc = worklist.pop()
            if pc in visited:
                continue
            visited.add(pc)
            worklist.extend(self.parents(pc))
        return visited
