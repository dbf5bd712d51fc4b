"""Control-flow graph over a program's text segment.

Basic blocks are half-open index ranges ``[start, end)`` over the
instruction list.  Block leaders are the entry point, every branch/jump
target, and every instruction following a control instruction.  ``jr``
(register-indirect jump) conservatively targets *every* block that is the
target of a ``jal``'s return point — in this reproduction ``jr`` is only
used as a subroutine return, and the builder's programs are small enough
that the conservative edges cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asm.program import Program
from ..isa.opcodes import Format, Op


@dataclass
class BasicBlock:
    """One basic block: instructions ``[start, end)``."""

    index: int
    start: int
    end: int
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end

    @property
    def size(self) -> int:
        return self.end - self.start


class ControlFlowGraph:
    """CFG of one program."""

    def __init__(self, program: Program):
        self.program = program
        self.blocks: list[BasicBlock] = []
        #: pc -> index of the containing block.
        self.block_of: list[int] = []
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        text = self.program.text
        n = len(text)
        if n == 0:
            return
        leaders = {self.program.entry, 0}
        return_points: set[int] = set()
        for pc, instr in enumerate(text):
            fmt = instr.op.info.fmt
            if fmt in (Format.BRANCH, Format.BRANCH1, Format.JUMP):
                leaders.add(instr.target)
                if pc + 1 < n:
                    leaders.add(pc + 1)
                if instr.op is Op.JAL:
                    return_points.add(pc + 1)
            elif fmt == Format.JREG or instr.op is Op.HALT:
                if pc + 1 < n:
                    leaders.add(pc + 1)

        starts = sorted(p for p in leaders if 0 <= p < n)
        bounds = starts + [n]
        self.blocks = [
            BasicBlock(index=i, start=bounds[i], end=bounds[i + 1])
            for i in range(len(starts))
        ]
        self.block_of = [0] * n
        for block in self.blocks:
            for pc in range(block.start, block.end):
                self.block_of[pc] = block.index

        for block in self.blocks:
            last = text[block.end - 1]
            fmt = last.op.info.fmt
            succ: list[int] = []
            if last.op is Op.HALT:
                pass
            elif fmt in (Format.BRANCH, Format.BRANCH1):
                succ.append(self.block_of[last.target])
                if block.end < n:
                    succ.append(self.block_of[block.end])
            elif fmt == Format.JUMP:
                succ.append(self.block_of[last.target])
            elif fmt == Format.JREG:
                # Conservative: a return may land at any jal return point.
                succ.extend(sorted({self.block_of[p] for p in return_points}))
            else:
                if block.end < n:
                    succ.append(self.block_of[block.end])
            # Deduplicate while preserving order.
            seen: set[int] = set()
            block.successors = [s for s in succ if not (s in seen or seen.add(s))]
        for block in self.blocks:
            for s in block.successors:
                self.blocks[s].predecessors.append(block.index)

    # ------------------------------------------------------------------
    def entry_block(self) -> BasicBlock:
        return self.blocks[self.block_of[self.program.entry]]

    def __len__(self) -> int:
        return len(self.blocks)
