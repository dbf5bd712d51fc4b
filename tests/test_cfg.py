"""Tests for basic-block construction and CFG edges."""

from repro.asm.builder import ProgramBuilder
from repro.slicer.cfg import ControlFlowGraph

from .conftest import build_counting_loop


class TestBlocks:
    def test_straight_line_single_block(self):
        b = ProgramBuilder()
        b.li("t0", 1)
        b.addi("t0", "t0", 1)
        b.halt()
        cfg = ControlFlowGraph(b.build())
        assert len(cfg) == 1
        assert cfg.blocks[0].size == 3

    def test_loop_blocks(self):
        cfg = ControlFlowGraph(build_counting_loop())
        # setup | loop body | tail
        assert len(cfg) == 3
        loop = cfg.blocks[cfg.block_of[3]]
        assert loop.start == 3
        assert cfg.block_of[4] == loop.index

    def test_loop_edges(self):
        cfg = ControlFlowGraph(build_counting_loop())
        loop = cfg.blocks[cfg.block_of[3]]
        assert loop.index in loop.successors        # back edge
        assert any(s != loop.index for s in loop.successors)  # exit edge
        assert loop.index in loop.predecessors

    def test_branch_target_is_leader(self):
        b = ProgramBuilder()
        b.li("t0", 0)
        b.beq("t0", "zero", "skip")
        b.addi("t0", "t0", 1)
        b.label("skip")
        b.halt()
        cfg = ControlFlowGraph(b.build())
        assert cfg.blocks[cfg.block_of[3]].start == 3

    def test_halt_terminates_block(self):
        b = ProgramBuilder()
        b.halt()
        b.nop()  # dead code after halt forms its own block
        cfg = ControlFlowGraph(b.build())
        assert cfg.blocks[cfg.block_of[0]].successors == []

    def test_unconditional_jump_single_successor(self):
        b = ProgramBuilder()
        b.j("end")
        b.nop()
        b.label("end")
        b.halt()
        cfg = ControlFlowGraph(b.build())
        first = cfg.blocks[cfg.block_of[0]]
        assert first.successors == [cfg.block_of[2]]

    def test_jal_jr_conservative_edges(self):
        b = ProgramBuilder()
        b.j("main")
        b.label("fn")
        b.jr("ra")
        b.label("main")
        b.jal("fn")
        b.halt()
        cfg = ControlFlowGraph(b.build())
        fn_block = cfg.blocks[cfg.block_of[1]]
        # jr may return to the jal's return point.
        return_block = cfg.block_of[3]
        assert return_block in fn_block.successors

    def test_membership_and_entry(self):
        p = build_counting_loop()
        cfg = ControlFlowGraph(p)
        assert p.entry in cfg.entry_block()
        assert 2 in cfg.blocks[cfg.block_of[2]]

    def test_empty_program(self):
        from repro.asm.program import Program

        cfg = ControlFlowGraph(Program())
        assert len(cfg) == 0
