"""Tests for reaching definitions, def-use chains and the PFG."""

from repro.asm.builder import ProgramBuilder
from repro.isa.registers import parse_reg
from repro.slicer.dataflow import ENTRY_DEF, compute_def_use
from repro.slicer.pfg import ProgramFlowGraph

from .conftest import build_counting_loop


def t(name):
    return parse_reg(name)


class TestStraightLine:
    def test_simple_chain(self):
        b = ProgramBuilder()
        b.li("t0", 1)          # 0
        b.addi("t1", "t0", 2)  # 1
        b.add("t2", "t0", "t1")  # 2
        b.halt()
        du = compute_def_use(b.build())
        assert du.defs_for_use(1, t("t0")) == {0}
        assert du.defs_for_use(2, t("t0")) == {0}
        assert du.defs_for_use(2, t("t1")) == {1}
        assert (2, t("t0")) in du.uses_of_def[0]

    def test_redefinition_kills(self):
        b = ProgramBuilder()
        b.li("t0", 1)          # 0
        b.li("t0", 2)          # 1
        b.mov("t1", "t0")      # 2
        b.halt()
        du = compute_def_use(b.build())
        assert du.defs_for_use(2, t("t0")) == {1}
        assert du.uses_of_def.get(0, set()) == set()

    def test_entry_def_for_uninitialised(self):
        b = ProgramBuilder()
        b.mov("t1", "sp")      # 0: sp defined at entry
        b.halt()
        du = compute_def_use(b.build())
        assert du.defs_for_use(0, t("sp")) == {ENTRY_DEF}


class TestAcrossBlocks:
    def test_loop_carried_definition(self):
        p = build_counting_loop()
        du = compute_def_use(p)
        # `add t2, t2, t0` at pc 3 sees both the preheader li (pc 2) and
        # its own result from the previous iteration (pc 3).
        assert du.defs_for_use(3, t("t2")) == {2, 3}
        # t0 at pc 3 sees the preheader li (pc 0) and the loop addi (pc 4).
        assert du.defs_for_use(3, t("t0")) == {0, 4}

    def test_merge_of_two_paths(self):
        b = ProgramBuilder()
        b.li("t9", 0)            # 0
        b.beq("t9", "zero", "other")  # 1
        b.li("t0", 1)            # 2
        b.j("join")              # 3
        b.label("other")
        b.li("t0", 2)            # 4
        b.label("join")
        b.mov("t1", "t0")        # 5
        b.halt()
        du = compute_def_use(b.build())
        assert du.defs_for_use(5, t("t0")) == {2, 4}

    def test_partial_redefinition_keeps_entry(self):
        b = ProgramBuilder()
        b.li("t9", 1)                # 0
        b.beq("t9", "zero", "skip")  # 1
        b.li("t0", 7)                # 2
        b.label("skip")
        b.mov("t1", "t0")            # 3
        b.halt()
        du = compute_def_use(b.build())
        # Along the taken path t0 still holds its entry value.
        assert du.defs_for_use(3, t("t0")) == {2, ENTRY_DEF}


class TestPfg:
    def test_parents(self):
        b = ProgramBuilder()
        b.li("t0", 4)            # 0
        b.slli("t1", "t0", 3)    # 1
        b.ld("t2", 0, "t1")      # 2
        b.halt()
        pfg = ProgramFlowGraph.build(b.build())
        assert pfg.parents(2) == {1}
        assert pfg.parents(1) == {0}
        assert pfg.parents(0) == set()

    def test_children(self):
        b = ProgramBuilder()
        b.li("t0", 4)
        b.add("t1", "t0", "t0")
        b.halt()
        pfg = ProgramFlowGraph.build(b.build())
        assert (1, t("t0")) in pfg.children(0)

    def test_backward_slice_transitive(self):
        b = ProgramBuilder()
        b.li("t0", 4)            # 0
        b.addi("t1", "t0", 8)    # 1
        b.li("t5", 9)            # 2  (not in slice)
        b.slli("t2", "t1", 3)    # 3
        b.ld("t3", 0, "t2")      # 4
        b.halt()
        pfg = ProgramFlowGraph.build(b.build())
        slice_pcs = pfg.backward_slice({4: (t("t2"),)})
        assert slice_pcs == {0, 1, 3, 4}

    def test_slice_chases_all_sources_of_members(self):
        b = ProgramBuilder()
        b.li("t0", 1)            # 0
        b.li("t1", 2)            # 1
        b.add("t2", "t0", "t1")  # 2
        b.ld("t3", 0, "t2")      # 3
        b.halt()
        pfg = ProgramFlowGraph.build(b.build())
        assert pfg.backward_slice({3: (t("t2"),)}) == {0, 1, 2, 3}
