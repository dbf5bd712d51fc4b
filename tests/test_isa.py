"""Unit tests for the ISA layer: registers, opcodes, instruction metadata."""

import pytest

from repro.isa import (
    FP_BASE,
    Format,
    FuClass,
    Instruction,
    NUM_REGS,
    Op,
    Stream,
    ZERO,
    is_fp_reg,
    is_int_reg,
    parse_reg,
    reg_name,
)
from repro.isa.opcodes import COMM_OPS, MNEMONIC_TO_OP


class TestRegisters:
    def test_zero_is_int_reg(self):
        assert is_int_reg(ZERO)
        assert not is_fp_reg(ZERO)

    def test_fp_space(self):
        assert is_fp_reg(FP_BASE)
        assert is_fp_reg(NUM_REGS - 1)
        assert not is_int_reg(FP_BASE)

    def test_parse_aliases(self):
        assert parse_reg("zero") == 0
        assert parse_reg("$sp") == 29
        assert parse_reg("ra") == 31
        assert parse_reg("t0") == 8
        assert parse_reg("f3") == FP_BASE + 3
        assert parse_reg("r17") == 17

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_reg("x99")

    def test_names_roundtrip(self):
        for reg in range(NUM_REGS):
            assert parse_reg(reg_name(reg)) == reg

    def test_reg_name_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reg_name(64)


class TestOpcodeMetadata:
    def test_every_mnemonic_unique(self):
        assert len(MNEMONIC_TO_OP) == len(list(Op))

    def test_loads_classified(self):
        for op in (Op.LD, Op.LW, Op.LBU, Op.FLD):
            assert op.info.is_load
            assert op.info.fu is FuClass.LSU
            assert op.info.mem_bytes > 0

    def test_stores_classified(self):
        for op in (Op.SD, Op.SW, Op.SB, Op.FSD):
            assert op.info.is_store
            assert not op.info.is_load

    def test_control_classified(self):
        for op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BEQZ, Op.BNEZ,
                   Op.J, Op.JAL, Op.JR, Op.HALT):
            assert op.info.is_control

    def test_comm_ops_flagged(self):
        assert Op.PUSH_LDQ.info.writes_ldq
        assert Op.POP_LDQF.info.reads_ldq
        assert Op.PUSH_SDQ.info.writes_sdq
        for op in COMM_OPS:
            info = op.info
            assert info.reads_ldq or info.writes_ldq or info.writes_sdq

    def test_latencies_positive(self):
        for op in Op:
            assert op.info.latency >= 1

    def test_fp_ops_marked(self):
        assert Op.FADD.info.is_fp
        assert Op.FLT.info.is_fp  # FP sources, int dest
        assert not Op.ADD.info.is_fp


class TestInstructionDeps:
    def test_alu_dest_and_sources(self):
        i = Instruction(op=Op.ADD, rd=3, rs1=4, rs2=5)
        assert i.dest_reg() == 3
        assert set(i.source_regs()) == {4, 5}

    def test_r0_dest_is_none(self):
        i = Instruction(op=Op.ADD, rd=0, rs1=4, rs2=5)
        assert i.dest_reg() is None

    def test_r0_sources_dropped(self):
        i = Instruction(op=Op.ADD, rd=3, rs1=0, rs2=5)
        assert i.source_regs() == (5,)

    def test_load_shape(self):
        i = Instruction(op=Op.LD, rd=6, rs1=7, imm=16)
        assert i.dest_reg() == 6
        assert i.source_regs() == (7,)
        assert i.is_load and i.is_mem and not i.is_store

    def test_store_shape(self):
        i = Instruction(op=Op.SD, rs1=7, rs2=8, imm=0)
        assert i.dest_reg() is None
        assert set(i.source_regs()) == {7, 8}

    def test_sdq_store_drops_data_source(self):
        i = Instruction(op=Op.SD, rs1=7, rs2=8)
        i.ann.sdq_data = True
        assert i.source_regs() == (7,)

    def test_jal_writes_ra(self):
        i = Instruction(op=Op.JAL, target=5)
        assert i.dest_reg() == parse_reg("ra")

    def test_branch_classification(self):
        assert Instruction(op=Op.BEQ, rs1=1, rs2=2).is_branch
        assert not Instruction(op=Op.J).is_branch
        assert Instruction(op=Op.J).is_control

    def test_pop_has_no_sources(self):
        i = Instruction(op=Op.POP_LDQ, rd=5)
        assert i.source_regs() == ()
        assert i.dest_reg() == 5


class TestValidate:
    def test_accepts_good_fp(self):
        Instruction(op=Op.FADD, rd=FP_BASE, rs1=FP_BASE + 1,
                    rs2=FP_BASE + 2).validate()

    def test_rejects_int_reg_in_fp_slot(self):
        with pytest.raises(ValueError):
            Instruction(op=Op.FADD, rd=1, rs1=FP_BASE, rs2=FP_BASE).validate()

    def test_fp_compare_writes_int(self):
        Instruction(op=Op.FLT, rd=3, rs1=FP_BASE, rs2=FP_BASE + 1).validate()
        with pytest.raises(ValueError):
            Instruction(op=Op.FLT, rd=FP_BASE, rs1=FP_BASE,
                        rs2=FP_BASE + 1).validate()

    def test_conversions(self):
        Instruction(op=Op.ITOF, rd=FP_BASE, rs1=2).validate()
        Instruction(op=Op.FTOI, rd=2, rs1=FP_BASE).validate()
        with pytest.raises(ValueError):
            Instruction(op=Op.ITOF, rd=2, rs1=2).validate()

    def test_fp_load_store(self):
        Instruction(op=Op.FLD, rd=FP_BASE, rs1=4).validate()
        Instruction(op=Op.FSD, rs1=4, rs2=FP_BASE).validate()
        with pytest.raises(ValueError):
            Instruction(op=Op.FLD, rd=4, rs1=4).validate()

    def test_copy_is_independent(self):
        i = Instruction(op=Op.LD, rd=6, rs1=7)
        j = i.copy()
        j.ann.stream = Stream.AS
        j.ann.to_ldq = True
        assert i.ann.stream is Stream.NONE
        assert not i.ann.to_ldq


class TestFormats:
    def test_format_assignment(self):
        assert Op.ADD.info.fmt is Format.R3
        assert Op.ADDI.info.fmt is Format.RI
        assert Op.LD.info.fmt is Format.LOAD
        assert Op.SD.info.fmt is Format.STORE
        assert Op.BEQ.info.fmt is Format.BRANCH
        assert Op.BEQZ.info.fmt is Format.BRANCH1
        assert Op.J.info.fmt is Format.JUMP
        assert Op.JR.info.fmt is Format.JREG
        assert Op.PUSH_LDQ.info.fmt is Format.PUSH
        assert Op.POP_LDQ.info.fmt is Format.POP
        assert Op.NOP.info.fmt is Format.NONE
