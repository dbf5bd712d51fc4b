"""Opcode definitions and static metadata.

Each opcode carries the metadata every other layer needs:

* its *format* (how the operand fields are interpreted),
* its *functional-unit class* and execution latency (timing simulation),
* classification predicates (is it a load? a store? control? FP?), and
* the memory access width for loads/stores.

The metadata lives in one table so the assembler, slicer, functional
simulator and timing cores can never disagree about an instruction's shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Format(enum.Enum):
    """Operand-field interpretation of an instruction."""

    R3 = "r3"          # op rd, rs1, rs2
    R2 = "r2"          # op rd, rs1            (unary: neg, abs, mov, cvt)
    RI = "ri"          # op rd, rs1, imm
    LI = "li"          # op rd, imm            (load immediate)
    LOAD = "load"      # op rd, imm(rs1)
    STORE = "store"    # op rs2, imm(rs1)      (rs2 is the data register)
    BRANCH = "branch"  # op rs1, rs2, target
    BRANCH1 = "br1"    # op rs1, target        (beqz/bnez)
    JUMP = "jump"      # op target
    JREG = "jreg"      # op rs1                (jr)
    PUSH = "push"      # op rs1                (queue push)
    POP = "pop"        # op rd                 (queue pop)
    NONE = "none"      # op                    (nop, halt)


class FuClass(enum.Enum):
    """Functional unit pool an opcode executes on."""

    IALU = "ialu"
    IMULDIV = "imuldiv"
    FALU = "falu"
    FMULDIV = "fmuldiv"
    LSU = "lsu"
    NONE = "none"      # zero-latency pseudo ops (nop/halt) and queue moves


@dataclass(frozen=True)
class OpInfo:
    """Static metadata of one opcode."""

    mnemonic: str
    fmt: Format
    fu: FuClass
    latency: int
    is_load: bool = False
    is_store: bool = False
    is_control: bool = False
    is_fp: bool = False          # produces / consumes FP registers
    mem_bytes: int = 0           # access width for loads and stores
    reads_ldq: bool = False      # POP_LDQ*
    writes_ldq: bool = False     # PUSH_LDQ*
    writes_sdq: bool = False     # PUSH_SDQ*


class Op(enum.Enum):
    """All opcodes of the reproduction ISA.

    The value of each member is its :class:`OpInfo`; use ``Op.ADD.info``.
    """

    # --- integer ALU -----------------------------------------------------
    ADD = OpInfo("add", Format.R3, FuClass.IALU, 1)
    SUB = OpInfo("sub", Format.R3, FuClass.IALU, 1)
    MUL = OpInfo("mul", Format.R3, FuClass.IMULDIV, 3)
    DIV = OpInfo("div", Format.R3, FuClass.IMULDIV, 20)
    REM = OpInfo("rem", Format.R3, FuClass.IMULDIV, 20)
    AND = OpInfo("and", Format.R3, FuClass.IALU, 1)
    OR = OpInfo("or", Format.R3, FuClass.IALU, 1)
    XOR = OpInfo("xor", Format.R3, FuClass.IALU, 1)
    NOR = OpInfo("nor", Format.R3, FuClass.IALU, 1)
    SLL = OpInfo("sll", Format.R3, FuClass.IALU, 1)
    SRL = OpInfo("srl", Format.R3, FuClass.IALU, 1)
    SRA = OpInfo("sra", Format.R3, FuClass.IALU, 1)
    SLT = OpInfo("slt", Format.R3, FuClass.IALU, 1)
    SLTU = OpInfo("sltu", Format.R3, FuClass.IALU, 1)

    # --- integer ALU with immediate --------------------------------------
    ADDI = OpInfo("addi", Format.RI, FuClass.IALU, 1)
    MULI = OpInfo("muli", Format.RI, FuClass.IMULDIV, 3)
    ANDI = OpInfo("andi", Format.RI, FuClass.IALU, 1)
    ORI = OpInfo("ori", Format.RI, FuClass.IALU, 1)
    XORI = OpInfo("xori", Format.RI, FuClass.IALU, 1)
    SLLI = OpInfo("slli", Format.RI, FuClass.IALU, 1)
    SRLI = OpInfo("srli", Format.RI, FuClass.IALU, 1)
    SRAI = OpInfo("srai", Format.RI, FuClass.IALU, 1)
    SLTI = OpInfo("slti", Format.RI, FuClass.IALU, 1)
    LI = OpInfo("li", Format.LI, FuClass.IALU, 1)
    MOV = OpInfo("mov", Format.R2, FuClass.IALU, 1)

    # --- floating point ---------------------------------------------------
    FADD = OpInfo("fadd", Format.R3, FuClass.FALU, 2, is_fp=True)
    FSUB = OpInfo("fsub", Format.R3, FuClass.FALU, 2, is_fp=True)
    FMUL = OpInfo("fmul", Format.R3, FuClass.FMULDIV, 4, is_fp=True)
    FDIV = OpInfo("fdiv", Format.R3, FuClass.FMULDIV, 12, is_fp=True)
    FNEG = OpInfo("fneg", Format.R2, FuClass.FALU, 2, is_fp=True)
    FABS = OpInfo("fabs", Format.R2, FuClass.FALU, 2, is_fp=True)
    FSQRT = OpInfo("fsqrt", Format.R2, FuClass.FMULDIV, 24, is_fp=True)
    FMOV = OpInfo("fmov", Format.R2, FuClass.FALU, 2, is_fp=True)
    FMIN = OpInfo("fmin", Format.R3, FuClass.FALU, 2, is_fp=True)
    FMAX = OpInfo("fmax", Format.R3, FuClass.FALU, 2, is_fp=True)
    # FP compares write an *integer* register; conversions cross the files.
    FEQ = OpInfo("feq", Format.R3, FuClass.FALU, 2, is_fp=True)
    FLT = OpInfo("flt", Format.R3, FuClass.FALU, 2, is_fp=True)
    FLE = OpInfo("fle", Format.R3, FuClass.FALU, 2, is_fp=True)
    ITOF = OpInfo("itof", Format.R2, FuClass.FALU, 2, is_fp=True)
    FTOI = OpInfo("ftoi", Format.R2, FuClass.FALU, 2, is_fp=True)

    # --- memory ------------------------------------------------------------
    LD = OpInfo("ld", Format.LOAD, FuClass.LSU, 1, is_load=True, mem_bytes=8)
    LW = OpInfo("lw", Format.LOAD, FuClass.LSU, 1, is_load=True, mem_bytes=4)
    LBU = OpInfo("lbu", Format.LOAD, FuClass.LSU, 1, is_load=True, mem_bytes=1)
    SD = OpInfo("sd", Format.STORE, FuClass.LSU, 1, is_store=True, mem_bytes=8)
    SW = OpInfo("sw", Format.STORE, FuClass.LSU, 1, is_store=True, mem_bytes=4)
    SB = OpInfo("sb", Format.STORE, FuClass.LSU, 1, is_store=True, mem_bytes=1)
    FLD = OpInfo("fld", Format.LOAD, FuClass.LSU, 1, is_load=True, is_fp=True,
                 mem_bytes=8)
    FSD = OpInfo("fsd", Format.STORE, FuClass.LSU, 1, is_store=True, is_fp=True,
                 mem_bytes=8)

    # --- control -----------------------------------------------------------
    BEQ = OpInfo("beq", Format.BRANCH, FuClass.IALU, 1, is_control=True)
    BNE = OpInfo("bne", Format.BRANCH, FuClass.IALU, 1, is_control=True)
    BLT = OpInfo("blt", Format.BRANCH, FuClass.IALU, 1, is_control=True)
    BGE = OpInfo("bge", Format.BRANCH, FuClass.IALU, 1, is_control=True)
    BEQZ = OpInfo("beqz", Format.BRANCH1, FuClass.IALU, 1, is_control=True)
    BNEZ = OpInfo("bnez", Format.BRANCH1, FuClass.IALU, 1, is_control=True)
    J = OpInfo("j", Format.JUMP, FuClass.IALU, 1, is_control=True)
    JAL = OpInfo("jal", Format.JUMP, FuClass.IALU, 1, is_control=True)
    JR = OpInfo("jr", Format.JREG, FuClass.IALU, 1, is_control=True)
    HALT = OpInfo("halt", Format.NONE, FuClass.NONE, 1, is_control=True)
    NOP = OpInfo("nop", Format.NONE, FuClass.NONE, 1)

    # --- HiDISC communication (inserted by the slicer) ----------------------
    # AP-side: push an integer/FP register value to the Load Data Queue.
    PUSH_LDQ = OpInfo("push.ldq", Format.PUSH, FuClass.IALU, 1, writes_ldq=True)
    PUSH_LDQF = OpInfo("push.ldqf", Format.PUSH, FuClass.IALU, 1, is_fp=True,
                       writes_ldq=True)
    # CP-side: pop the Load Data Queue into a register.
    POP_LDQ = OpInfo("pop.ldq", Format.POP, FuClass.IALU, 1, reads_ldq=True)
    POP_LDQF = OpInfo("pop.ldqf", Format.POP, FuClass.IALU, 1, is_fp=True,
                      reads_ldq=True)
    # CP-side: push store data to the Store Data Queue.
    PUSH_SDQ = OpInfo("push.sdq", Format.PUSH, FuClass.IALU, 1, writes_sdq=True)
    PUSH_SDQF = OpInfo("push.sdqf", Format.PUSH, FuClass.IALU, 1, is_fp=True,
                       writes_sdq=True)

    @property
    def info(self) -> OpInfo:
        """The :class:`OpInfo` metadata record of this opcode."""
        return self.value

    @property
    def mnemonic(self) -> str:
        return self.value.mnemonic


#: mnemonic -> opcode, for the assembler.
MNEMONIC_TO_OP: dict[str, Op] = {op.info.mnemonic: op for op in Op}

#: Opcodes whose result register is an FP register.
FP_DEST_OPS = frozenset(
    op for op in Op
    if op.info.is_fp and op not in (Op.FEQ, Op.FLT, Op.FLE, Op.FTOI,
                                    Op.SD, Op.SW, Op.SB, Op.FSD,
                                    Op.PUSH_LDQF, Op.PUSH_SDQF)
)

#: FP compare / FP->int ops: FP sources, integer destination.
FP_CMP_OPS = frozenset((Op.FEQ, Op.FLT, Op.FLE, Op.FTOI))

COMM_OPS = frozenset(
    (Op.PUSH_LDQ, Op.PUSH_LDQF, Op.POP_LDQ, Op.POP_LDQF, Op.PUSH_SDQ, Op.PUSH_SDQF)
)
