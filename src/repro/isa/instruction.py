"""The :class:`Instruction` record and its HiDISC annotations.

An instruction is a plain mutable dataclass: the assembler creates it, the
HiDISC compiler (:mod:`repro.slicer`) *annotates* it in place (stream,
CMAS and probable-miss marks, SDQ store flag), and the simulators read it.

Branch/jump targets are **instruction indices** into the program's text
segment, not byte addresses — the reproduction keeps the PC in units of
instructions (documented substitution; nothing in the paper depends on
instruction byte addressing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from . import registers
from .opcodes import FP_CMP_OPS, Format, Op


class Stream(enum.Enum):
    """HiDISC stream assignment of an instruction."""

    NONE = "none"   # not yet separated
    CS = "CS"       # Computation Stream (executes on the CP)
    AS = "AS"       # Access Stream (executes on the AP)


@dataclass
class Annotations:
    """HiDISC annotation fields (the paper's binary 'annotation field')."""

    stream: Stream = Stream.NONE
    cmas: bool = False        # instruction belongs to a Cache Miss Access Slice
    probable_miss: bool = False  # profile says this load likely misses
    sdq_data: bool = False    # store data comes from the SDQ, not rs2
    to_ldq: bool = False      # load also deposits its result in the LDQ
    #                           (the paper's "$LDQ" destination, Figure 6)
    to_sdq: bool = False      # CS instruction also deposits its result in
    #                           the SDQ (the paper's "$SDQ" destination)
    ldq_rs1: bool = False     # CS operand rs1 is read from the LDQ
    ldq_rs2: bool = False     # CS operand rs2 is read from the LDQ
    #                           (the paper's "$LDQ" source operands)

    def copy(self) -> "Annotations":
        return replace(self)


@dataclass
class Instruction:
    """One static instruction.

    Field use by format (see :class:`repro.isa.opcodes.Format`):

    ========  ==========================================================
    R3        ``rd <- rs1 op rs2``
    R2        ``rd <- op rs1``
    RI        ``rd <- rs1 op imm``
    LI        ``rd <- imm``
    LOAD      ``rd <- mem[rs1 + imm]``
    STORE     ``mem[rs1 + imm] <- rs2``
    BRANCH    ``if rs1 op rs2: pc <- target``
    BRANCH1   ``if rs1 op 0: pc <- target``
    JUMP      ``pc <- target`` (JAL also writes ``ra``)
    JREG      ``pc <- rs1``
    PUSH      queue <- ``rs1``
    POP       ``rd`` <- queue
    NONE      no operands
    ========  ==========================================================
    """

    op: Op
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: int = 0
    ann: Annotations = field(default_factory=Annotations)
    #: Source-level comment / label, carried through for diagnostics.
    comment: str = ""

    # ------------------------------------------------------------------
    # Dependence queries (used by the slicer and the timing cores).
    # ------------------------------------------------------------------
    def dest_reg(self) -> int | None:
        """Register written by this instruction, or ``None``.

        ``r0`` writes are reported as ``None`` (they are architectural
        no-ops), so dependence analysis never creates edges through ``r0``.
        """
        fmt = self.op.info.fmt
        if fmt in (Format.R3, Format.R2, Format.RI, Format.LI, Format.LOAD,
                   Format.POP):
            return None if self.rd == registers.ZERO else self.rd
        if self.op is Op.JAL:
            return registers.NAME_TO_REG["ra"]
        return None

    def source_regs(self) -> tuple[int, ...]:
        """Registers read by this instruction (``r0`` excluded)."""
        fmt = self.op.info.fmt
        if fmt == Format.R3:
            srcs = (self.rs1, self.rs2)
        elif fmt in (Format.R2, Format.RI):
            srcs = (self.rs1,)
        elif fmt == Format.LOAD:
            srcs = (self.rs1,)
        elif fmt == Format.STORE:
            if self.ann.sdq_data:
                srcs = (self.rs1,)          # data arrives through the SDQ
            else:
                srcs = (self.rs1, self.rs2)
        elif fmt == Format.BRANCH:
            srcs = (self.rs1, self.rs2)
        elif fmt in (Format.BRANCH1, Format.JREG, Format.PUSH):
            srcs = (self.rs1,)
        else:  # LI, JUMP, POP, NONE
            srcs = ()
        return tuple(s for s in srcs if s != registers.ZERO)

    # ------------------------------------------------------------------
    # Classification helpers.
    # ------------------------------------------------------------------
    @property
    def is_load(self) -> bool:
        return self.op.info.is_load

    @property
    def is_store(self) -> bool:
        return self.op.info.is_store

    @property
    def is_mem(self) -> bool:
        info = self.op.info
        return info.is_load or info.is_store

    @property
    def is_control(self) -> bool:
        return self.op.info.is_control

    @property
    def is_branch(self) -> bool:
        """Conditional branch (outcome unknown until execute)."""
        return self.op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BEQZ, Op.BNEZ)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that register operands live in the right register file.

        Raises ``ValueError`` on the first violation.  This catches builder
        mistakes early (e.g. an FP add reading an integer register).
        """
        op = self.op
        info = op.info
        fmt = info.fmt

        def want_fp(regid: int, what: str, fp: bool) -> None:
            ok = registers.is_fp_reg(regid) if fp else registers.is_int_reg(regid)
            if not ok:
                kind = "FP" if fp else "integer"
                raise ValueError(
                    f"{op.mnemonic}: {what} must be an {kind} register, "
                    f"got {registers.reg_name(regid) if 0 <= regid < registers.NUM_REGS else regid}"
                )

        if fmt in (Format.R3, Format.R2):
            if op in FP_CMP_OPS:
                # FP compares and FTOI write an integer register.
                want_fp(self.rd, "rd", fp=False)
                want_fp(self.rs1, "rs1", fp=True)
                if fmt == Format.R3:
                    want_fp(self.rs2, "rs2", fp=True)
            elif op is Op.ITOF:
                want_fp(self.rd, "rd", fp=True)
                want_fp(self.rs1, "rs1", fp=False)
            elif info.is_fp:
                want_fp(self.rd, "rd", fp=True)
                want_fp(self.rs1, "rs1", fp=True)
                if fmt == Format.R3:
                    want_fp(self.rs2, "rs2", fp=True)
            else:
                want_fp(self.rd, "rd", fp=False)
                want_fp(self.rs1, "rs1", fp=False)
                if fmt == Format.R3:
                    want_fp(self.rs2, "rs2", fp=False)
        elif fmt in (Format.RI, Format.LI):
            want_fp(self.rd, "rd", fp=False)
            if fmt == Format.RI:
                want_fp(self.rs1, "rs1", fp=False)
        elif fmt == Format.LOAD:
            want_fp(self.rd, "rd", fp=info.is_fp)
            want_fp(self.rs1, "base", fp=False)
        elif fmt == Format.STORE:
            want_fp(self.rs1, "base", fp=False)
            want_fp(self.rs2, "data", fp=info.is_fp)
        elif fmt in (Format.BRANCH, Format.BRANCH1):
            want_fp(self.rs1, "rs1", fp=False)
            if fmt == Format.BRANCH:
                want_fp(self.rs2, "rs2", fp=False)
        elif fmt == Format.JREG:
            want_fp(self.rs1, "rs1", fp=False)
        elif fmt == Format.PUSH:
            want_fp(self.rs1, "rs1", fp=info.is_fp)
        elif fmt == Format.POP:
            want_fp(self.rd, "rd", fp=info.is_fp)

    def copy(self) -> "Instruction":
        """Deep-enough copy (annotations are duplicated, not shared)."""
        return Instruction(
            op=self.op, rd=self.rd, rs1=self.rs1, rs2=self.rs2, imm=self.imm,
            target=self.target, ann=self.ann.copy(), comment=self.comment,
        )

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from .disasm import disassemble_instruction

        return disassemble_instruction(self)
