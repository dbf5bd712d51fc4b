"""The reproduction ISA: a 64-bit PISA/MIPS-flavoured RISC.

Public surface:

* :mod:`repro.isa.registers` — register file layout and naming.
* :class:`repro.isa.Op` / :class:`repro.isa.OpInfo` — opcodes and metadata.
* :class:`repro.isa.Instruction` — the static instruction record, carrying
  the HiDISC annotation field (:class:`repro.isa.Annotations`).
* :mod:`repro.isa.disasm` — disassembly for listings and diagnostics.
"""

from .instruction import Annotations, Instruction, Stream
from .opcodes import COMM_OPS, FP_CMP_OPS, FP_DEST_OPS, Format, FuClass, Op, OpInfo
from .registers import (
    FP_BASE,
    NUM_FP_REGS,
    NUM_INT_REGS,
    NUM_REGS,
    ZERO,
    is_fp_reg,
    is_int_reg,
    parse_reg,
    reg_name,
)

__all__ = [
    "Annotations",
    "COMM_OPS",
    "FP_BASE",
    "FP_CMP_OPS",
    "FP_DEST_OPS",
    "Format",
    "FuClass",
    "Instruction",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "NUM_REGS",
    "Op",
    "OpInfo",
    "Stream",
    "ZERO",
    "is_fp_reg",
    "is_int_reg",
    "parse_reg",
    "reg_name",
]
