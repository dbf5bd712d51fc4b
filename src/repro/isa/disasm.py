"""Disassembler: turn instructions back into readable assembly text.

Used by the examples (to reproduce the paper's Figures 5-7 style listings),
by error messages, and round-trip-tested against the assembler.
"""

from __future__ import annotations

from collections.abc import Sequence

from .instruction import Instruction, Stream
from .opcodes import Format
from .registers import reg_name


def disassemble_instruction(instr: Instruction) -> str:
    """Render one instruction as assembly text (no annotations)."""
    op = instr.op
    fmt = op.info.fmt
    m = op.mnemonic
    if fmt == Format.R3:
        return f"{m} {reg_name(instr.rd)}, {reg_name(instr.rs1)}, {reg_name(instr.rs2)}"
    if fmt == Format.R2:
        return f"{m} {reg_name(instr.rd)}, {reg_name(instr.rs1)}"
    if fmt == Format.RI:
        return f"{m} {reg_name(instr.rd)}, {reg_name(instr.rs1)}, {instr.imm}"
    if fmt == Format.LI:
        return f"{m} {reg_name(instr.rd)}, {instr.imm}"
    if fmt == Format.LOAD:
        return f"{m} {reg_name(instr.rd)}, {instr.imm}({reg_name(instr.rs1)})"
    if fmt == Format.STORE:
        data = "$SDQ" if instr.ann.sdq_data else reg_name(instr.rs2)
        return f"{m} {data}, {instr.imm}({reg_name(instr.rs1)})"
    if fmt == Format.BRANCH:
        return f"{m} {reg_name(instr.rs1)}, {reg_name(instr.rs2)}, {instr.target}"
    if fmt == Format.BRANCH1:
        return f"{m} {reg_name(instr.rs1)}, {instr.target}"
    if fmt == Format.JUMP:
        return f"{m} {instr.target}"
    if fmt == Format.JREG:
        return f"{m} {reg_name(instr.rs1)}"
    if fmt == Format.PUSH:
        return f"{m} {reg_name(instr.rs1)}"
    if fmt == Format.POP:
        return f"{m} {reg_name(instr.rd)}"
    return m  # NONE


def annotation_tag(instr: Instruction) -> str:
    """Short tag describing the HiDISC annotations, e.g. ``[AS,cmas,miss]``."""
    parts: list[str] = []
    if instr.ann.stream is not Stream.NONE:
        parts.append(instr.ann.stream.value)
    if instr.ann.cmas:
        parts.append("cmas")
    if instr.ann.probable_miss:
        parts.append("miss")
    if instr.ann.sdq_data:
        parts.append("sdq")
    return f"[{','.join(parts)}]" if parts else ""


def disassemble(
    instructions: Sequence[Instruction],
    with_annotations: bool = False,
    with_index: bool = True,
) -> str:
    """Disassemble a whole text segment to a multi-line listing."""
    lines = []
    for i, instr in enumerate(instructions):
        text = disassemble_instruction(instr)
        prefix = f"{i:5d}:  " if with_index else ""
        suffix = ""
        if with_annotations:
            tag = annotation_tag(instr)
            if tag:
                suffix = " " * max(1, 30 - len(text)) + tag
        if instr.comment:
            suffix += f"  ; {instr.comment}"
        lines.append(f"{prefix}{text}{suffix}")
    return "\n".join(lines)
