"""Parser: text assembly -> :class:`~repro.asm.program.Program`.

Parsing is a thin layer over :class:`~repro.asm.builder.ProgramBuilder`,
which already handles label resolution and validation.  The parser only has
to map mnemonic + operand list to the right builder call.
"""

from __future__ import annotations

from ..errors import AssemblyError
from ..isa.opcodes import MNEMONIC_TO_OP, Format, Op
from ..isa.registers import NAME_TO_REG
from .builder import ProgramBuilder
from .lexer import Line, tokenize
from .program import Program


def _is_number(token: str) -> bool:
    try:
        _parse_int(token)
        return True
    except ValueError:
        return False


def _parse_int(token: str) -> int:
    return int(token, 0)


def _parse_float(token: str) -> float:
    return float(token)


class _LineParser:
    """Operand cursor over one lexed line."""

    def __init__(self, line: Line):
        self.line = line
        self.tokens = line.tokens
        self.pos = 1  # token 0 is the mnemonic/directive

    def error(self, message: str) -> AssemblyError:
        return AssemblyError(message, line=self.line.number)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self) -> str:
        if self.done():
            raise self.error("unexpected end of operands")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise self.error(f"expected {token!r}, got {got!r}")

    def comma(self) -> None:
        self.expect(",")

    def reg(self) -> int:
        token = self.take().lstrip("$").lower()
        if token not in NAME_TO_REG:
            raise self.error(f"unknown register {token!r}")
        return NAME_TO_REG[token]

    def imm(self) -> int:
        token = self.take()
        try:
            return _parse_int(token)
        except ValueError:
            raise self.error(f"expected integer, got {token!r}") from None

    def label_or_imm(self) -> str | int:
        token = self.take()
        if _is_number(token):
            return _parse_int(token)
        return token

    def mem_operand(self) -> tuple[int, str | int]:
        """Parse ``offset(base)`` or ``label`` -> (offset, base-or-label)."""
        token = self.take()
        if _is_number(token):
            offset = _parse_int(token)
        else:
            raise self.error(f"expected offset, got {token!r}")
        self.expect("(")
        base = self.reg()
        self.expect(")")
        return offset, base

    def rest_numbers(self) -> list[str]:
        """Remaining comma-separated numeric tokens (for data directives)."""
        values = []
        while not self.done():
            values.append(self.take())
            if not self.done():
                self.comma()
        return values


class Assembler:
    """Two-section (``.data``/``.text``) assembler."""

    def __init__(self, name: str = "program"):
        self.builder = ProgramBuilder(name)
        self.section = ".text"
        self._pending_data_label: str | None = None

    def assemble(self, source: str) -> Program:
        """Assemble *source* text and return the validated program."""
        for line in tokenize(source):
            self._line(line)
        return self.builder.build()

    # ------------------------------------------------------------------
    def _line(self, line: Line) -> None:
        if line.label is not None:
            if self.section == ".text":
                self.builder.label(line.label)
            elif not line.tokens:
                # Bare label in .data: attach to the next directive via
                # a pending label.
                self._pending_data_label = line.label
                return
        if not line.tokens:
            return
        head = line.tokens[0]
        p = _LineParser(line)
        if head.startswith("."):
            self._directive(head, p, line)
        else:
            self._instruction(head.lower(), p, line)

    # ------------------------------------------------------------------
    def _directive(self, head: str, p: _LineParser, line: Line) -> None:
        label = line.label if self.section == ".data" else None
        label = label or getattr(self, "_pending_data_label", None)
        self._pending_data_label = None
        if head in (".data", ".text"):
            self.section = head
            return
        if self.section != ".data":
            raise p.error(f"directive {head} only allowed in .data")
        if head == ".space":
            self.builder.data_space(label, p.imm())
        elif head in (".word64", ".dword", ".quad"):
            self.builder.data_i64(label, [_parse_int(t) for t in p.rest_numbers()])
        elif head in (".word", ".int"):
            self.builder.data_i32(label, [_parse_int(t) for t in p.rest_numbers()])
        elif head in (".double", ".float64"):
            self.builder.data_f64(label, [_parse_float(t) for t in p.rest_numbers()])
        elif head == ".byte":
            payload = bytes(_parse_int(t) & 0xFF for t in p.rest_numbers())
            self.builder.data_bytes(label, payload)
        elif head == ".align":
            self.builder.align(p.imm())
        else:
            raise p.error(f"unknown directive {head}")

    # ------------------------------------------------------------------
    def _instruction(self, mnemonic: str, p: _LineParser, line: Line) -> None:
        b = self.builder
        # Pseudo-instructions first.
        if mnemonic == "la":
            rd = p.reg()
            p.comma()
            b.la(rd, p.take())
            return
        if mnemonic == "li":
            rd = p.reg()
            p.comma()
            b.li(rd, p.imm())
            return
        op = MNEMONIC_TO_OP.get(mnemonic)
        if op is None:
            raise p.error(f"unknown mnemonic {mnemonic!r}")
        fmt = op.info.fmt
        if fmt == Format.R3:
            rd = p.reg(); p.comma(); rs1 = p.reg(); p.comma(); rs2 = p.reg()
            b._emit(op, rd, rs1, rs2)
        elif fmt == Format.R2:
            rd = p.reg(); p.comma(); rs1 = p.reg()
            b._emit(op, rd, rs1)
        elif fmt == Format.RI:
            rd = p.reg(); p.comma(); rs1 = p.reg(); p.comma(); imm = p.imm()
            b._emit(op, rd, rs1, imm=imm)
        elif fmt == Format.LI:
            rd = p.reg(); p.comma(); imm = p.imm()
            b._emit(op, rd, imm=imm)
        elif fmt == Format.LOAD:
            rd = p.reg(); p.comma(); offset, base = p.mem_operand()
            b._emit(op, rd, base, imm=offset)
        elif fmt == Format.STORE:
            data = p.reg(); p.comma(); offset, base = p.mem_operand()
            b._emit(op, rs1=base, rs2=data, imm=offset)
        elif fmt == Format.BRANCH:
            rs1 = p.reg(); p.comma(); rs2 = p.reg(); p.comma()
            target = p.label_or_imm()
            if isinstance(target, int):
                b._emit(op, rs1=rs1, rs2=rs2).target = target
            else:
                b._emit(op, rs1=rs1, rs2=rs2, label=target)
        elif fmt == Format.BRANCH1:
            rs1 = p.reg(); p.comma()
            target = p.label_or_imm()
            if isinstance(target, int):
                b._emit(op, rs1=rs1).target = target
            else:
                b._emit(op, rs1=rs1, label=target)
        elif fmt == Format.JUMP:
            target = p.label_or_imm()
            if isinstance(target, int):
                b._emit(op).target = target
            else:
                b._emit(op, label=target)
        elif fmt == Format.JREG:
            b._emit(op, rs1=p.reg())
        elif fmt == Format.PUSH:
            b._emit(op, rs1=p.reg())
        elif fmt == Format.POP:
            b._emit(op, rd=p.reg())
        elif fmt == Format.NONE:
            b._emit(op)
        else:  # pragma: no cover - exhaustive over Format
            raise p.error(f"unhandled format {fmt}")
        if not p.done():
            raise p.error(f"trailing tokens: {p.tokens[p.pos:]}")


def assemble(source: str, name: str = "program") -> Program:
    """Assemble *source* text into a program."""
    return Assembler(name).assemble(source)
