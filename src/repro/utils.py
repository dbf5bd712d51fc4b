"""Small shared helpers: fixed-width integer arithmetic and formatting.

The simulator models a 64-bit machine on top of Python's unbounded ints.
All architectural integer state is kept in *signed 64-bit canonical form*
(the unique representative in ``[-2**63, 2**63)``); these helpers perform
the wrapping that real hardware does implicitly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


def to_signed64(value: int) -> int:
    """Wrap *value* to the canonical signed 64-bit representative."""
    value &= _MASK64
    return value - (1 << 64) if value & _SIGN64 else value


def to_unsigned64(value: int) -> int:
    """Return *value* interpreted as an unsigned 64-bit quantity."""
    return value & _MASK64


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low *bits* bits of *value* to a Python int."""
    mask = (1 << bits) - 1
    value &= mask
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to a multiple of *alignment* (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


def is_power_of_two(value: int) -> bool:
    """True iff *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Exact integer log2; raises ``ValueError`` for non-powers of two."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an ASCII table (used by the experiment reporting layer)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+".join("-" * (w + 2) for w in widths)
    sep = f"+{sep}+"
    lines = [sep]
    lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
    lines.append(sep)
    for row in str_rows:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    lines.append(sep)
    return "\n".join(lines)
