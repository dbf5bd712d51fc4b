"""The :class:`Program` container: text segment, data image, symbols.

Memory layout (byte addresses)::

    0x0010_0000   DATA_BASE   — static data segment grows upward
    0x0100_0000   HEAP_BASE   — workload generators place bulk arrays here
    0x0800_0000   STACK_TOP   — ``sp`` is initialised here, grows downward

The text segment is *not* mapped into data memory; the PC is an index into
``program.text`` (see :mod:`repro.isa.instruction`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AssemblyError
from ..isa.instruction import Instruction

DATA_BASE = 0x0010_0000
HEAP_BASE = 0x0100_0000
STACK_TOP = 0x0800_0000
#: Default size of simulated memory in bytes (sparse — only touched pages
#: are materialised, see :mod:`repro.sim.memory`).
MEMORY_BYTES = 0x0800_0000


@dataclass
class Program:
    """An assembled program ready for simulation."""

    text: list[Instruction] = field(default_factory=list)
    #: Initial contents of the data segment, loaded at :data:`DATA_BASE`.
    data: bytearray = field(default_factory=bytearray)
    #: Symbol table: label -> instruction index (text) or byte address (data).
    text_symbols: dict[str, int] = field(default_factory=dict)
    data_symbols: dict[str, int] = field(default_factory=dict)
    #: Entry point (instruction index).
    entry: int = 0
    name: str = "program"

    def __len__(self) -> int:
        return len(self.text)

    def symbol(self, name: str) -> int:
        """Look up *name* in the data then text symbol tables."""
        if name in self.data_symbols:
            return self.data_symbols[name]
        if name in self.text_symbols:
            return self.text_symbols[name]
        raise AssemblyError(f"undefined symbol {name!r}")

    def validate(self) -> None:
        """Structural checks: targets in range, operand register spaces."""
        n = len(self.text)
        for i, instr in enumerate(self.text):
            try:
                instr.validate()
            except ValueError as exc:
                raise AssemblyError(f"instruction {i}: {exc}") from exc
            if instr.is_control and instr.op.info.fmt.value in ("branch", "br1", "jump"):
                if not (0 <= instr.target < n):
                    raise AssemblyError(
                        f"instruction {i}: target {instr.target} outside text "
                        f"segment of {n} instructions"
                    )
        if not (0 <= self.entry <= n):
            raise AssemblyError(f"entry point {self.entry} outside program")

    def copy(self) -> "Program":
        """Deep copy — the slicer annotates a copy, never the original."""
        return Program(
            text=[instr.copy() for instr in self.text],
            data=bytearray(self.data),
            text_symbols=dict(self.text_symbols),
            data_symbols=dict(self.data_symbols),
            entry=self.entry,
            name=self.name,
        )
