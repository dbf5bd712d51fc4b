"""Table 1: simulation parameters.

The table is generated from the live :class:`~repro.config.MachineConfig`
defaults, so it can never drift from what the simulator actually uses.
"""

from __future__ import annotations

from ..config import MachineConfig
from ..utils import format_table


def table1(config: MachineConfig | None = None) -> str:
    """Render Table 1 for *config* (defaults reproduce the paper)."""
    config = config if config is not None else MachineConfig()
    return format_table(["Parameter", "Value"], config.describe())


def main() -> None:  # pragma: no cover - thin CLI shim
    print("Table 1: Simulation parameters")
    print(table1())
