"""Table 2: average speed-up of the three HiDISC-family models.

Paper values: CP+AP 1.3%, CP+CMP 10.7%, HiDISC 11.9%.  The shape to hold:
decoupling alone contributes little, prefetching supplies most of the
gain, and the full HiDISC is best.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils import format_table
from .models import MODEL_CHARACTERISTICS, MODEL_LABELS, PAPER
from .reporting import percent
from .suite import SuiteResult


@dataclass
class Table2:
    """Mean speedups per model."""

    suite: SuiteResult

    def means(self) -> dict[str, float]:
        return {
            mode: self.suite.mean_speedup(mode)
            for mode in ("cp_ap", "cp_cmp", "hidisc")
        }

    def ordering_holds(self) -> bool:
        """The paper's ordering: CP+AP << CP+CMP <= HiDISC."""
        m = self.means()
        return m["cp_ap"] < m["cp_cmp"] and m["cp_cmp"] <= m["hidisc"] * 1.02

    def render(self) -> str:
        rows = []
        for mode, mean in self.means().items():
            rows.append([
                MODEL_LABELS[mode],
                MODEL_CHARACTERISTICS[mode],
                percent(mean),
                percent(PAPER.table2_speedup[mode]),
            ])
        table = format_table(
            ["Configuration", "Characteristic", "Speed-up (measured)",
             "Speed-up (paper)"],
            rows,
        )
        return "\n".join([
            "Table 2: average speed-up of the three architecture models",
            table,
        ])


def table2(suite: SuiteResult) -> Table2:
    """Build the Table 2 view of a suite run."""
    return Table2(suite=suite)
