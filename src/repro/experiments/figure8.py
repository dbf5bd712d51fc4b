"""Figure 8: speed-up of each model over the baseline superscalar.

The paper plots, per benchmark, four normalised performance bars
(superscalar = 1.0, CP+AP, CP+CMP, HiDISC).  Shape targets: HiDISC best on
most benchmarks (all but Neighborhood, where CP+CMP edges it); CP+AP close
to the baseline and *below* it on Neighborhood; the CMP-bearing models
supplying most of the gain; Field gaining from decoupling but not from the
CMP.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils import format_table
from ..workloads import WORKLOADS_BY_NAME
from .models import MODEL_LABELS, MODEL_ORDER
from .reporting import percent, render_bars
from .suite import SuiteResult


@dataclass
class Figure8:
    """Normalised performance per (benchmark, model)."""

    suite: SuiteResult

    def speedups(self) -> dict[str, dict[str, float]]:
        """benchmark -> model -> speedup over baseline."""
        out: dict[str, dict[str, float]] = {}
        for name, bench in self.suite.benchmarks.items():
            out[name] = {mode: bench.speedup(mode) for mode in MODEL_ORDER
                         if mode in bench.results}
        return out

    def best_model(self, benchmark: str) -> str:
        bench = self.suite.benchmarks[benchmark]
        return max(bench.results, key=lambda m: bench.speedup(m))

    def render(self) -> str:
        rows = []
        data = self.speedups()
        for name, by_model in data.items():
            label = WORKLOADS_BY_NAME[name].label
            rows.append(
                [label] + [f"{by_model[m]:.3f}" for m in MODEL_ORDER]
                + [MODEL_LABELS[self.best_model(name)]]
            )
        mean_row = ["MEAN"] + [
            f"{self.suite.mean_speedup(m):.3f}" for m in MODEL_ORDER
        ] + [""]
        table = format_table(
            ["Benchmark"] + [MODEL_LABELS[m] for m in MODEL_ORDER] + ["Best"],
            rows + [mean_row],
        )
        bars = render_bars({
            WORKLOADS_BY_NAME[name].label: {
                MODEL_LABELS[m]: v for m, v in by_model.items()
            }
            for name, by_model in data.items()
        })
        headline = (
            f"HiDISC mean speedup: "
            f"{percent(self.suite.mean_speedup('hidisc'))} "
            f"(paper: +11.9%, upper bound +18.5% on Update)"
        )
        return "\n".join([
            "Figure 8: speed-up compared to the baseline superscalar",
            table, "", bars, "", headline,
        ])


def figure8(suite: SuiteResult) -> Figure8:
    """Build the Figure 8 view of a suite run."""
    return Figure8(suite=suite)
