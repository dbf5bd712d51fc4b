"""Figure 9: reduction of the L1 demand-miss rate versus the baseline.

The paper plots, per benchmark, the cache miss rate of CP+AP, CP+CMP and
HiDISC normalised to the superscalar's (1.0 = no change; lower is better).
Shape targets: the CMP-bearing models cut misses substantially (mean
elimination around the paper's 17.1%), Transitive Closure showing the
largest cut (paper: 26.7%), and CP+AP staying near 1.0 (decoupling alone
does not change what misses).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils import format_table
from ..workloads import WORKLOADS_BY_NAME
from .models import MODEL_LABELS, PAPER
from .reporting import render_bars
from .suite import SuiteResult

_MODES = ("cp_ap", "cp_cmp", "hidisc")


@dataclass
class Figure9:
    """Normalised L1 demand miss rates per (benchmark, model)."""

    suite: SuiteResult

    def ratios(self) -> dict[str, dict[str, float]]:
        """benchmark -> model -> miss-rate ratio vs baseline."""
        out: dict[str, dict[str, float]] = {}
        for name, bench in self.suite.benchmarks.items():
            out[name] = {
                mode: bench.miss_ratio(mode)
                for mode in _MODES if mode in bench.results
            }
        return out

    def best_reduction(self) -> tuple[str, float]:
        """(benchmark, eliminated fraction) with the largest HiDISC cut."""
        best_name, best_cut = "", 0.0
        for name, by_model in self.ratios().items():
            cut = 1.0 - by_model["hidisc"]
            if cut > best_cut:
                best_name, best_cut = name, cut
        return best_name, best_cut

    def render(self) -> str:
        data = self.ratios()
        rows = []
        for name, by_model in data.items():
            base = self.suite.benchmarks[name].baseline
            rows.append(
                [WORKLOADS_BY_NAME[name].label,
                 f"{base.l1_demand_miss_rate:.4f}"]
                + [f"{by_model[m]:.3f}" for m in _MODES]
            )
        table = format_table(
            ["Benchmark", "Baseline miss rate"]
            + [MODEL_LABELS[m] for m in _MODES],
            rows,
        )
        bars = render_bars({
            WORKLOADS_BY_NAME[name].label: {
                MODEL_LABELS[m]: v for m, v in by_model.items()
            }
            for name, by_model in data.items()
        })
        mean_cut = self.suite.mean_miss_reduction("hidisc")
        best_name, best_cut = self.best_reduction()
        headline = (
            f"HiDISC eliminates {mean_cut * 100:.1f}% of L1 demand misses on "
            f"average (paper: {PAPER.mean_miss_reduction * 100:.1f}%); best "
            f"case {best_name} at {best_cut * 100:.1f}% "
            f"(paper: Transitive Closure, 26.7%)"
        )
        return "\n".join([
            "Figure 9: L1 miss rate relative to the baseline superscalar "
            "(lower is better)",
            table, "", bars, "", headline,
        ])


def figure9(suite: SuiteResult) -> Figure9:
    """Build the Figure 9 view of a suite run."""
    return Figure9(suite=suite)
