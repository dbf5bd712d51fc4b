"""Figure 10: latency tolerance — IPC versus (L2, memory) latency.

The paper sweeps (L2 latency / memory latency) over 4/40, 8/80, 12/120 and
16/160 for the Pointer and Neighborhood stressmarks, plotting IPC of all
four models.  Shape targets: the CMP-bearing models stay nearly flat
(paper: HiDISC loses only 1.8% on Pointer / 4.8% on Neighborhood from the
shortest to the longest latency) while the baseline and CP+AP degrade
steeply (20.3% / 13.9%).

Compilation and traces are latency-independent, so each benchmark is
prepared once and replayed at every latency point.  Every benchmark is
prepared before the first cell runs, and every (benchmark, latency, model)
cell runs through :func:`repro.experiments.parallel.run_cells`, inline at
``jobs == 1`` and on a worker pool otherwise (by default one worker per
usable CPU).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import FIGURE10_LATENCIES, MachineConfig, SamplingPlan
from ..errors import SimulationError
from ..utils import format_table
from .cache import RunCache, compile_key
from .models import MODEL_LABELS, MODEL_ORDER, PAPER
from .parallel import prepare_many, resolve_jobs, run_cells
from .runner import CompiledWorkload
from .suite import ProgressFn

#: Benchmarks the paper sweeps.
FIGURE10_BENCHMARKS = ("pointer", "neighborhood")


@dataclass
class Figure10:
    """IPC grid: benchmark -> model -> [IPC per latency point]."""

    latencies: tuple[tuple[int, int], ...]
    ipc: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def degradation(self, benchmark: str, mode: str) -> float:
        """Fractional IPC loss from the shortest to the longest latency."""
        series = self.ipc[benchmark][mode]
        if series[0] == 0:
            return 0.0
        return 1.0 - series[-1] / series[0]

    def render(self) -> str:
        blocks = []
        for name, by_model in self.ipc.items():
            rows = []
            for mode in MODEL_ORDER:
                if mode not in by_model:
                    continue
                rows.append(
                    [MODEL_LABELS[mode]]
                    + [f"{v:.3f}" for v in by_model[mode]]
                    + [f"-{self.degradation(name, mode) * 100:.1f}%"]
                )
            header = ["Model"] + [
                f"{l2}/{mem}" for l2, mem in self.latencies
            ] + ["degradation"]
            paper_base = PAPER.figure10_degradation.get((name, "superscalar"))
            paper_hd = PAPER.figure10_degradation.get((name, "hidisc"))
            note = ""
            if paper_base is not None:
                note = (f"  (paper: superscalar -{paper_base * 100:.1f}%, "
                        f"HiDISC -{paper_hd * 100:.1f}%)")
            blocks.append(f"{name} — IPC vs L2/memory latency{note}\n"
                          + format_table(header, rows))
        return ("Figure 10: latency tolerance for various memory latencies\n"
                + "\n\n".join(blocks))


def figure10(
    config: MachineConfig | None = None,
    quick: bool = False,
    seed: int = 2003,
    benchmarks: tuple[str, ...] = FIGURE10_BENCHMARKS,
    latencies: tuple[tuple[int, int], ...] = FIGURE10_LATENCIES,
    modes: tuple[str, ...] = MODEL_ORDER,
    progress: ProgressFn | None = None,
    compiled: dict[str, CompiledWorkload] | None = None,
    jobs: int = 0,
    cache: RunCache | None = None,
    verify: bool = False,
    sampling: SamplingPlan | None = None,
) -> Figure10:
    """Run the latency sweep.

    Pass *compiled* (name -> :class:`CompiledWorkload`) to reuse
    preparations from a prior suite run — each entry's fingerprint is
    checked against the sweep's own (config, quick, seed), and a mismatch
    raises :class:`SimulationError` rather than silently replaying a
    compilation prepared under different settings (stale CMAS trigger
    distance, wrong workload size, ...).

    ``jobs > 1`` fans preparation and the (benchmark, latency, model)
    cells out over worker processes, and the default ``jobs == 0`` takes
    every usable CPU; ``jobs == 1`` runs them inline.  *cache* memoizes
    compilations.
    *verify* referees every cell with the co-simulation oracle.
    *sampling* runs every sweep cell through the sampled-interval driver
    (``hidisc figure10 --sample`` — the sampled-vs-full recipe in
    EXPERIMENTS.md compares the two sweeps point by point).
    """
    base_config = config if config is not None else MachineConfig()
    jobs = resolve_jobs(jobs)
    from ..workloads import get_workload

    workloads = [get_workload(name, quick=quick, seed=seed)
                 for name in benchmarks]
    by_name: dict[str, CompiledWorkload] = {}
    missing = []
    for workload in workloads:
        expected = compile_key(workload, base_config)
        if compiled is not None and workload.name in compiled:
            cw = compiled[workload.name]
            if cw.fingerprint != expected:
                raise SimulationError(
                    f"figure10: compiled workload {workload.name!r} was "
                    f"prepared under a different workload/config/version "
                    f"(fingerprint {cw.fingerprint[:12] or '<unset>'}..., "
                    f"expected {expected[:12]}...) — re-prepare with the "
                    f"sweep's quick/seed/config settings"
                )
            by_name[workload.name] = cw
        else:
            missing.append(workload)

    for cw in prepare_many(missing, base_config, jobs=jobs, cache=cache,
                           progress=progress):
        by_name[cw.name] = cw

    cells = [
        (by_name[name], mode, base_config.with_latency(l2, mem))
        for name in benchmarks
        for l2, mem in latencies
        for mode in modes
    ]
    results = run_cells(cells, base_config, jobs=jobs, verify=verify,
                        sampling=sampling, progress=progress)
    out = Figure10(latencies=latencies)
    for name in benchmarks:
        out.ipc[name] = {mode: [] for mode in modes}
    for (cw, mode, _point), result in zip(cells, results):
        out.ipc[cw.name][mode].append(result.ipc)
    return out
