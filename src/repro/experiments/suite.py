"""Run the whole benchmark suite once; every figure reads from the result.

Figures 8 and 9 and Table 2 are different views of the same 7x4 grid of
simulations, so the suite runs the grid once and the figure modules format
it.  Figure 10 needs its own latency sweep (see
:mod:`repro.experiments.figure10`), reusing the suite's compiled
workloads.

The grid runs in batches, each prepared with
:func:`~repro.experiments.parallel.prepare_many` and simulated with
:func:`~repro.experiments.parallel.run_cells`: one benchmark per batch
when the run is serial (``jobs == 1``, or the default ``jobs == 0`` on a
host with one usable CPU), the whole grid in one batch otherwise.  The
same code resumes checkpointed cells, checkpoints fresh ones and counts
both at every *jobs*.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..config import MachineConfig, SamplingPlan
from ..errors import ConfigError, SimulationError
from ..telemetry import metrics, spans
from ..workloads import Workload, all_workloads, quick_workloads
from .cache import RunCache
from .checkpoint import SuiteCheckpoint
from .models import MODEL_ORDER
from .parallel import prepare_many, resolve_jobs, run_cells
from .runner import BenchmarkResults

ProgressFn = Callable[[str], None]

#: Per-cell completion hook: ``on_cell(benchmark, mode, resumed)`` fires
#: after each grid cell is checkpointed (or loaded from a checkpoint).
#: The service worker uses it for job events, lease-freshness checks and
#: cancellation polls; tests use it to interrupt at exact cell counts.
CellFn = Callable[[str, str, bool], None]


@dataclass
class SuiteResult:
    """The 7-benchmark x 4-model simulation grid."""

    config: MachineConfig
    quick: bool
    benchmarks: dict[str, BenchmarkResults] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def names(self) -> list[str]:
        return list(self.benchmarks)

    def _require_benchmarks(self, what: str) -> None:
        if not self.benchmarks:
            raise SimulationError(
                f"cannot compute {what} of an empty suite — no benchmarks "
                f"were simulated"
            )

    def mean_speedup(self, mode: str) -> float:
        """Arithmetic mean speedup over the baseline (paper's Table 2)."""
        self._require_benchmarks("mean speedup")
        values = [b.speedup(mode) for b in self.benchmarks.values()]
        return sum(values) / len(values)

    def mean_miss_reduction(self, mode: str) -> float:
        """Mean fraction of L1 demand misses eliminated vs the baseline."""
        self._require_benchmarks("mean miss reduction")
        values = [1.0 - b.miss_ratio(mode) for b in self.benchmarks.values()]
        return sum(values) / len(values)

    def to_payload(self) -> dict:
        """JSON-ready nested dict of the whole grid."""
        out: dict = {"quick": self.quick, "elapsed_seconds": self.elapsed_seconds,
                     "benchmarks": {}}
        for name, bench in self.benchmarks.items():
            entry: dict = {"work_instructions": bench.compiled.work, "models": {}}
            for mode, result in bench.results.items():
                cell = {
                    "cycles": result.cycles,
                    "ipc": result.ipc,
                    "l1_demand_miss_rate": result.l1_demand_miss_rate,
                    "speedup": result.speedup_over(bench.baseline),
                    "lod_cycles": result.loss_of_decoupling_cycles(),
                    "lod_breakdown": result.stall_breakdown(),
                    "cpi_stack": result.cpi_stacks,
                    "cmas_threads": result.cmas_threads_forked,
                }
                if result.sampled:
                    cell["sampled"] = True
                    cell["sampling"] = result.sampling
                entry["models"][mode] = cell
            out["benchmarks"][name] = entry
        return out


def run_suite(
    config: MachineConfig | None = None,
    quick: bool = False,
    seed: int = 2003,
    modes: tuple[str, ...] = MODEL_ORDER,
    workloads: Iterable[Workload] | None = None,
    progress: ProgressFn | None = None,
    jobs: int = 0,
    cache: RunCache | None = None,
    verify: bool = False,
    resume: bool = False,
    on_cell: CellFn | None = None,
    sampling: SamplingPlan | None = None,
) -> SuiteResult:
    """Prepare and simulate every benchmark on every model.

    Every preparation and cell runs through
    :mod:`repro.experiments.parallel`: the default ``jobs == 0`` takes
    every usable CPU (:func:`~repro.experiments.parallel.resolve_jobs`,
    resolved once here), ``jobs > 1`` fans them out over worker
    processes, ``jobs == 1`` runs them inline one benchmark at a time.
    Results are assembled in grid order, so the payload is the same at
    every *jobs* modulo ``elapsed_seconds``.  Every cell collects
    its CPI stacks, so the suite JSON payload carries the cycle
    attribution of every run.  ``cache`` memoizes compilations on disk
    (see :mod:`repro.experiments.cache`).

    When a *cache* is given, every completed grid cell is checkpointed
    into ``<cache>/suites/<suite-key>/`` the moment it finishes;
    ``resume=True`` loads the checkpointed cells of an interrupted run
    and simulates only the missing ones (the simulators are
    deterministic, so the resumed payload is identical to an
    uninterrupted run modulo ``elapsed_seconds``).  ``verify=True``
    referees every cell with the co-simulation oracle
    (:func:`repro.resilience.verified_run`).

    *on_cell* fires after every cell lands (computed-and-checkpointed or
    resumed; within a benchmark, resumed cells land first), and
    :func:`repro.experiments.interrupt.poll` runs before every task —
    under a :class:`~repro.experiments.interrupt.GracefulInterrupt` a
    SIGINT/SIGTERM therefore stops the suite *between* cells with every
    completed cell safely on disk.

    *sampling* runs every grid cell through the sampled-interval driver
    (:mod:`repro.sim.sampling`): results carry ``sampled=True`` and the
    extrapolation metadata, and the checkpoint directory is keyed on the
    plan so sampled and full cells never alias.  Mutually exclusive with
    *verify* (the oracle needs the full commit stream).
    """
    if sampling is not None and verify:
        from ..errors import SamplingError

        raise SamplingError(
            "--verify needs full-detail simulation; drop --sample to "
            "referee runs with the co-simulation oracle"
        )
    config = config if config is not None else MachineConfig()
    jobs = resolve_jobs(jobs)
    if workloads is None:
        workloads = quick_workloads(seed) if quick else all_workloads(seed)
    workloads = list(workloads)
    if resume and cache is None:
        raise ConfigError(
            "suite resume needs the run cache for its checkpoints — "
            "drop --no-cache or pass a RunCache"
        )
    checkpoint = (
        SuiteCheckpoint.for_suite(cache, config, workloads, modes,
                                  sampling=sampling)
        if cache is not None else None
    )
    if resume and progress:
        found = len(checkpoint.cells())
        progress(f"resuming: {found} checkpointed cells under "
                 f"{checkpoint.root}")
    start = time.perf_counter()
    suite = SuiteResult(config=config, quick=quick)
    # Serial runs take one benchmark per batch: preparing the whole paper
    # grid before its first cell raised peak RSS from 191.7 to 208.3 MB
    # (+8.7%, 2-vCPU VM); per-benchmark batches read 191.1-191.9 MB.  A
    # pool takes the whole grid in one batch.
    batches = [[w] for w in workloads] if jobs == 1 else [workloads]
    with spans.span("run_suite", cat="suite", benchmarks=len(workloads),
                    modes=len(modes), jobs=jobs, resume=resume):
        for batch in batches:
            _run_batch(suite, batch, config, modes, progress, jobs=jobs,
                       cache=cache, verify=verify, checkpoint=checkpoint,
                       resume=resume, on_cell=on_cell, sampling=sampling)
    suite.elapsed_seconds = time.perf_counter() - start
    return suite


def _run_batch(suite: SuiteResult, workloads: list[Workload],
               config: MachineConfig, modes: tuple[str, ...],
               progress: ProgressFn | None, jobs: int,
               cache: RunCache | None, verify: bool,
               checkpoint: SuiteCheckpoint | None, resume: bool,
               on_cell: CellFn | None,
               sampling: SamplingPlan | None) -> None:
    """Prepare *workloads* and simulate their cells into *suite*.

    Each completed cell is checkpointed the moment its result lands (via
    ``run_tasks``'s *on_result* hook), so an interruption at any point
    loses at most the in-flight cells; with *resume*, checkpointed cells
    are loaded up front and never run.
    """
    if progress:
        progress(f"preparing {', '.join(w.name for w in workloads)} ...")
    compiled = prepare_many(workloads, config, jobs=jobs, cache=cache,
                            progress=progress)

    grid = [(cw, mode) for cw in compiled for mode in modes]
    cells: dict[int, object] = {}
    if resume:
        for index, (cw, mode) in enumerate(grid):
            result = checkpoint.load(cw.name, mode)
            if result is not None:
                cells[index] = result
                if on_cell is not None:
                    on_cell(cw.name, mode, True)
        if cells:
            metrics.inc("cells_resumed", len(cells))
            if progress:
                progress(f"  resumed {len(cells)}/{len(grid)} cells from "
                         f"checkpoint")
    missing = [index for index in range(len(grid)) if index not in cells]
    if progress:
        progress(f"simulating {len(missing)} grid cells (jobs={jobs}) ...")

    def land(task_index: int, result) -> None:
        index = missing[task_index]
        cells[index] = result
        metrics.inc("cells_completed")
        cw, mode = grid[index]
        if checkpoint is not None:
            checkpoint.store(cw.name, mode, result)
        if on_cell is not None:
            on_cell(cw.name, mode, False)

    run_cells([grid[index] for index in missing], config, jobs=jobs,
              cpi=True, verify=verify, sampling=sampling,
              progress=progress, on_result=land)
    for cw in compiled:
        suite.benchmarks[cw.name] = BenchmarkResults(compiled=cw)
    for index, (cw, mode) in enumerate(grid):
        suite.benchmarks[cw.name].results[mode] = cells[index]
    if progress:
        for cw in compiled:
            bench = suite.benchmarks[cw.name]
            if {"superscalar", "hidisc"} <= set(bench.results):
                base = bench.baseline
                progress(f"  {cw.name}: baseline {base.cycles} cycles "
                         f"(IPC {base.ipc:.2f}), hidisc speedup "
                         f"{bench.speedup('hidisc'):.3f}")
            else:
                progress(f"  {cw.name}: done")
