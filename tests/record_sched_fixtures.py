"""Record the parity fixtures for tests/test_sched_parity.py and
tests/test_sampling.py.

Runs the quick-scale suite (7 benchmarks x 4 machine models) with CPI
telemetry on and writes every cycle count, per-core CoreStats and CPI
stack to ``tests/fixtures/sched_parity.json``.  The fixtures pin the
*cycle-exact* behaviour of the timing model: any scheduler rewrite (such
as the event-driven wakeup core) must reproduce them bit-for-bit.

It also runs the paper-scale sampled cells of :data:`SAMPLED_CELLS` and
writes their extrapolated results to ``tests/fixtures/sampled_parity.json``:
every counter and the whole ``sampling`` dict, so a change to sampled
simulation (window state, warming probe, refinement) must reproduce
them bit-for-bit too.

Regenerate (only when an intentional timing-model change lands)::

    PYTHONPATH=src python -m tests.record_sched_fixtures
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.config import MachineConfig, SamplingPlan
from repro.experiments.runner import prepare, run_model
from repro.telemetry import Telemetry
from repro.workloads import get_workload, quick_workloads

MODES = ("superscalar", "cp_ap", "cp_cmp", "hidisc")
FIXTURE_PATH = Path(__file__).parent / "fixtures" / "sched_parity.json"
SAMPLED_FIXTURE_PATH = FIXTURE_PATH.with_name("sampled_parity.json")
SEED = 2003

#: Grid-validated plan: every paper-scale (benchmark, model) cell lands
#: inside the default 3% error budget at this density.
GRID_PLAN = SamplingPlan(interval_length=4000, detail_length=1000,
                         warmup_length=1000)

#: A plan under which paper-scale spmv refines once and stays sampled.
REFINE_PLAN = SamplingPlan(interval_length=8000, detail_length=1000,
                           warmup_length=500, error_budget=0.05)

#: ``(benchmark, mode, plan, cpi)`` of every pinned sampled cell.  The
#: raytrace cells sample without refining and run without telemetry (they
#: are the runs ``TestSampledRun`` makes anyway); spmv refines once; update
#: at GRID_PLAN degrades to exact.
SAMPLED_CELLS = (
    *[("raytrace", mode, GRID_PLAN, False) for mode in MODES],
    ("spmv", "superscalar", REFINE_PLAN, True),
    ("spmv", "hidisc", REFINE_PLAN, True),
    ("update", "hidisc", GRID_PLAN, True),
)


def sampled_cell(result) -> dict:
    """The pinned fields of one sampled ``RunResult``, as JSON reads them."""
    return json.loads(json.dumps({
        "cycles": result.cycles,
        "total_cycles": result.total_cycles,
        "committed": dict(result.committed),
        "core_stats": result.core_stats,
        "cpi_stacks": result.cpi_stacks,
        "l1": dataclasses.asdict(result.l1),
        "l2": dataclasses.asdict(result.l2),
        "memory": dataclasses.asdict(result.memory),
        "branch": dataclasses.asdict(result.branch),
        "cmas_threads_forked": result.cmas_threads_forked,
        "cmas_threads_dropped": result.cmas_threads_dropped,
        "sampling": result.sampling,
    }))


def run_sampled_cell(compiled, mode: str, plan: SamplingPlan, cpi: bool):
    return run_model(compiled, MachineConfig(), mode, sampling=plan,
                     telemetry=Telemetry(cpi=True) if cpi else None)


def record() -> dict:
    """Simulate the full quick grid; returns the fixture payload."""
    config = MachineConfig()
    grid: dict[str, dict] = {}
    for workload in quick_workloads(SEED):
        compiled = prepare(workload, config)
        cells: dict[str, dict] = {}
        for mode in MODES:
            result = run_model(compiled, config, mode,
                               telemetry=Telemetry(cpi=True))
            cells[mode] = {
                "cycles": result.cycles,
                "total_cycles": result.total_cycles,
                "committed": dict(result.committed),
                "core_stats": result.core_stats,
                "cpi_stacks": result.cpi_stacks,
                "cmas_threads_forked": result.cmas_threads_forked,
                "cmas_threads_dropped": result.cmas_threads_dropped,
            }
        grid[workload.name] = cells
    return {"seed": SEED, "modes": list(MODES), "grid": grid}


def record_sampled() -> dict:
    """Simulate every :data:`SAMPLED_CELLS` cell; returns the payload."""
    config = MachineConfig()
    compiled: dict = {}
    cells: dict[str, dict] = {}
    for name, mode, plan, cpi in SAMPLED_CELLS:
        if name not in compiled:
            compiled[name] = prepare(get_workload(name, seed=SEED), config)
        result = run_sampled_cell(compiled[name], mode, plan, cpi)
        cells[f"{name}/{mode}"] = sampled_cell(result)
    return {"seed": SEED, "cells": cells}


def main() -> None:
    payload = record()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True))
    cells = sum(len(cells) for cells in payload["grid"].values())
    print(f"recorded {cells} grid cells to {FIXTURE_PATH}")
    sampled = record_sampled()
    SAMPLED_FIXTURE_PATH.write_text(
        json.dumps(sampled, indent=1, sort_keys=True))
    print(f"recorded {len(sampled['cells'])} sampled cells to "
          f"{SAMPLED_FIXTURE_PATH}")


if __name__ == "__main__":
    main()
