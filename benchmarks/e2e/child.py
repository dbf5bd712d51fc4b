"""One in-process suite workload of the end-to-end benchmark.

``run.py`` spawns this file once per measured iteration, with
``HIDISC_CACHE_DIR`` pointing at an empty run cache (the warm workload:
at the cache primed for the run)::

    child.py --workload W --seed N --work DIR --mode prime|timed|traced

``prime`` fills the run cache with ``prepare_cached`` and exits (the warm
workload's set-up).  The other modes import the package and build the
workload objects, print ``ready`` and wait for one line on stdin: ``go``
runs the pass, anything else exits (a set-up-only sample).

``timed`` calls ``run_suite`` exactly as ``hidisc suite`` would, with no
instrumentation.  ``traced`` replays the same grid through the layers'
public functions (``prepare``'s constituent calls, ``RunCache``,
``SuiteCheckpoint``, ``run_model``), recording a span around each call.
Both write ``payload.json`` (part of the pass) and then ``result.json``
for the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import cell_digests
from harness import Tracer, self_times, totals, tree_mb, vm_hwm_mb, \
    write_chrome_trace

from repro.config import MachineConfig, SamplingPlan
from repro.experiments.cache import RunCache, compile_key, prepare_cached
from repro.experiments.checkpoint import SuiteCheckpoint
from repro.experiments.models import MODEL_ORDER
from repro.experiments.runner import BenchmarkResults, CompiledWorkload, \
    _warmup_positions, run_model
from repro.experiments.suite import SuiteResult, run_suite
from repro.errors import SimulationError
from repro.sim import build_cmas_plan, build_queue_plan
from repro.sim.functional import DecoupledFunctionalSimulator, \
    FunctionalSimulator
from repro.slicer import compile_hidisc, validate_separation
from repro.telemetry import Telemetry
from repro.workloads import all_workloads, check_ap_executable
from repro.workloads.large import large_workload


@dataclass(frozen=True)
class Suite:
    """How one in-process workload calls ``run_suite``."""

    benchmarks: tuple[str, ...] | None   # large-tier names; None = paper grid
    cache: bool
    sampled: bool

    def workloads(self, seed: int):
        if self.benchmarks is None:
            return all_workloads(seed)
        return [large_workload(name, seed=seed) for name in self.benchmarks]

    @property
    def sampling(self) -> SamplingPlan | None:
        return SamplingPlan() if self.sampled else None


#: The large tier runs raytrace only: its kernel's control flow and
#: addresses do not depend on the data, so its sampled schedule (and host
#: time) is the same at every seed, and one grid fits a run (README.md).
SUITES = {
    "paper-full": Suite(None, cache=False, sampled=False),
    "large-sampled-cold": Suite(("raytrace",), cache=True, sampled=True),
    "large-sampled-warm": Suite(("raytrace",), cache=True, sampled=True),
}

CONFIG = MachineConfig()


def timed_pass(suite: Suite, workloads, work: Path) -> dict:
    start = time.perf_counter()
    result = run_suite(CONFIG, workloads=workloads,
                       cache=RunCache() if suite.cache else None,
                       sampling=suite.sampling)
    (work / "payload.json").write_text(json.dumps(result.to_payload()))
    return {"wall_s": time.perf_counter() - start,
            "digests": cell_digests(result)}


def traced_prepare(workload, tracer: Tracer, counts: dict) -> CompiledWorkload:
    """``runner.prepare`` call by call, one span per layer."""
    span = tracer.span
    with span("experiments.runner.prepare", benchmark=workload.name):
        start = time.perf_counter()
        with span("workloads.build"):
            program = workload.program
        trace: list = []
        with span("sim.functional.seq"):
            seq_state = FunctionalSimulator(program).run(trace=trace)
        with span("workloads.verify"):
            workload.verify(seq_state)
        with span("slicer.compile"):
            comp = compile_hidisc(program, CONFIG, trace=trace)
        with span("slicer.validate"):
            validate_separation(comp.separation)
            check_ap_executable(comp.decoupled, ap_has_fp=CONFIG.ap.has_fp)
        dtrace: list = []
        with span("sim.functional.dec"):
            dec = DecoupledFunctionalSimulator(comp.decoupled)
            dec_state = dec.run(trace=dtrace)
        with span("workloads.verify"):
            workload.verify(dec_state)
        if not dec.queues.ldq.empty or not dec.queues.sdq.empty:
            raise SimulationError(f"{workload.name}: queues not drained")
        counts["functional_instr"] += len(trace) + len(dtrace)
        with span("experiments.runner.warmup"):
            warm_orig, warm_dec = _warmup_positions(
                workload, comp.original, comp.decoupled, trace, dtrace)
        with span("sim.trace.queue_plan"):
            queue_plan = build_queue_plan(comp.decoupled, dtrace)
        with span("sim.trace.cmas_plan"):
            distance = CONFIG.cmas.trigger_distance
            cmas_original = build_cmas_plan(comp.original, trace, distance)
            cmas_decoupled = build_cmas_plan(comp.decoupled, dtrace, distance)
        return CompiledWorkload(
            workload=workload, compilation=comp, trace=trace,
            decoupled_trace=dtrace, queue_plan=queue_plan,
            cmas_plan_original=cmas_original,
            cmas_plan_decoupled=cmas_decoupled,
            warmup_pos_original=warm_orig, warmup_pos_decoupled=warm_dec,
            prepare_seconds=time.perf_counter() - start,
            fingerprint=compile_key(workload, CONFIG))


def traced_pass(suite: Suite, workloads, work: Path,
                trace_out: Path) -> dict:
    """``run_suite``'s serial loop through public calls, with spans."""
    tracer = Tracer()
    span = tracer.span
    cache = RunCache() if suite.cache else None
    checkpoint = (SuiteCheckpoint.for_suite(cache, CONFIG, workloads,
                                            MODEL_ORDER,
                                            sampling=suite.sampling)
                  if cache is not None else None)
    telemetry = Telemetry(cpi=True)
    result = SuiteResult(config=CONFIG, quick=False)
    counts = {"functional_instr": 0, "entry_bytes": 0}
    sampled_cells = []
    machine_cycles = 0
    run_layer = "sim.sampling.run" if suite.sampled else "sim.machine.run"
    start = time.perf_counter()
    with span("e2e.pass"):
        for workload in workloads:
            compiled = None
            key = compile_key(workload, CONFIG)
            if cache is not None:
                with span("experiments.cache.load"):
                    compiled = cache.load(key)
            if compiled is None:
                compiled = traced_prepare(workload, tracer, counts)
                if cache is not None:
                    with span("experiments.cache.store"):
                        cache.store(key, compiled)
                    counts["entry_bytes"] += cache.path_for(key).stat().st_size
            bench = BenchmarkResults(compiled=compiled)
            for mode in MODEL_ORDER:
                with span(run_layer, cell=f"{workload.name}/{mode}"):
                    cell = run_model(compiled, CONFIG, mode,
                                     telemetry=telemetry,
                                     sampling=suite.sampling)
                if checkpoint is not None:
                    with span("experiments.checkpoint.store"):
                        checkpoint.store(workload.name, mode, cell)
                if cell.sampled:
                    sampled_cells.append(cell.sampling)
                else:
                    machine_cycles += cell.cycles
                bench.results[mode] = cell
            result.benchmarks[workload.name] = bench
        with span("experiments.suite.payload"):
            (work / "payload.json").write_text(
                json.dumps(result.to_payload()))
    wall = time.perf_counter() - start
    write_chrome_trace(tracer.spans, trace_out, pid=1, epoch_ns=tracer.epoch_ns)

    seconds = totals(tracer.spans)

    def s(name: str) -> float:
        return seconds.get(name, 0.0)

    functional_s = s("sim.functional.seq") + s("sim.functional.dec")
    machine_s = s("sim.machine.run")
    layers = {
        "sim.functional.minstr_per_s": (counts["functional_instr"]
                                        / functional_s / 1e6
                                        if functional_s else 0.0),
        "experiments.cache.entry_mb": counts["entry_bytes"] / 1e6,
        "experiments.cache.misses": cache.misses if cache else 0,
        "experiments.cache.hits": cache.hits if cache else 0,
        "sim.machine.cycles": machine_cycles,
        "sim.machine.kcycles_per_s": (machine_cycles / machine_s / 1e3
                                      if machine_s else 0.0),
        "sim.sampling.windows": sum(c["intervals"] for c in sampled_cells
                                    if not c["exact"]),
        "sim.sampling.detail_frac": (
            sum(c["sampled_positions"] for c in sampled_cells)
            / sum(c["total_positions"] for c in sampled_cells)
            if sampled_cells else 0.0),
        "sim.sampling.exact_cells": sum(1 for c in sampled_cells
                                        if c["exact"]),
    }
    for name in ("sim.functional.seq", "sim.functional.dec",
                 "slicer.compile", "slicer.validate", "workloads.build",
                 "workloads.verify", "experiments.runner.warmup",
                 "sim.trace.queue_plan", "sim.trace.cmas_plan",
                 "experiments.runner.prepare", "experiments.cache.store",
                 "experiments.cache.load", "experiments.checkpoint.store",
                 "sim.machine.run", "sim.sampling.run"):
        layers[f"{name}_s"] = s(name)
    return {"wall_s": wall, "digests": cell_digests(result), "layers": layers,
            "unattributed_s": self_times(tracer.spans)["e2e.pass"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUITES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("prime", "timed", "traced"))
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    suite = SUITES[args.workload]
    workloads = suite.workloads(args.seed)
    if args.mode == "prime":
        cache = RunCache()
        for workload in workloads:
            prepare_cached(workload, CONFIG, cache)
        return 0
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.mode == "timed":
        out = timed_pass(suite, workloads, args.work)
    else:
        out = traced_pass(suite, workloads, args.work, args.trace_out)
    out["disk_mb"] = (tree_mb(RunCache().root)
                      + tree_mb(args.work / "payload.json"))
    out["peak_rss_mb"] = vm_hwm_mb()
    (args.work / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
