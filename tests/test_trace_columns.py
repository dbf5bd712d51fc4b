"""The columnar trace contract and the columnar CMAS plan.

A :class:`~repro.sim.trace.Trace` stores ``pc`` and ``addr`` and derives
``next_pc`` from the following position; a
:class:`~repro.sim.trace.CmasPlan` stores each thread as a slice of one
shared position list.  These tests pin both against independent
references: the interpreter's own ``next_pc`` results, a per-thread CMAS
plan built the way the object layout used to build it, and full model
payloads computed from a compilation before and after a pickle round trip.
"""

from __future__ import annotations

import bisect
import json
import pickle
import pickletools

import pytest

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.experiments.models import MODEL_ORDER
from repro.experiments.runner import BenchmarkResults, prepare, run_model
from repro.experiments.suite import SuiteResult
from repro.isa.opcodes import Op
from repro.sim import DynInstr, Trace, build_cmas_plan
from repro.sim import functional
from repro.sim.functional import (
    DecoupledFunctionalSimulator,
    FunctionalSimulator,
)
from repro.telemetry import Telemetry
from repro.telemetry.diff import diff_payloads
from repro.workloads import quick_workloads

SEED = 2003


@pytest.fixture(scope="module")
def config() -> MachineConfig:
    return MachineConfig()


@pytest.fixture(scope="module")
def compiled(config) -> dict:
    return {w.name: prepare(w, config) for w in quick_workloads(SEED)}


def _interpreter_next_pcs(monkeypatch, make_sim) -> tuple[Trace, list[int]]:
    """Run the legacy interpreter, recording the ``next_pc`` every executed
    instruction returned (HALT returns none: it raises)."""
    returned: list[int] = []
    execute = functional._execute

    def recording(instr, state, queues):
        addr, next_pc = execute(instr, state, queues)
        returned.append(next_pc)
        return addr, next_pc

    monkeypatch.setattr(functional, "_execute", recording)
    trace = Trace()
    make_sim().run(trace=trace, fast=False)
    return trace, returned


@pytest.mark.parametrize("decoupled", [False, True], ids=["seq", "dec"])
def test_next_pc_invariant_on_quick_traces(compiled, decoupled,
                                           monkeypatch):
    """``next_pc`` derived from the following pc equals what the
    interpreter returned at every position, and the last position is a
    HALT whose derived ``next_pc`` is its own pc."""
    for name, cw in sorted(compiled.items()):
        comp = cw.compilation
        program = comp.decoupled if decoupled else comp.original
        sim = (DecoupledFunctionalSimulator if decoupled
               else FunctionalSimulator)
        trace, returned = _interpreter_next_pcs(monkeypatch,
                                                lambda: sim(program))
        assert trace == (cw.decoupled_trace if decoupled else cw.trace), name
        last = len(trace) - 1
        assert [trace.next_pc(i) for i in range(last)] == returned, name
        assert program.text[trace.pc[last]].op is Op.HALT, name
        assert trace.next_pc(last) == trace.pc[last], name


def test_trace_of_round_trips_records(compiled):
    trace = compiled["pointer"].trace
    records = trace.records()
    assert all(isinstance(r, DynInstr) for r in records)
    again = Trace.of(records)
    assert again == trace and again is not trace
    assert Trace.of(trace) is trace


def test_list_adapter_matches_columns(compiled):
    program = compiled["field"].compilation.original
    records: list = []
    FunctionalSimulator(program).run(trace=records)
    assert records == compiled["field"].trace.records()


def test_trace_of_rejects_non_contiguous_records():
    ok = [DynInstr(0, -1, 1), DynInstr(1, 64, 2), DynInstr(2, -1, 2)]
    assert Trace.of(ok).pc.tolist() == [0, 1, 2]
    with pytest.raises(SimulationError, match="position 0"):
        Trace.of([DynInstr(0, -1, 5), DynInstr(1, 64, 2),
                  DynInstr(2, -1, 2)])
    with pytest.raises(SimulationError, match="position 2"):
        Trace.of(ok[:2] + [DynInstr(2, -1, 3)])


# ----------------------------------------------------------------------
# CMAS plans against the per-thread reference.

def _reference_threads(program, trace: Trace, distance: int,
                       max_slice: int = 2048) -> list[tuple]:
    """``(trigger_pos, positions, miss_pos)`` per thread, computed record
    by record as the per-thread object plan was."""
    text = program.text
    records = trace.records()
    cmas = [i for i, dyn in enumerate(records) if text[dyn.pc].ann.cmas]
    misses = [i for i, dyn in enumerate(records)
              if text[dyn.pc].ann.probable_miss]
    threads = []
    next_unclaimed = 0
    for q in misses:
        start = max(0, q - distance)
        lo = max(bisect.bisect_left(cmas, start), next_unclaimed)
        hi = bisect.bisect_right(cmas, q)
        if lo >= hi:
            continue
        positions = cmas[lo:hi][:max_slice]
        next_unclaimed = lo + len(positions)
        threads.append((start, positions, q))
    return threads


@pytest.mark.parametrize("which", ["original", "decoupled"])
def test_cmas_plan_matches_reference(compiled, config, which):
    distance = config.cmas.trigger_distance
    for name, cw in sorted(compiled.items()):
        program = getattr(cw.compilation, which)
        trace = cw.trace if which == "original" else cw.decoupled_trace
        plan = build_cmas_plan(program, trace, distance)
        assert plan == getattr(cw, f"cmas_plan_{which}"), name
        threads = _reference_threads(program, trace, distance)
        assert plan.num_threads == len(threads), name
        assert [plan.positions(i).tolist()
                for i in range(plan.num_threads)] == \
            [positions for _, positions, _ in threads], name
        assert plan.trigger_pos.tolist() == [t for t, _, _ in threads], name
        assert plan.miss_pos.tolist() == [q for _, _, q in threads], name
        assert plan.total_prefetch_instructions == \
            sum(len(p) for _, p, _ in threads), name
        by_trigger: dict[int, list[int]] = {}
        for index, (trigger, _, _) in enumerate(threads):
            by_trigger.setdefault(trigger, []).append(index)
        assert list(plan.firing_order) == [
            index for trigger in sorted(by_trigger)
            for index in by_trigger[trigger]], name
        # An even spread plus the band edges of the first threads.
        probes = sorted(set(range(0, len(trace) + 1,
                                  max(1, len(trace) // 200)))
                        | {t for t, _, _ in threads[:50]}
                        | {q + 1 for _, _, q in threads[:50]})
        for pos in probes:
            expected = [index for index, (trigger, _, q) in
                        enumerate(threads) if trigger < pos <= q]
            assert plan.pending_at(pos) == expected, (name, pos)


# ----------------------------------------------------------------------
# The pickled form.

def test_pickled_compilation_holds_no_record_objects(compiled):
    blob = pickle.dumps(compiled["pointer"],
                        protocol=pickle.HIGHEST_PROTOCOL)
    names = {arg for _, arg, _ in pickletools.genops(blob)
             if isinstance(arg, str)}
    assert "Trace" in names and "CmasPlan" in names
    assert not names & {"DynInstr", "CmasThread"}


@pytest.mark.parametrize("name", [w.name for w in quick_workloads(SEED)])
def test_round_tripped_compilation_gives_identical_payload(compiled, config,
                                                           name):
    """Every model on the compilation as built and as loaded from its
    pickle produces the same payload, byte for byte."""
    cw = compiled[name]
    loaded = pickle.loads(pickle.dumps(cw, protocol=pickle.HIGHEST_PROTOCOL))
    payloads = []
    for source in (cw, loaded):
        suite = SuiteResult(config=config, quick=True)
        bench = BenchmarkResults(compiled=source)
        for mode in MODEL_ORDER:
            bench.results[mode] = run_model(source, config, mode,
                                            telemetry=Telemetry(cpi=True))
        suite.benchmarks[name] = bench
        payloads.append(suite.to_payload())
    assert diff_payloads(*payloads)["identical"]
    assert json.dumps(payloads[0], sort_keys=True) == \
        json.dumps(payloads[1], sort_keys=True)
