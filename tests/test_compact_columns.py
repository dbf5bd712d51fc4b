"""Compact compilations: every integer column is a typed ``array.array``.

A trace's ``pc``/``addr`` columns, a queue plan's four position columns
and a CMAS plan's thread columns are arrays of the narrowest typecode the
helper (:func:`repro.sim.trace.typecode_for`) picks from the data — never
lists of boxed ints.  These tests pin that after ``prepare``, through a
run-cache round trip and through pool transport; bound the live size of
an unpickled compilation; show that a program whose pcs outgrow the
narrowest typecode records, plans and replays correctly; and that plans
built by hand from lists equal built ones.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
from array import array
from dataclasses import fields

import pytest

from repro.asm.builder import ProgramBuilder
from repro.config import MachineConfig, SamplingPlan
from repro.experiments import RunCache, Task, run_tasks
from repro.experiments.models import MODEL_ORDER
from repro.experiments.runner import prepare
from repro.sim import (
    CmasPlan,
    Machine,
    QueuePlan,
    Trace,
    build_cmas_plan,
    build_queue_plan,
    generate_decoupled_trace,
    generate_trace,
    run_sampled,
)
from repro.sim.decode import decode_program
from repro.sim.functional import FunctionalSimulator
from repro.sim.profiler import profile_cache
from repro.sim.sampling import WarmupProbe
from repro.sim.trace import ADDR_TYPECODE, typecode_for
from repro.slicer import compile_hidisc
from repro.slicer.adaptive import adaptive_trigger_distances
from repro.workloads import get_workload

#: The CMAS plan's thread columns (``firing_order`` too, unless a range).
CMAS_COLUMNS = ("cmas_positions", "trigger_pos", "miss_pos", "lo", "hi")


@pytest.fixture(scope="module")
def config() -> MachineConfig:
    return MachineConfig()


@pytest.fixture(scope="module")
def compiled(config) -> dict:
    return {"paper dm": prepare(get_workload("dm"), config),
            "quick spmv": prepare(get_workload("spmv", quick=True), config)}


def _unsigned(column) -> str:
    return typecode_for(max(column, default=0))


def compact_columns(cw) -> dict[str, tuple[array, str]]:
    """Every integer column of *cw*, with the typecode the helper gives it."""
    comp = cw.compilation
    out = {}
    for name, trace, program in (
            ("trace", cw.trace, comp.original),
            ("decoupled_trace", cw.decoupled_trace, comp.decoupled)):
        # The pc column is sized by the program's largest static index.
        out[f"{name}.pc"] = (trace.pc, typecode_for(len(program.text) - 1))
        out[f"{name}.addr"] = (trace.addr, ADDR_TYPECODE)
    for f in fields(QueuePlan):
        column = getattr(cw.queue_plan, f.name)
        out[f"queue_plan.{f.name}"] = (column, _unsigned(column))
    for which in ("original", "decoupled"):
        plan = getattr(cw, f"cmas_plan_{which}")
        names = CMAS_COLUMNS + (
            () if isinstance(plan.firing_order, range) else ("firing_order",))
        for name in names:
            column = getattr(plan, name)
            out[f"cmas_plan_{which}.{name}"] = (column, _unsigned(column))
    return out


def assert_compact(cw) -> None:
    for name, (column, typecode) in compact_columns(cw).items():
        assert isinstance(column, array), name
        assert column.typecode == typecode, name


def assert_same_compilation(a, b) -> None:
    assert a.trace == b.trace and a.decoupled_trace == b.decoupled_trace
    assert a.queue_plan == b.queue_plan
    assert a.cmas_plan_original == b.cmas_plan_original
    assert a.cmas_plan_decoupled == b.cmas_plan_decoupled


@pytest.mark.parametrize("name", ["paper dm", "quick spmv"])
def test_prepare_builds_compact_columns(compiled, name):
    cw = compiled[name]
    assert_compact(cw)
    # Positions past 255 need a wider column than pcs do.
    assert cw.trace.pc.typecode == "B"
    assert cw.queue_plan.ldq_push_pos.typecode in ("H", "I")


def test_run_cache_round_trip_keeps_compact_columns(compiled, tmp_path):
    cache = RunCache(tmp_path)
    for cw in compiled.values():
        cache.store(cw.fingerprint, cw)
        loaded = cache.load(cw.fingerprint)
        assert loaded is not None and loaded is not cw
        assert_compact(loaded)
        assert_same_compilation(loaded, cw)


def _identity(value):
    return value


def test_pool_round_trip_keeps_compact_columns(compiled):
    names = sorted(compiled)
    results = run_tasks([Task(name, _identity, (compiled[name],))
                         for name in names], jobs=2)
    for name, loaded in zip(names, results):
        assert loaded is not compiled[name]
        assert_compact(loaded)
        assert_same_compilation(loaded, compiled[name])


def test_unpickled_paper_dm_compilation_is_small(compiled):
    """Live bytes of one unpickled paper dm compilation: 12.96 MB with
    list columns, ~2.1 MB compact."""
    blob = pickle.dumps(compiled["paper dm"],
                        protocol=pickle.HIGHEST_PROTOCOL)
    gc.collect()
    tracemalloc.start()
    try:
        loaded = pickle.loads(blob)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.trace) > 50_000
    assert live < 4_000_000


# ----------------------------------------------------------------------
# Plans built by hand.

def test_hand_built_queue_plan_equals_built_one(compiled):
    plan = compiled["quick spmv"].queue_plan
    by_hand = QueuePlan(**{f.name: getattr(plan, f.name).tolist()
                           for f in fields(QueuePlan)})
    assert by_hand == plan
    for f in fields(QueuePlan):
        column = getattr(by_hand, f.name)
        assert isinstance(column, array)
        assert column.typecode == getattr(plan, f.name).typecode


def _by_hand(plan: CmasPlan) -> CmasPlan:
    order = plan.firing_order
    return CmasPlan(
        **{name: getattr(plan, name).tolist() for name in CMAS_COLUMNS},
        firing_order=order if isinstance(order, range) else order.tolist(),
        total_prefetch_instructions=plan.total_prefetch_instructions,
        max_distance=plan.max_distance)


def test_hand_built_cmas_plans_equal_built_ones(compiled, config):
    """Both plans of quick spmv (triggers ascending: a range firing
    order) and an adaptive paper dm plan (out-of-order triggers: an
    array firing order)."""
    cw = compiled["paper dm"]
    comp = cw.compilation
    adaptive = build_cmas_plan(
        comp.original, cw.trace, config.cmas.trigger_distance,
        distance_for=adaptive_trigger_distances(
            profile_cache(comp.original, cw.trace, config), config,
            comp.selection.probable_miss_pcs))
    assert isinstance(adaptive.firing_order, array)
    spmv = compiled["quick spmv"]
    for plan in (spmv.cmas_plan_original, spmv.cmas_plan_decoupled,
                 adaptive):
        by_hand = _by_hand(plan)
        assert by_hand == plan
        for name in CMAS_COLUMNS:
            assert getattr(by_hand, name).typecode == \
                getattr(plan, name).typecode
    assert _by_hand(adaptive).firing_order.typecode == \
        adaptive.firing_order.typecode


# ----------------------------------------------------------------------
# A program past the narrowest pc typecode.

ROWS = 100
PASSES = 6


def _wide_program():
    """A loop whose body is ROWS x (load, add, store): 300+ static
    instructions, so pcs need a 2-byte column."""
    b = ProgramBuilder("wide")
    b.data_i64("src", range(ROWS))
    b.data_space("dst", ROWS * 8)
    b.la("a0", "src")
    b.la("a1", "dst")
    b.li("t1", 0)
    b.li("t2", PASSES)
    b.label("loop")
    for row in range(ROWS):
        b.ld("t0", 8 * row, "a0")
        b.addi("t0", "t0", row)
        b.sd("t0", 8 * row, "a1")
    b.addi("t1", "t1", 1)
    b.blt("t1", "t2", "loop")
    b.halt()
    return b.build()


def test_program_past_the_narrowest_pc_typecode(config):
    program = _wide_program()
    top = len(program.text) - 1
    assert top > 0xFF
    trace, state = generate_trace(program)
    assert trace.pc.typecode == typecode_for(top) == "H"
    assert max(trace.pc) > 0xFF
    assert state.memory.load_block(program.data_symbols["dst"], ROWS) == \
        [2 * row for row in range(ROWS)]
    records: list = []
    FunctionalSimulator(program).run(trace=records)
    assert Trace.of(records) == trace

    comp = compile_hidisc(program, config, trace=trace)
    dtrace, _ = generate_decoupled_trace(comp.decoupled)
    assert dtrace.pc.typecode == "H" and max(dtrace.pc) > 0xFF
    queue = build_queue_plan(comp.decoupled, dtrace)
    assert queue.balanced and len(queue.sdq_pop_pos) == ROWS * PASSES
    assert queue == build_queue_plan(comp.decoupled, dtrace.records())
    distance = config.cmas.trigger_distance
    plans = {mode: build_cmas_plan(program_, trace_, distance)
             for mode, program_, trace_ in (
                 ("cp_cmp", comp.original, trace),
                 ("hidisc", comp.decoupled, dtrace))}
    assert plans["hidisc"] == build_cmas_plan(comp.decoupled,
                                              dtrace.records(), distance)

    # The warming probe's branch columns, against the trace itself.
    probe = WarmupProbe(decode_program(comp.decoupled.text), dtrace)
    branches = probe.br_positions.tolist()
    assert len(branches) == PASSES
    assert probe.br_pc.tolist() == [dtrace.pc[i] for i in branches]
    assert probe.br_next.tolist() == [dtrace.next_pc(i) for i in branches]
    assert probe.br_taken.tolist() == [True] * (PASSES - 1) + [False]

    # Replays match those of the same traces held in 4-byte columns.
    sampling = SamplingPlan(interval_length=400, detail_length=100,
                            warmup_length=50)
    for mode in MODEL_ORDER:
        separated = mode in ("cp_ap", "hidisc")
        pieces = dict(
            program=comp.decoupled if separated else comp.original,
            queue_plan=queue if separated else None,
            cmas_plan=plans.get(mode))
        base = dtrace if separated else trace
        wide = Trace(array("I", base.pc), array("q", base.addr))
        full = [Machine(config, trace=t, mode=mode, **pieces).run()
                for t in (base, wide)]
        assert full[0] == full[1], mode
        assert sum(full[0].committed.values()) >= len(base), mode
        sampled = [run_sampled(config, sampling, trace=t, mode=mode,
                               **pieces) for t in (base, wide)]
        assert sampled[0] == sampled[1], mode
        assert sampled[0].sampled, mode
