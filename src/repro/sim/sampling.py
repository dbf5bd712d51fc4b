"""SMARTS-style sampled timing simulation (fast-forward + detail windows).

Full detailed simulation replays every dynamic instruction through the
timing machine.  For large workloads most of those cycles only re-confirm
steady-state behaviour, so this module simulates in detail only short
periodic windows and *extrapolates*:

1. **Fast-forward** — between detailed windows, nothing is simulated
   cycle-by-cycle.  The trace already exists (timing simulation here is
   trace-driven), so fast-forwarding costs one pass over a pre-extracted
   event stream instead of a functional re-execution.
2. **Functional warming** — while fast-forwarding, the memory/branch
   event stream is replayed into the *shared* cache hierarchy
   (:meth:`~repro.sim.hierarchy.MemoryHierarchy.warm_many`) and branch
   predictor (:meth:`~repro.sim.branch.BranchPredictor.resolve`), so
   long-lived micro-architectural state never goes cold.
3. **Detailed warmup** — each measured window is preceded by
   ``warmup_length`` instructions of full detailed execution whose
   statistics are discarded (the machine's existing measurement-window
   mechanism), re-establishing short-lived state: pipeline occupancy,
   queue contents, outstanding misses.
4. **Measure + extrapolate** — per-window cycles, cache/branch/core
   statistics and CPI stacks are summed and scaled by
   ``total_positions / sampled_positions`` (a ratio estimator), with a
   95% confidence interval measured from the inter-window variance.

The approximation dropped on the floor is cross-window dependence edges:
an interval machine treats producers before its window (and queue-slot
reuse edges past it) as complete at cycle 0.  The detailed warmup prefix
exists precisely to absorb that.

Faults and the co-simulation oracle are incompatible with sampling by
construction (both need every event simulated); callers enforce that with
:class:`~repro.errors.SamplingError` before reaching this module.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import fields as dataclass_fields
from itertools import repeat

import numpy as np

from ..asm.program import Program
from ..config import MachineConfig, SamplingPlan
from ..telemetry import Telemetry, spans
from .branch import BranchPredictor, BranchStats
from .decode import CTRL_COND, CTRL_DIRECT, decode_program
from .decoupled import Machine
from .hierarchy import MemoryHierarchy
from .machine import RunResult
from .trace import CmasPlan, QueuePlan, Trace

#: predictor kind of a warmed branch, indexed by its class minus 3.
_BRANCH_KINDS = np.array(["cond", "indirect"], dtype=object)

#: two-sided 95% normal quantile for the extrapolation error bars.
_Z95 = 1.96

#: two-sided 95% Student-t quantiles by degrees of freedom: with only a
#: handful of sampled windows the normal quantile understates the error
#: bars, and the adaptive driver would stop densifying too early.
_T95 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042)


def _t95(df: int) -> float:
    """Two-sided 95% t quantile (normal quantile beyond 30 d.o.f.)."""
    if df < 1:
        return _Z95
    if df <= len(_T95):
        return _T95[df - 1]
    return _Z95


class WarmupProbe:
    """Pre-extracted memory/branch event stream for functional warming.

    Gathers over (decode table, trace) build position-sorted event columns
    (numpy arrays, no per-event Python objects): memory address and
    is-write; branch pc, taken, next pc and predictor kind.  Replaying any
    position range is then two binary searches per stream plus tight
    loops over zipped column slices — no decode, no interpretation, no
    timing.  Memory and branch state are independent structures, so the
    two streams replay separately (batched through
    :meth:`~repro.sim.hierarchy.MemoryHierarchy.warm_many` for the cache
    side, which dominates).
    """

    __slots__ = ("mem_positions", "mem_addr", "mem_write",
                 "br_positions", "br_pc", "br_taken", "br_next", "br_kind")

    def __init__(self, decoded: list, trace: Trace):
        # Per-pc classification (0 skip, 1 load, 2 store, 3 cond,
        # 4 indirect), gathered over the pc column.  Direct jumps never
        # consult predictor state; they classify as skip.
        cls = np.zeros(len(decoded), dtype=np.int8)
        for pc, op in enumerate(decoded):
            if op.is_mem:
                cls[pc] = 2 if op.is_store else 1
            elif op.ctrl_kind == CTRL_COND:
                cls[pc] = 3
            elif op.ctrl_kind and op.ctrl_kind != CTRL_DIRECT:
                cls[pc] = 4
        pcs = trace.pcs()
        kind = cls[pcs]
        mem = np.flatnonzero((kind == 1) | (kind == 2))
        self.mem_positions = mem
        self.mem_addr = trace.addrs()[mem]
        self.mem_write = kind[mem] == 2
        branches = np.flatnonzero(kind >= 3)
        self.br_positions = branches
        # The next pc is the following position's (the final HALT's own).
        # Widened from the pc column's typecode, so ``br_pc + 1`` cannot
        # wrap.
        self.br_pc = pcs[branches].astype(np.intp)
        self.br_next = pcs[np.minimum(branches + 1, len(pcs) - 1)].astype(
            np.intp)
        br_cls = kind[branches]
        self.br_taken = (br_cls == 4) | (self.br_next != self.br_pc + 1)
        self.br_kind = _BRANCH_KINDS[br_cls - 3]

    def replay(self, lo: int, hi: int, hierarchy: MemoryHierarchy,
               predictor: BranchPredictor) -> None:
        """Warm *hierarchy*/*predictor* with events in positions [lo, hi)."""
        i, j = self.mem_positions.searchsorted((lo, hi))
        hierarchy.warm_many(zip(self.mem_addr[i:j].tolist(),
                                self.mem_write[i:j].tolist()))
        i, j = self.br_positions.searchsorted((lo, hi))
        resolve = predictor.resolve
        for pc, taken, next_pc, kind in zip(
                self.br_pc[i:j].tolist(), self.br_taken[i:j].tolist(),
                self.br_next[i:j].tolist(), self.br_kind[i:j].tolist()):
            resolve(pc, taken, next_pc, kind)


def build_schedule(trace_length: int, warmup_pos: int,
                   plan: SamplingPlan) -> list[tuple[int, int, int]]:
    """The detailed windows as ``(fetch_start, measure_start, end)`` triples.

    The measured region ``[warmup_pos, trace_length)`` is cut into periods
    of ``plan.interval_length`` positions; one ``plan.detail_length`` window
    per period runs detailed, placed at a seed-derived random offset drawn
    *independently per period* (stratified sampling).  A single shared
    offset — classic systematic sampling — aliases with periodic program
    structure: every window lands at the same loop phase, giving estimates
    that agree tightly with each other and are all wrong the same way.
    Per-period offsets keep the coverage guarantee and make the
    inter-window variance an honest error signal.  Each window's fetch
    starts up to ``plan.warmup_length`` positions early — clamped so
    windows never overlap — and measurement starts at the window proper.
    An empty list means the region is small enough to simulate exactly.
    """
    region_start, region_end = warmup_pos, trace_length
    region = region_end - region_start
    if region <= plan.interval_length:
        return []
    rng = random.Random(
        f"{plan.seed}/{plan.interval_length}/{plan.detail_length}")
    windows: list[tuple[int, int, int]] = []
    prev_end = 0
    period_start = region_start
    while period_start < region_end:
        offset = rng.randrange(plan.interval_length - plan.detail_length + 1)
        d_start = period_start + offset
        if d_start >= region_end:
            break
        d_end = min(d_start + plan.detail_length, region_end)
        w_start = max(prev_end, d_start - plan.warmup_length, 0)
        windows.append((w_start, d_start, d_end))
        prev_end = d_end
        period_start += plan.interval_length
    return windows


def _scaled_dataclass(cls, parts: list, scale: float):
    """Field-wise sum of integer-counter dataclasses, scaled and rounded."""
    out = cls()
    for f in dataclass_fields(cls):
        total = sum(getattr(part, f.name) for part in parts)
        setattr(out, f.name, round(total * scale))
    return out


def _scaled_counter_dicts(parts: list[dict], scale: float) -> dict:
    """Key-wise sum of flat ``str -> int`` dicts, scaled and rounded."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return {key: round(value * scale) for key, value in out.items()}


def _scale_stack(bucket_sums: dict[str, int], target: int,
                 scale: float) -> dict[str, int]:
    """Scale one core's CPI stack so it sums *exactly* to *target* cycles.

    Largest-remainder rounding: floor every scaled bucket, then hand the
    residual cycles to the buckets with the largest fractional parts
    (name-ordered tiebreak, so the result is deterministic).
    """
    raw = {bucket: value * scale for bucket, value in bucket_sums.items()}
    out = {bucket: int(value) for bucket, value in raw.items()}
    short = target - sum(out.values())
    if short > 0:
        order = sorted(raw, key=lambda b: (out[b] - raw[b], b))
        for bucket in order[:short]:
            out[bucket] += 1
    return out


def _rel_ci95(samples: list[float]) -> float:
    """Relative half-width of the 95% CI on the mean of *samples*.

    Student-t quantile (not normal): sampled runs often have only a
    handful of windows, where the normal quantile understates the bars.
    """
    k = len(samples)
    if k < 2:
        return 0.0
    mean = sum(samples) / k
    if mean == 0.0:
        return 0.0
    var = sum((x - mean) ** 2 for x in samples) / (k - 1)
    return _t95(k - 1) * (var ** 0.5) / (k ** 0.5) / mean


def run_sampled(
    config: MachineConfig,
    plan: SamplingPlan,
    *,
    program: Program,
    trace: Trace,
    mode: str,
    queue_plan: QueuePlan | None = None,
    cmas_plan: CmasPlan | None = None,
    work_instructions: int | None = None,
    benchmark: str = "",
    warmup_pos: int = 0,
    telemetry: Telemetry | None = None,
) -> RunResult:
    """Run one (workload, model) cell sampled; returns an extrapolated
    :class:`~repro.sim.machine.RunResult` with ``sampled=True``.

    Machine construction arguments mirror :class:`~repro.sim.decoupled
    .Machine`; the sampling driver owns the shared hierarchy/predictor and
    the fast-forward schedule.  Small regions (one sampling period or less)
    fall back to exact detailed simulation of the whole region — still
    tagged ``sampled=True`` with ``"exact": True`` metadata, so cache keys
    and payloads stay honest about how the number was produced.
    """
    plan_meta = {
        "interval_length": plan.interval_length,
        "detail_length": plan.detail_length,
        "warmup_length": plan.warmup_length,
        "seed": plan.seed,
        "error_budget": plan.error_budget,
    }
    region = len(trace) - warmup_pos

    def run_exact(refinements: int) -> RunResult:
        machine = Machine(config, program, trace, mode,
                          queue_plan=queue_plan, cmas_plan=cmas_plan,
                          work_instructions=work_instructions,
                          benchmark=benchmark, warmup_pos=warmup_pos,
                          telemetry=telemetry)
        result = machine.run()
        result.sampled = True
        result.sampling = {
            "plan": plan_meta,
            "exact": True,
            "refinements": refinements,
            "schedule": [[warmup_pos, warmup_pos, len(trace)]],
            "intervals": 1,
            "sampled_positions": region,
            "total_positions": region,
            "trace_length": len(trace),
            "cycles_rel_ci95": 0.0,
            "component_rel_ci95": {},
        }
        return result

    schedule = build_schedule(len(trace), warmup_pos, plan)
    if not schedule:
        return run_exact(0)

    decoded = decode_program(program.text)
    with spans.span("sample_probe", cat="simulate"):
        probe = WarmupProbe(decoded, trace)
    # Window state, allocated once per cell and adopted by every window
    # machine.  Outside a window, dependence edges reaching past its edges
    # (value producers before it, and LDQ/SDQ *capacity* edges that point
    # forward past it — queue-slot reuse ignores fetch order) read as
    # complete at cycle 0: the standard sampling approximation, whose
    # dropped cross-window stalls the detailed-warmup prefix
    # re-establishes.  Between windows the buffer reads 0 over the trace
    # range and None over the CMAS gid range (extended in place: one large
    # allocation, not three); each window machine opens its own range and
    # restores the buffer when it finishes.
    complete_at: list[int | None] = [0] * len(trace)
    if cmas_plan is not None:
        complete_at.extend(repeat(None, cmas_plan.total_prefetch_instructions))

    # Adaptive densification (the plan's `error_budget` is a variance
    # target, SMARTS-style): run the schedule, measure the 95% CI of
    # cycles-per-position across windows, and if it exceeds the budget
    # halve the sampling interval and resample.  Once the next halving
    # would cross 50% detail coverage, exact simulation is both cheaper
    # and error-free — degrade to it instead.
    interval_length = plan.interval_length
    refinements = 0
    samplers = telemetry.samplers if telemetry is not None else []
    first_sampler = len(samplers)
    while True:
        hierarchy = MemoryHierarchy.from_config(config)
        predictor = BranchPredictor(config.branch)
        intervals: list[RunResult] = []
        probe_pos = 0
        for w_start, d_start, d_end in schedule:
            with spans.span("sample_replay", cat="simulate"):
                probe.replay(probe_pos, w_start, hierarchy, predictor)
                hierarchy.settle()
            # Fast-forward lookups are never measured: a window with no
            # warm-up prefix never resets the stats it starts with.
            predictor.stats = BranchStats()
            with spans.span("sample_window", cat="simulate"):
                machine = Machine(config, program, trace, mode,
                                  queue_plan=queue_plan, cmas_plan=cmas_plan,
                                  work_instructions=d_end - d_start,
                                  benchmark=benchmark, warmup_pos=d_start,
                                  telemetry=telemetry,
                                  start_pos=w_start, end_pos=d_end,
                                  hierarchy=hierarchy, predictor=predictor,
                                  complete_at=complete_at, decoded=decoded)
                intervals.append(machine.run())
            # Detach the stats objects the interval result now owns: the
            # next probe replay and interval mutate fresh ones instead.
            hierarchy.reset_stats()
            predictor.stats = BranchStats()
            probe_pos = d_end

        positions = [d_end - d_start for _, d_start, d_end in schedule]
        cycles_ci = _rel_ci95(
            [r.cycles / pos for r, pos in zip(intervals, positions)])
        if cycles_ci <= plan.error_budget:
            break
        refinements += 1
        # The next round (or the exact run) replaces these windows, and
        # so their occupancy samples.
        del samplers[first_sampler:]
        # The CI shrinks like 1/sqrt(windows), so meeting the budget takes
        # about k*(ci/budget)^2 windows.  Jump to (at most) the predicted
        # interval instead of halving blindly — a hopelessly high-variance
        # workload then degrades to exact after ONE probe round rather
        # than re-running ever-denser schedules first.
        k = len(schedule)
        needed = max(2 * k,
                     math.ceil(k * (cycles_ci / plan.error_budget) ** 2))
        interval_length = min(interval_length // 2, region // needed)
        if interval_length < 2 * (plan.detail_length + plan.warmup_length):
            # Denser than ~50% detail+warmup coverage: exact simulation
            # is both cheaper and error-free.
            return run_exact(refinements)
        schedule = build_schedule(
            len(trace), warmup_pos,
            dataclasses.replace(plan, interval_length=interval_length))

    # Each window machine ran one sampler (if any), and its clock started
    # at 0: tag its samples with the window and where the window starts.
    for index, (sampler, (w_start, _, _)) in enumerate(
            zip(samplers[first_sampler:], schedule)):
        for sample in sampler.samples:
            sample.window, sample.start_pos = index, w_start

    sampled_positions = sum(positions)
    scale = region / sampled_positions
    total_sampled_cycles = sum(r.cycles for r in intervals)
    cycles = round(total_sampled_cycles * scale)

    cpi_stacks: dict[str, dict[str, int]] = {}
    if all(r.cpi_stacks for r in intervals):
        per_core: dict[str, dict[str, int]] = {}
        for r in intervals:
            for core, stack in r.cpi_stacks.items():
                sums = per_core.setdefault(core, {})
                for bucket, value in stack.items():
                    sums[bucket] = sums.get(bucket, 0) + value
        cpi_stacks = {core: _scale_stack(sums, cycles, scale)
                      for core, sums in per_core.items()}

    component_ci: dict[str, float] = {}
    if cpi_stacks:
        buckets = sorted({b for r in intervals
                          for stack in r.cpi_stacks.values() for b in stack})
        for bucket in buckets:
            rates = [
                sum(stack.get(bucket, 0) for stack in r.cpi_stacks.values())
                / pos
                for r, pos in zip(intervals, positions)
            ]
            component_ci[bucket] = _rel_ci95(rates)

    result = RunResult(
        machine=mode,
        benchmark=benchmark,
        cycles=cycles,
        total_cycles=cycles,
        work_instructions=(work_instructions if work_instructions is not None
                           else len(trace)),
        committed=_scaled_counter_dicts([r.committed for r in intervals],
                                        scale),
        l1=_scaled_dataclass(type(intervals[0].l1),
                             [r.l1 for r in intervals], scale),
        l2=_scaled_dataclass(type(intervals[0].l2),
                             [r.l2 for r in intervals], scale),
        memory=_scaled_dataclass(type(intervals[0].memory),
                                 [r.memory for r in intervals], scale),
        branch=_scaled_dataclass(BranchStats,
                                 [r.branch for r in intervals], scale),
        core_stats={
            core: _scaled_counter_dicts(
                [r.core_stats.get(core, {}) for r in intervals], scale)
            for core in intervals[0].core_stats
        },
        cmas_threads_forked=round(
            sum(r.cmas_threads_forked for r in intervals) * scale),
        cmas_threads_dropped=round(
            sum(r.cmas_threads_dropped for r in intervals) * scale),
        cpi_stacks=cpi_stacks,
        sampled=True,
        sampling={
            "plan": plan_meta,
            "exact": False,
            "refinements": refinements,
            "interval_length_effective": interval_length,
            "schedule": [list(window) for window in schedule],
            "intervals": len(schedule),
            "sampled_positions": sampled_positions,
            "total_positions": region,
            "trace_length": len(trace),
            "cycles_rel_ci95": cycles_ci,
            "component_rel_ci95": component_ci,
        },
    )
    return result
