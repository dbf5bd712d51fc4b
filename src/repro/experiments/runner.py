"""Benchmark orchestration: compile once, simulate every model.

:func:`prepare` runs the expensive, latency-independent work for one
benchmark — functional execution (with verification against the workload's
reference), HiDISC compilation (with separation validation), decoupled
trace generation (verified again) and queue/CMAS planning.  The resulting
:class:`CompiledWorkload` can then be replayed through any machine model at
any memory-latency point with :func:`run_model`, which is what the
Figure 10 sweep exploits.

A compilation holds its two traces as columnar
:class:`~repro.sim.trace.Trace` objects (``pc``/``addr`` int lists, with
``next_pc`` derived from the following pc) and its CMAS plans as thread
columns slicing one shared position list, so it pickles — into the run
cache, suite checkpoints and pool transport — as a few flat int lists.
Every derivation here (warm-up positions, queue and CMAS plans) gathers
per-pc decode flags over the pc column.  ``CompiledWorkload(...)`` accepts
``list[DynInstr]`` traces too and converts them once through
:meth:`~repro.sim.trace.Trace.of`.  Its ``fingerprint`` is the
:func:`~repro.experiments.cache.compile_key`, which includes a digest of
the simulation source, so a compilation is never reused by other code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..config import MachineConfig, SamplingPlan
from ..errors import SamplingError, SimulationError
from ..sim import (
    CmasPlan,
    Machine,
    QueuePlan,
    RunResult,
    Trace,
    build_cmas_plan,
    build_queue_plan,
    run_sampled,
)
from ..sim.decode import decode_program
from ..sim.functional import DecoupledFunctionalSimulator, FunctionalSimulator
from ..slicer import HidiscCompilation, compile_hidisc
from ..telemetry import Telemetry, spans
from ..workloads import Workload, check_ap_executable
from .cache import compile_key


@dataclass
class CompiledWorkload:
    """Everything latency-independent about one benchmark."""

    workload: Workload
    compilation: HidiscCompilation
    trace: Trace
    decoupled_trace: Trace
    queue_plan: QueuePlan
    cmas_plan_original: CmasPlan
    cmas_plan_decoupled: CmasPlan
    #: measurement-window start, per trace (trace position after which
    #: statistics count; aligned across traces at the same memory access,
    #: since memory operations are 1:1 between the two).
    warmup_pos_original: int = 0
    warmup_pos_decoupled: int = 0
    prepare_seconds: float = 0.0
    #: content-addressed identity of (workload, config, simulator source)
    #: this compilation was prepared under — the run-cache key (see
    #: :func:`repro.experiments.cache.compile_key`).  Consumers that replay
    #: a compilation (Figure 10) verify it to reject stale artefacts.
    fingerprint: str = ""

    def __post_init__(self) -> None:
        self.trace = Trace.of(self.trace)
        self.decoupled_trace = Trace.of(self.decoupled_trace)

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def work(self) -> int:
        """Original-program dynamic instructions inside the measurement
        window (the unit of work for IPC/speedup)."""
        return len(self.trace) - self.warmup_pos_original


def _warmup_positions(workload: Workload, program, dprogram,
                      trace, dtrace) -> tuple[int, int]:
    """Trace positions where measurement starts, aligned at the same
    memory operation in both traces."""
    fraction = workload.warmup_fraction
    if fraction <= 0.0:
        return 0, 0

    def mem_positions(text, tr):
        return Trace.of(tr).positions(decode_program(text), "is_mem")

    mems = mem_positions(program.text, trace)
    dmems = mem_positions(dprogram.text, dtrace)
    if len(mems) != len(dmems):
        raise SimulationError(
            f"{workload.name}: memory-operation counts diverge between "
            f"traces ({len(mems)} vs {len(dmems)})"
        )
    if not len(mems):
        return 0, 0
    k = min(len(mems) - 1, int(len(mems) * fraction))
    return int(mems[k]), int(dmems[k])


def prepare(workload: Workload, config: MachineConfig,
            verify: bool = True) -> CompiledWorkload:
    """Compile and functionally validate one benchmark."""
    with spans.span("prepare", cat="compile", benchmark=workload.name):
        return _prepare(workload, config, verify)


def _prepare(workload: Workload, config: MachineConfig,
             verify: bool) -> CompiledWorkload:
    start = time.perf_counter()
    program = workload.program

    trace = Trace()
    seq = FunctionalSimulator(program)
    seq_state = seq.run(trace=trace)
    if verify:
        workload.verify(seq_state)

    comp = compile_hidisc(program, config, trace=trace)
    check_ap_executable(comp.decoupled, ap_has_fp=config.ap.has_fp)

    dtrace = Trace()
    dec = DecoupledFunctionalSimulator(comp.decoupled)
    dec_state = dec.run(trace=dtrace)
    if verify:
        workload.verify(dec_state)
        if not dec.queues.ldq.empty or not dec.queues.sdq.empty:
            raise SimulationError(
                f"{workload.name}: queues not drained after decoupled run"
            )

    warm_orig, warm_dec = _warmup_positions(
        workload, comp.original, comp.decoupled, trace, dtrace
    )
    return CompiledWorkload(
        workload=workload,
        compilation=comp,
        trace=trace,
        decoupled_trace=dtrace,
        queue_plan=build_queue_plan(comp.decoupled, dtrace),
        cmas_plan_original=build_cmas_plan(
            comp.original, trace, config.cmas.trigger_distance
        ),
        cmas_plan_decoupled=build_cmas_plan(
            comp.decoupled, dtrace, config.cmas.trigger_distance
        ),
        warmup_pos_original=warm_orig,
        warmup_pos_decoupled=warm_dec,
        prepare_seconds=time.perf_counter() - start,
        fingerprint=compile_key(workload, config),
    )


def model_pieces(cw: CompiledWorkload, mode: str) -> dict:
    """Which program/trace/plans/warmup each machine model replays.

    The single place that knows the mode -> artefact mapping;
    :func:`build_machine` (full runs, oracle, fault campaigns) and the
    sampled path of :func:`run_model` both consume it.
    """
    comp = cw.compilation
    if mode == "superscalar":
        return dict(program=comp.original, trace=cw.trace,
                    warmup_pos=cw.warmup_pos_original)
    if mode == "cp_ap":
        return dict(program=comp.decoupled, trace=cw.decoupled_trace,
                    queue_plan=cw.queue_plan,
                    warmup_pos=cw.warmup_pos_decoupled)
    if mode == "cp_cmp":
        return dict(program=comp.original, trace=cw.trace,
                    cmas_plan=cw.cmas_plan_original,
                    warmup_pos=cw.warmup_pos_original)
    if mode == "hidisc":
        return dict(program=comp.decoupled, trace=cw.decoupled_trace,
                    queue_plan=cw.queue_plan,
                    cmas_plan=cw.cmas_plan_decoupled,
                    warmup_pos=cw.warmup_pos_decoupled)
    raise SimulationError(f"unknown model {mode!r}")


def build_machine(cw: CompiledWorkload, config: MachineConfig, mode: str,
                  telemetry: Telemetry | None = None,
                  faults=None, record_commits: bool = False) -> Machine:
    """Construct (without running) the machine for one grid cell."""
    pieces = model_pieces(cw, mode)
    program = pieces.pop("program")
    trace = pieces.pop("trace")
    return Machine(config, program, trace, mode=mode,
                   work_instructions=cw.work, benchmark=cw.name,
                   telemetry=telemetry, faults=faults,
                   record_commits=record_commits, **pieces)


def run_model(cw: CompiledWorkload, config: MachineConfig, mode: str,
              telemetry: Telemetry | None = None,
              verify: bool = False, faults=None,
              max_cycles: int | None = None,
              sampling: SamplingPlan | None = None) -> RunResult:
    """Replay one compiled benchmark through one machine model.

    ``verify=True`` runs under the co-simulation oracle
    (:func:`repro.resilience.verified_run`): commit-stream integrity plus
    the functional state diff, raising
    :class:`~repro.errors.VerificationError` on any divergence.  *faults*
    attaches a :class:`~repro.resilience.FaultInjector`; *max_cycles*
    overrides ``config.max_cycles`` for this run only.  *sampling* runs the
    cell through :func:`repro.sim.sampling.run_sampled` (extrapolated
    result, ``sampled=True``); it is mutually exclusive with *verify* and
    *faults*, which both need every cycle simulated in detail.
    """
    with spans.span("run_model", cat="simulate", benchmark=cw.name,
                    mode=mode, verify=verify, sampled=sampling is not None):
        if sampling is not None:
            if verify:
                raise SamplingError(
                    f"{cw.name}/{mode}: the co-simulation oracle needs the "
                    f"full commit stream — run --verify without --sample"
                )
            if faults is not None:
                raise SamplingError(
                    f"{cw.name}/{mode}: fault injection keys off absolute "
                    f"event ordinals, which sampling skips — fault runs "
                    f"force full-detail mode"
                )
            return run_sampled(config, sampling, mode=mode,
                               work_instructions=cw.work, benchmark=cw.name,
                               telemetry=telemetry, max_cycles=max_cycles,
                               **model_pieces(cw, mode))
        if verify:
            from ..resilience.oracle import verified_run

            return verified_run(cw, config, mode, telemetry=telemetry,
                                faults=faults, max_cycles=max_cycles)
        machine = build_machine(cw, config, mode, telemetry=telemetry,
                                faults=faults)
        return machine.run(max_cycles=max_cycles)


@dataclass
class BenchmarkResults:
    """All model results for one benchmark at one configuration."""

    compiled: CompiledWorkload
    results: dict[str, RunResult] = field(default_factory=dict)

    @property
    def baseline(self) -> RunResult:
        try:
            return self.results["superscalar"]
        except KeyError:
            raise SimulationError(
                f"{self.compiled.name}: no 'superscalar' baseline among the "
                f"simulated modes {sorted(self.results)} — speedups and "
                f"miss-rate ratios need the baseline model"
            ) from None

    def speedup(self, mode: str) -> float:
        return self.results[mode].speedup_over(self.baseline)

    def miss_ratio(self, mode: str) -> float:
        return self.results[mode].miss_rate_ratio(self.baseline)


def run_benchmark(cw: CompiledWorkload, config: MachineConfig,
                  modes: tuple[str, ...] = ("superscalar", "cp_ap",
                                            "cp_cmp", "hidisc")
                  ) -> BenchmarkResults:
    """Run *modes* on one compiled benchmark, in order, in this process.

    No CPI stacks are collected; :func:`repro.experiments.suite.run_suite`
    runs a grid of benchmarks, with stacks, checkpoints and ``--jobs``.
    """
    out = BenchmarkResults(compiled=cw)
    for mode in modes:
        out.results[mode] = run_model(cw, config, mode)
    return out
