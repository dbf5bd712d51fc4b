"""Differential execution harness: one program, every execution path.

:func:`check_program` runs a generated program through

1. the **compiled vs reference** step tables of the functional
   interpreter (``run(fast=True)`` against ``run(fast=False)``, whose
   every entry is the if/elif ``_execute``): first on the sequential
   program, then on the compiled decoupled program, where the queue
   closures run.  Traces, every register file, memory and queue stats
   must be bit-identical.
2. the **sequential vs decoupled** functional models: the verdict of
   :func:`repro.experiments.runner.prepare`, which referees every
   compilation (queue drain, memory, registers, store order),
3. all four **timing models** under the co-simulation oracle
   (``verify=True`` raises on any commit-stream divergence),

and reports the first divergence it finds as a :class:`Divergence`.
Stage 1 on the decoupled program needs its compilation, so it runs after
``prepare``, but its verdict comes first: a broken step table that makes
``prepare`` refuse the compilation is still reported as stage 1's.
Stage 1 failures are bisected to the first divergent committed
instruction with :func:`repro.telemetry.diff.first_divergent_commit`
(control/address divergence straight from the trace columns; pure value
bugs via a binary search over ``max_steps`` snapshots).

:func:`injected_fault` deliberately perturbs one step of the compiled
table — the self-test proving the harness actually detects bugs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from ..config import MachineConfig
from ..errors import SimulationError, VerificationError, WorkloadError
from ..experiments.models import MODEL_ORDER
from ..experiments.runner import prepare, run_model
from ..isa import Op
from ..sim.functional import DecoupledFunctionalSimulator, FunctionalSimulator
from ..sim.trace import Trace
from ..slicer import compile_hidisc
from ..telemetry.diff import first_divergent_commit
from ..workloads.base import Workload

#: Divergence kind of stage 1 (the name saved corpora replay under).
STAGE1 = "fast_vs_legacy"


class FuzzWorkload(Workload):
    """Adapter: a generated program as a suite-shaped workload.

    ``expected_outputs`` is empty — the fuzzer has no reference
    implementation; correctness *is* the agreement of the execution
    paths, checked by ``prepare``'s referee and the oracle.
    """

    name = "fuzz"
    label = "Fuzz"

    def __init__(self, program, seed: int = 0):
        super().__init__(seed=seed)
        self._fuzz_program = program

    def build(self):
        return self._fuzz_program

    def expected_outputs(self) -> dict:
        return {}


@dataclass
class Divergence:
    """One detected disagreement between execution paths."""

    kind: str                    # e.g. "fast_vs_legacy", "oracle:hidisc"
    detail: str
    seed: int = 0
    first_divergent: dict | None = None
    problems: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "seed": self.seed,
                "first_divergent": self.first_divergent,
                "problems": list(self.problems)}

    def summary(self) -> str:
        text = f"[{self.kind}] seed={self.seed}: {self.detail}"
        if self.first_divergent is not None:
            text += f" (first divergent commit: {self.first_divergent})"
        return text


def _trace_rows(program, trace: Trace) -> list[dict]:
    """Commit-stream-shaped rows for :func:`first_divergent_commit`, one
    per position of the trace columns."""
    rows = []
    for i, pc in enumerate(trace.pc):
        op = program.text[pc].op.mnemonic if pc < len(program.text) else "?"
        rows.append({"gid": i,
                     "commit": f"{pc}/{trace.addr[i]}/{trace.next_pc(i)}",
                     "pc": pc, "asm": op})
    return rows


def _state_digest(sim) -> dict:
    """What stage 1 compares besides the trace: every register file (CP's
    then AP's when decoupled), memory and queue stats."""
    if isinstance(sim, DecoupledFunctionalSimulator):
        states = (sim.cp_state, sim.ap_state)
        queues = (sim.queues.ldq, sim.queues.sdq)
    else:
        states, queues = (sim.state,), ()
    pages = states[-1].memory.snapshot().items()
    return {"registers": [value for s in states for value in s.regs],
            "memory": sorted((i, page) for i, page in pages if any(page)),
            "queue stats": [q.stats for q in queues]}


def _run_to(simulator, program, steps: int, fast: bool):
    """The *simulator* (class) run for exactly *steps* instructions."""
    sim = simulator(program)
    try:
        sim.run(max_steps=steps, fast=fast)
    except SimulationError:
        pass
    return sim


def _bisect_value_divergence(simulator, program, trace: Trace) -> dict:
    """Binary-search the first step after which the two tables' states
    differ (used when the traces agree but final state does not)."""
    def digest(steps, fast):
        return _state_digest(_run_to(simulator, program, steps, fast))

    lo, hi = 0, len(trace)           # invariant: agree at lo, differ at hi
    if digest(lo, True) != digest(lo, False):
        return {"index": 0, "a": {"gid": 0, "commit": "initial-state"},
                "b": {"gid": 0, "commit": "initial-state"}}
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if digest(mid, True) == digest(mid, False):
            lo = mid
        else:
            hi = mid
    regs = [digest(hi, fast)["registers"] for fast in (True, False)]
    bad = [i for i, (a, b) in enumerate(zip(*regs)) if a != b]
    pc = trace.pc[hi - 1]                    # pc of the divergent step

    def side(values):
        commit = (f"regs{bad}=" + ",".join(repr(values[i]) for i in bad[:4])
                  if bad else "memory or queues")
        return {"gid": hi - 1, "commit": commit, "pc": pc,
                "asm": program.text[pc].op.mnemonic}

    return {"index": hi - 1, "a": side(regs[0]), "b": side(regs[1])}


def _check_functional(program, seed: int,
                      simulator=FunctionalSimulator) -> Divergence | None:
    """Stage 1: the compiled step table against the reference table."""
    runs = []
    for fast in (True, False):
        trace = Trace()
        sim = simulator(program)
        try:
            sim.run(trace=trace, fast=fast)
            error = None
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            error = f"{type(exc).__name__}: {exc}"
        runs.append((sim, trace, error))
    (fsim, ftrace, ferror), (rsim, rtrace, rerror) = runs
    where = ("decoupled " if simulator is DecoupledFunctionalSimulator
             else "")
    if ferror or rerror:
        if ferror == rerror:
            return Divergence("crash", f"both interpreters raised: {ferror}",
                              seed=seed)
        return Divergence(
            STAGE1, f"{where}exception mismatch: "
                    f"fast={ferror or 'completed'} "
                    f"reference={rerror or 'completed'}",
            seed=seed,
            first_divergent=first_divergent_commit(
                _trace_rows(program, ftrace), _trace_rows(program, rtrace)))
    if ftrace != rtrace:
        return Divergence(
            STAGE1, f"{where}dynamic traces diverge", seed=seed,
            first_divergent=first_divergent_commit(
                _trace_rows(program, ftrace), _trace_rows(program, rtrace)))
    fstate, rstate = _state_digest(fsim), _state_digest(rsim)
    differ = [key for key in fstate if fstate[key] != rstate[key]]
    if differ:
        bad = [i for i, (a, b) in enumerate(zip(fstate["registers"],
                                                rstate["registers"]))
               if a != b]
        detail = (f"final registers differ at ids {bad[:6]}" if bad
                  else f"final {' and '.join(differ)} differ")
        return Divergence(
            STAGE1, where + detail, seed=seed,
            first_divergent=_bisect_value_divergence(simulator, program,
                                                     ftrace))
    if fsim.instructions_executed != rsim.instructions_executed:
        return Divergence(
            STAGE1,
            f"{where}step counts differ: fast={fsim.instructions_executed} "
            f"reference={rsim.instructions_executed}", seed=seed)
    return None


def check_program(fuzz_prog, config: MachineConfig | None = None,
                  models: tuple = MODEL_ORDER) -> Divergence | None:
    """Run one generated program through every path; first divergence wins."""
    config = config or MachineConfig()
    seed = fuzz_prog.seed
    program = fuzz_prog.to_program()

    found = _check_functional(program, seed)
    if found is not None:
        return found

    try:
        cw = prepare(FuzzWorkload(program, seed=seed), config)
        decoupled, problems = cw.compilation.decoupled, []
    except VerificationError as exc:
        # Compilation is deterministic: rebuild the refused one so that
        # stage 1 on its decoupled program can claim the divergence.
        decoupled = compile_hidisc(program, config).decoupled
        problems = exc.mismatches
    except (SimulationError, WorkloadError) as exc:
        return Divergence("separation", f"{type(exc).__name__}: {exc}",
                          seed=seed)
    found = _check_functional(decoupled, seed, DecoupledFunctionalSimulator)
    if found is not None:
        return found
    if problems:
        return Divergence("cosim", "sequential vs decoupled functional "
                          "state differs", seed=seed, problems=problems)

    for mode in models:
        try:
            run_model(cw, config, mode, verify=True)
        except VerificationError as exc:
            return Divergence(f"oracle:{mode}", str(exc), seed=seed)
        except SimulationError as exc:
            return Divergence(f"crash:{mode}",
                              f"{type(exc).__name__}: {exc}", seed=seed)
    return None


# ----------------------------------------------------------------------
# Deliberate fault injection (the harness's detection self-test)
# ----------------------------------------------------------------------

def _s64(v: int) -> int:
    v &= (1 << 64) - 1
    return v - (1 << 64) if v >= (1 << 63) else v


def _u64(v: int) -> int:
    return v & ((1 << 64) - 1)


@dataclass(frozen=True)
class Fault:
    """One deliberate perturbation of the compiled step table.

    ``table`` names a dict in :mod:`repro.sim.functional` (``None``: the
    module namespace itself, to swap a step factory) whose ``key`` entry
    becomes ``wrong``; ``runs(instr)`` says whether an instruction of a
    compiled program executes the perturbed step.
    """

    table: str | None
    key: object
    wrong: Callable
    runs: Callable


def _alu_fault(op: Op, wrong) -> Fault:
    return Fault("_ALU_RR", op, wrong, lambda instr: instr.op is op)


def _sdq_store_ignoring_data(regs, rs1, imm, npc, write, pop):
    """An SDQ-fed store that pops its data but stores zero."""
    def step():
        a = _u64(regs[rs1] + imm)
        pop()
        write(a, 0)
        return a, npc
    return step


#: name -> fault.  Only the compiled table reads the patched entries, so
#: any program running the perturbed step diverges from the reference
#: table — exactly what stage 1 must catch.
FAULTS = {
    "xor-as-or": _alu_fault(Op.XOR, lambda a, b: _s64(a | b)),
    "add-off-by-one": _alu_fault(Op.ADD, lambda a, b: _s64(a + b + 1)),
    "sra-as-srl": _alu_fault(Op.SRA, lambda a, b: _s64(_u64(a) >> (b & 63))),
    "sub-swapped": _alu_fault(Op.SUB, lambda a, b: _s64(b - a)),
    "sdq-store-drops-data": Fault(
        None, "_sdq_store", _sdq_store_ignoring_data,
        lambda instr: instr.op.info.is_store and instr.ann.sdq_data),
}


@contextmanager
def injected_fault(name: str):
    """Temporarily replace one entry the compiled step table is built
    from with a wrong implementation.  Tables are compiled when a run
    starts, so the patch must wrap the runs (it does: ``check_program``
    runs its simulators inside the caller's context)."""
    from ..sim import functional

    try:
        fault = FAULTS[name]
    except KeyError:
        raise KeyError(f"unknown fault {name!r}; have "
                       f"{', '.join(sorted(FAULTS))}") from None
    table = (vars(functional) if fault.table is None
             else getattr(functional, fault.table))
    original = table[fault.key]
    table[fault.key] = fault.wrong
    try:
        yield
    finally:
        table[fault.key] = original
