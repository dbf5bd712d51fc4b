"""The functional referee and the co-simulation oracle.

The timing machines are trace-driven, so they cannot *invent* wrong data —
but a slicing bug can make the decoupled program compute something else,
and a queue-protocol bug can silently commit instructions out of order,
twice, or not at all.  Two checks referee them:

* **Functional equivalence** (per compilation):
  :func:`check_equivalence` diffs the sequential golden run against the
  split-register-file decoupled run — queue drain, final memory, register
  survival and dynamic *store order* (a stronger check than the
  symbol-level ``workload.verify``).
  :func:`~repro.experiments.runner.prepare` calls it on the two runs it
  makes, so every compilation is refereed once, when it is prepared.
* **Commit-stream integrity** (per timing run): with
  ``record_commits=True`` the machine logs every retirement; the oracle
  asserts that every trace position commits exactly once, in program
  order per core, with gid/pos agreement — the timing-mode analogue of
  "architectural state matches".

:func:`verified_run` is the CLI's ``--verify``: run the timing model with
commit recording, then check the commit stream.  Either check raises a
typed :class:`~repro.errors.VerificationError` listing every violation —
a silent divergence cannot survive it.
"""

from __future__ import annotations

from ..errors import VerificationError
from ..sim.trace import Trace


# ----------------------------------------------------------------------
# Functional equivalence (per compilation).
# ----------------------------------------------------------------------

def diff_registers(seq_regs, cp_regs, ap_regs) -> list[str]:
    """Check every sequential register value survives in CP or AP.

    Register liveness is split across the two files (CS values live on the
    CP, AS values on the AP), so the sequential final value must appear in
    at least one of them.  Reports at most eight registers.
    """
    mismatches: list[str] = []
    for reg in range(1, len(seq_regs)):
        want = seq_regs[reg]
        if cp_regs[reg] == want or ap_regs[reg] == want:
            continue
        name = f"r{reg}" if reg < 32 else f"f{reg - 32}"
        mismatches.append(
            f"register {name}: sequential {want!r}, "
            f"CP {cp_regs[reg]!r}, AP {ap_regs[reg]!r}"
        )
        if len(mismatches) == 8:
            mismatches.append("... further register mismatches suppressed")
            break
    return mismatches


def store_order(program, trace: Trace) -> list[int]:
    """Effective addresses of the trace's stores, in dynamic order."""
    return trace.addrs()[trace.positions(program.text, "is_store")].tolist()


def diff_store_order(program, trace: Trace, dprogram,
                     dtrace: Trace) -> list[str]:
    """The decoupled trace must store to the same addresses in the same
    order as the sequential trace (decoupling may never reorder memory
    writes — the SAQ/SDQ protocol serializes them)."""
    seq = store_order(program, trace)
    dec = store_order(dprogram, dtrace)
    if seq == dec:
        return []
    if len(seq) != len(dec):
        return [
            f"store count differs: sequential {len(seq)}, "
            f"decoupled {len(dec)}"
        ]
    k = next(i for i, (a, b) in enumerate(zip(seq, dec)) if a != b)
    return [
        f"store order diverges at store #{k}: sequential 0x{seq[k]:x}, "
        f"decoupled 0x{dec[k]:x}"
    ]


def check_equivalence(seq, trace: Trace, dec, dtrace: Trace) -> None:
    """Referee one compilation: did the decoupled run compute what the
    sequential run computed?

    *seq* (a :class:`~repro.sim.functional.FunctionalSimulator`) and *dec*
    (a :class:`~repro.sim.functional.DecoupledFunctionalSimulator`) have
    run to HALT, recording *trace* and *dtrace*.  The decoupled run must
    drain its LDQ and SDQ, leave the same memory, keep every sequential
    register value in its CP or AP file, and store to the same addresses
    in the same order.  Raises one
    :class:`~repro.errors.VerificationError` listing every mismatch.
    """
    mismatches: list[str] = []
    for queue in (dec.queues.ldq, dec.queues.sdq):
        if not queue.empty:
            mismatches.append(
                f"{queue.name} not drained: {len(queue)} residual entries"
            )
    mismatches += seq.state.memory.differences(dec.ap_state.memory)
    mismatches += diff_registers(seq.state.regs, dec.cp_state.regs,
                                 dec.ap_state.regs)
    mismatches += diff_store_order(seq.program, trace, dec.program, dtrace)
    if mismatches:
        raise VerificationError(
            f"{seq.program.name}: the decoupled functional run diverged "
            f"from the sequential run",
            mismatches,
        )


# ----------------------------------------------------------------------
# Commit-stream check (per timing run).
# ----------------------------------------------------------------------

def check_commit_stream(machine) -> list[str]:
    """Referee the recorded retirement log of one timing run."""
    log = machine.commit_log
    if log is None:
        return ["machine was run without record_commits=True — "
                "no commit log to verify"]
    n = len(machine.trace)
    mismatches: list[str] = []
    seen = bytearray(n)
    last_pos: dict[str, int] = {}
    for core_name, gid, pos in log:
        if core_name == "CMP":
            # CMAS copies retire outside the architectural stream.
            continue
        if gid != pos:
            mismatches.append(
                f"{core_name}: committed gid {gid} disagrees with trace "
                f"position {pos}"
            )
        if not 0 <= pos < n:
            mismatches.append(
                f"{core_name}: committed position {pos} outside trace "
                f"[0, {n})"
            )
            continue
        if seen[pos]:
            mismatches.append(
                f"{core_name}: trace position {pos} committed twice"
            )
        seen[pos] = 1
        prev = last_pos.get(core_name)
        if prev is not None and pos <= prev:
            mismatches.append(
                f"{core_name}: commit order violation — position {pos} "
                f"after {prev}"
            )
        last_pos[core_name] = pos
    missing = seen.count(0)
    if missing:
        first = seen.index(0)
        mismatches.append(
            f"{missing} trace positions never committed (first: {first})"
        )
    return mismatches


# ----------------------------------------------------------------------
# The --verify entry point.
# ----------------------------------------------------------------------

def verified_run(cw, config, mode, telemetry=None, faults=None):
    """Run one timing model and check its commit stream; raise on any
    divergence.

    *cw* passed :func:`check_equivalence` when it was prepared, so only
    the run itself is checked here.  Returns the
    :class:`~repro.sim.RunResult` with ``verified=True`` set.  Raises
    :class:`~repro.errors.VerificationError` listing every mismatch;
    watchdog/cycle-limit errors from the run itself propagate unchanged
    (they are already typed and forensic).
    """
    from ..experiments.runner import build_machine

    machine = build_machine(cw, config, mode, telemetry=telemetry,
                            faults=faults, record_commits=True)
    result = machine.run()
    mismatches = check_commit_stream(machine)
    if mismatches:
        raise VerificationError(
            f"{cw.name}/{mode}: timing run diverged from the functional "
            f"oracle",
            mismatches,
        )
    result.verified = True
    return result
