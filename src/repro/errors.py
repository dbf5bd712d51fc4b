"""Exception hierarchy for the HiDISC reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch simulator problems without masking genuine Python bugs
(``TypeError`` etc. propagate unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class AssemblyError(ReproError):
    """Raised by the assembler for malformed source text.

    Carries the line number when available so messages are actionable.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """Raised for illegal operations during simulation (bad address, ...)."""


class CycleLimitError(SimulationError):
    """A timing simulation exceeded its cycle budget.

    Carries enough context (benchmark, machine mode, the limit) that the
    message names the knob to raise: ``MachineConfig.max_cycles`` /
    ``hidisc --max-cycles``.
    """

    def __init__(self, benchmark: str, mode: str, max_cycles: int,
                 cycle: int | None = None):
        self.benchmark = benchmark
        self.mode = mode
        self.max_cycles = max_cycles
        super().__init__(
            f"{benchmark or '<unnamed>'}: exceeded {max_cycles} cycles on "
            f"{mode} — raise the limit with MachineConfig.max_cycles or "
            f"the --max-cycles CLI flag if the workload is genuinely this "
            f"long"
        )


class DeadlockError(SimulationError):
    """The timing machine made no progress and never can again.

    Raised by :class:`repro.resilience.ProgressWatchdog` with a forensic
    *dump* (per-core window heads, queue occupancy, outstanding misses,
    injected faults) so a queue-plan bug or an injected transfer drop can
    be diagnosed from the exception alone.
    """

    def __init__(self, message: str, dump: dict | None = None):
        self.dump = dump if dump is not None else {}
        super().__init__(message)


class VerificationError(SimulationError):
    """A decoupled functional run diverged from the sequential one, or a
    timing run's commit stream from its trace.

    Carries the individual *mismatches* (queue drain, register, memory
    page, store order or commit-stream violations) found by
    :mod:`repro.resilience.oracle`.
    """

    def __init__(self, message: str, mismatches: list[str] | None = None):
        self.mismatches = list(mismatches) if mismatches else []
        detail = ""
        if self.mismatches:
            shown = self.mismatches[:8]
            detail = "\n  - " + "\n  - ".join(shown)
            if len(self.mismatches) > len(shown):
                detail += f"\n  ... and {len(self.mismatches) - len(shown)} more"
        super().__init__(message + detail)


class SamplingError(SimulationError):
    """Sampled simulation was requested in an unsupported combination.

    Fault injection and the co-simulation oracle both need every cycle
    simulated in detail (faults key off absolute event ordinals; the
    oracle replays the full commit stream), so combining them with a
    :class:`~repro.config.SamplingPlan` raises this instead of silently
    producing results that look verified but are not.
    """


class MemoryFault(SimulationError):
    """Out-of-range or misaligned memory access."""

    def __init__(self, address: int, reason: str = "out of range"):
        self.address = address
        super().__init__(f"memory fault at 0x{address:x}: {reason}")


class QueueProtocolError(SimulationError):
    """Queue pop on empty / push on full in a context where that is a bug
    (functional checking), as opposed to a stall (timing simulation)."""


class SlicingError(ReproError):
    """Raised when stream separation produces an inconsistent program."""


class ValidationError(SlicingError):
    """An annotated program violates a HiDISC invariant."""


class ConfigError(ReproError):
    """Invalid machine or experiment configuration."""


class InterruptedRun(ReproError):
    """A run was stopped at a safe point by SIGINT/SIGTERM.

    Raised by :func:`repro.experiments.interrupt.poll` at cell boundaries
    once a graceful-interrupt handler has seen a signal — completed cells
    are already checkpointed, so a subsequent ``--resume`` (or a service
    worker re-claiming the job) continues without recomputing them.
    Carries the *signal* name so ledger records and job events can say
    what stopped the run.
    """

    def __init__(self, signal_name: str = "SIGINT"):
        self.signal_name = signal_name
        super().__init__(
            f"run interrupted by {signal_name} — completed cells are "
            f"checkpointed; resume with --resume (or let the service "
            f"re-lease the job) to continue without recomputation"
        )


class ServiceError(ReproError):
    """Job-service failure (queue, lease, worker, or HTTP front end)."""


class BackpressureError(ServiceError):
    """A job submission was rejected by admission control.

    Carries the configured *depth* limit so clients can render an
    actionable message (and an HTTP 429 with a Retry-After hint).
    """

    def __init__(self, depth: int, limit: int):
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"job queue is full ({depth} pending >= limit {limit}) — "
            f"retry after the backlog drains or raise --max-depth"
        )


class JobCancelled(ServiceError):
    """A leased job observed its cancellation marker and stopped."""


class WorkloadError(ReproError):
    """Workload construction or self-check failure."""
