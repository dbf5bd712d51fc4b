"""Machine configuration (the paper's Table 1).

Every simulated machine is described by a :class:`MachineConfig`.  The
defaults reproduce Table 1 of the paper exactly:

======================================  =======================================
Branch predict mode                     bimodal
Branch table size                       2048
Issue/commit width                      8
Instruction scheduling window           64 (superscalar); AP 64 / CP 16
Integer functional units                4 x ALU, 1 x MUL/DIV
Floating point functional units         4 x ALU, 1 x MUL/DIV
Memory ports                            2 per accessing processor
Data L1 cache                           256 sets, 32 B blocks, 4-way, LRU
L1 latency                              1 cycle
Unified L2 cache                        1024 sets, 64 B blocks, 4-way, LRU
L2 latency                              12 cycles
Memory access latency                   120 cycles
======================================  =======================================

Figure 10 varies ``(l2_latency, memory_latency)`` over
``(4, 40), (8, 80), (12, 120), (16, 160)``; use :meth:`MachineConfig.with_latency`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .utils import is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level."""

    sets: int
    block_bytes: int
    ways: int
    latency: int
    name: str = "cache"

    def __post_init__(self) -> None:
        if not is_power_of_two(self.sets):
            raise ConfigError(f"{self.name}: sets must be a power of two, got {self.sets}")
        if not is_power_of_two(self.block_bytes):
            raise ConfigError(
                f"{self.name}: block size must be a power of two, got {self.block_bytes}"
            )
        if self.ways < 1:
            raise ConfigError(f"{self.name}: ways must be >= 1, got {self.ways}")
        if self.latency < 0:
            raise ConfigError(f"{self.name}: latency must be >= 0, got {self.latency}")


@dataclass(frozen=True)
class CoreConfig:
    """Pipeline resources of one processor (CP, AP, CMP or superscalar)."""

    name: str
    window: int = 64
    issue_width: int = 8
    commit_width: int = 8
    int_alus: int = 4
    int_muldivs: int = 1
    fp_alus: int = 4
    fp_muldivs: int = 1
    mem_ports: int = 2
    has_lsu: bool = True
    has_fp: bool = True

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(f"{self.name}: window must be >= 1")
        if self.issue_width < 1 or self.commit_width < 1:
            raise ConfigError(f"{self.name}: widths must be >= 1")
        if self.has_lsu and self.mem_ports < 1:
            raise ConfigError(f"{self.name}: an LSU-bearing core needs >= 1 memory port")


@dataclass(frozen=True)
class BranchConfig:
    """Branch predictor parameters (bimodal, Table 1)."""

    table_size: int = 2048
    btb_size: int = 512
    mispredict_penalty: int = 3

    def __post_init__(self) -> None:
        if not is_power_of_two(self.table_size):
            raise ConfigError("branch table size must be a power of two")
        if not is_power_of_two(self.btb_size):
            raise ConfigError("BTB size must be a power of two")


@dataclass(frozen=True)
class QueueConfig:
    """Architectural queue depths (LDQ/SDQ and instruction queues)."""

    ldq_entries: int = 32
    sdq_entries: int = 32
    instr_queue_entries: int = 64

    def __post_init__(self) -> None:
        for attr in ("ldq_entries", "sdq_entries", "instr_queue_entries"):
            if getattr(self, attr) < 1:
                raise ConfigError(f"{attr} must be >= 1")


@dataclass(frozen=True)
class CmasConfig:
    """CMAS (Cache Miss Access Slice) selection and triggering parameters."""

    trigger_distance: int = 512
    miss_rate_threshold: float = 0.05
    #: hardware CMAS contexts.  Each forked thread is one probable-miss
    #: slice (a handful of instructions), so the CMP needs enough contexts
    #: to keep one outstanding miss per context; 16 matches the MSHR-depth
    #: assumptions of the speculative-precomputation literature (the paper
    #: does not size the CMP's thread storage).
    max_contexts: int = 16

    def __post_init__(self) -> None:
        if self.trigger_distance < 1:
            raise ConfigError("trigger_distance must be >= 1")
        if not (0.0 <= self.miss_rate_threshold <= 1.0):
            raise ConfigError("miss_rate_threshold must be in [0, 1]")
        if self.max_contexts < 1:
            raise ConfigError("max_contexts must be >= 1")


@dataclass(frozen=True)
class SamplingPlan:
    """Schedule for SMARTS-style sampled timing simulation.

    The post-warmup trace is divided into sampling periods of
    ``interval_length`` dynamic instructions.  Inside each period one
    window of ``detail_length`` instructions runs through the full timing
    machine (preceded by ``warmup_length`` instructions of detailed
    execution whose statistics are discarded); everything outside the
    detailed windows is fast-forwarded functionally while a lightweight
    probe keeps the caches and the branch predictor warm.  The window
    position is drawn independently per period (stratified sampling —
    a fixed offset aliases with periodic program structure); ``seed``
    fixes those draws, so a given (workload, config, plan) triple is
    fully deterministic.  ``error_budget`` is the relative 95% CI the
    extrapolated cycle count must meet: the driver densifies the
    schedule (halving the interval, or jumping straight to the density
    the measured variance predicts) until the CI fits, degrading to
    exact full-detail simulation when sampling cannot win.
    """

    interval_length: int = 20_000
    detail_length: int = 2_000
    warmup_length: int = 1_000
    seed: int = 2003
    error_budget: float = 0.03

    def __post_init__(self) -> None:
        if self.interval_length < 1:
            raise ConfigError("sampling interval_length must be >= 1")
        if not (0 < self.detail_length <= self.interval_length):
            raise ConfigError(
                "sampling detail_length must be in [1, interval_length]; got "
                f"{self.detail_length} with interval {self.interval_length}"
            )
        if self.warmup_length < 0:
            raise ConfigError("sampling warmup_length must be >= 0")
        if not (0.0 < self.error_budget < 1.0):
            raise ConfigError(
                "sampling error_budget is a relative CI target and must be "
                f"in (0, 1); got {self.error_budget}"
            )


# Table 1 cache defaults.
DEFAULT_L1 = CacheConfig(sets=256, block_bytes=32, ways=4, latency=1, name="L1D")
DEFAULT_L2 = CacheConfig(sets=1024, block_bytes=64, ways=4, latency=12, name="L2")


@dataclass(frozen=True)
class MachineConfig:
    """Complete configuration of a simulated machine (Table 1 defaults)."""

    fetch_width: int = 8
    l1: CacheConfig = DEFAULT_L1
    l2: CacheConfig = DEFAULT_L2
    memory_latency: int = 120
    #: cycle budget for one timing run; exceeding it raises
    #: :class:`~repro.errors.CycleLimitError` (``--max-cycles`` sets it).
    max_cycles: int = 2_000_000_000
    #: no-progress window (cycles) after which the
    #: :class:`~repro.resilience.ProgressWatchdog` declares a livelock.
    watchdog_window: int = 10_000
    branch: BranchConfig = field(default_factory=BranchConfig)
    queues: QueueConfig = field(default_factory=QueueConfig)
    cmas: CmasConfig = field(default_factory=CmasConfig)

    # Per-processor resources.  The baseline superscalar uses `superscalar`;
    # the decoupled machine uses `cp`, `ap` and `cmp`.
    superscalar: CoreConfig = field(
        default_factory=lambda: CoreConfig(name="superscalar", window=64)
    )
    cp: CoreConfig = field(
        default_factory=lambda: CoreConfig(
            name="CP", window=16, has_lsu=False, mem_ports=0
        )
    )
    ap: CoreConfig = field(
        default_factory=lambda: CoreConfig(
            name="AP", window=64, has_fp=False, fp_alus=0, fp_muldivs=0
        )
    )
    cmp: CoreConfig = field(
        default_factory=lambda: CoreConfig(
            name="CMP", window=64, issue_width=4, commit_width=4,
            has_fp=False, fp_alus=0, fp_muldivs=0,
        )
    )

    def __post_init__(self) -> None:
        if self.fetch_width < 1:
            raise ConfigError("fetch_width must be >= 1")
        if self.memory_latency < 1:
            raise ConfigError("memory_latency must be >= 1")
        if self.max_cycles < 1:
            raise ConfigError("max_cycles must be >= 1")
        if self.watchdog_window < 1:
            raise ConfigError("watchdog_window must be >= 1")

    def with_latency(self, l2_latency: int, memory_latency: int) -> "MachineConfig":
        """Return a copy with new L2/memory latencies (Figure 10 sweeps)."""
        return replace(
            self,
            l2=replace(self.l2, latency=l2_latency),
            memory_latency=memory_latency,
        )

    def describe(self) -> list[tuple[str, str]]:
        """Human-readable (parameter, value) rows — regenerates Table 1."""
        return [
            ("Branch predict mode", "bimodal"),
            ("Branch table size", str(self.branch.table_size)),
            ("Issue/commit width", str(self.superscalar.issue_width)),
            (
                "Instruction scheduling window size",
                f"{self.superscalar.window} (superscalar); "
                f"AP {self.ap.window} / CP {self.cp.window}",
            ),
            (
                "Integer functional units",
                f"ALU (x {self.superscalar.int_alus}), MUL/DIV",
            ),
            (
                "Floating point functional units",
                f"ALU (x {self.superscalar.fp_alus}), MUL/DIV",
            ),
            (
                "Number of memory ports",
                f"{self.superscalar.mem_ports} for superscalar / "
                f"{self.ap.mem_ports} for each of AP and CMP",
            ),
            (
                "Data L1 cache configuration",
                f"{self.l1.sets} sets, {self.l1.block_bytes} block, "
                f"{self.l1.ways}-way set associative, LRU",
            ),
            ("Data L1 cache latency", f"{self.l1.latency} CPU clock cycle"),
            (
                "Unified L2 cache configuration",
                f"{self.l2.sets} sets, {self.l2.block_bytes} block, "
                f"{self.l2.ways}-way set associative, LRU",
            ),
            ("L2 cache latency", f"{self.l2.latency} CPU clock cycles"),
            ("Memory access latency", f"{self.memory_latency} CPU clock cycles"),
        ]


#: Latency points simulated in Figure 10, as (l2_latency, memory_latency).
FIGURE10_LATENCIES: tuple[tuple[int, int], ...] = ((4, 40), (8, 80), (12, 120), (16, 160))
