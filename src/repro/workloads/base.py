"""Workload abstraction for the DIS benchmarks.

Each benchmark (DESIGN.md substitution #3) consists of

* a seeded **data generator** (numpy) that builds the input image laid into
  the program's data segment,
* an **assembly kernel** authored with the
  :class:`~repro.asm.builder.ProgramBuilder` DSL, and
* a **pure-Python reference implementation** mirroring the kernel's exact
  semantics; :meth:`Workload.verify` compares the simulated memory against
  it, so every simulator run doubles as a correctness check.

Two ISA-level constraints every kernel honours (and
:func:`check_ap_executable` enforces):

* **No branch may depend on floating-point data.**  Branch conditions are
  backward-chased into the Access Stream, and the AP has no FP units; an FP
  instruction in the AS could never issue.  Kernels use branch-free selects
  (``flt`` + ``itof`` masks) instead.
* **No address may depend on FP-derived values**, for the same reason.
"""

from __future__ import annotations

import abc

import numpy as np

from ..asm.program import Program
from ..errors import WorkloadError
from ..isa.instruction import Stream
from ..isa.opcodes import FuClass
from ..sim.functional import ArchState


class Workload(abc.ABC):
    """One benchmark: data + kernel + reference."""

    #: short identifier used in tables (e.g. ``pointer``).
    name: str = "workload"
    #: display name matching the paper's figure labels (e.g. ``Pointer``).
    label: str = "Workload"
    #: fraction of the benchmark's memory operations treated as cache
    #: warmup (SimpleScalar's -fastfwd): the timing harness resets its
    #: statistics once this fraction of memory accesses has been fetched,
    #: so compulsory cold-start misses do not distort steady-state
    #: comparisons.  0.0 = measure everything (single-pass kernels).
    warmup_fraction: float = 0.0

    def __init__(self, seed: int = 2003):
        self.seed = seed
        self._program: Program | None = None

    # ------------------------------------------------------------------
    def rng(self) -> np.random.Generator:
        """Fresh deterministic generator (same data every build)."""
        return np.random.default_rng(self.seed)

    @property
    def program(self) -> Program:
        """The assembled kernel (built once, cached)."""
        if self._program is None:
            self._program = self.build()
        return self._program

    @abc.abstractmethod
    def build(self) -> Program:
        """Assemble the kernel with its input data."""

    @abc.abstractmethod
    def expected_outputs(self) -> dict[str, object]:
        """Reference results keyed by data-segment symbol.

        Values are ints (compared against one 64-bit word), floats
        (one binary64 word, compared with tolerance) or numpy arrays
        (compared element-wise against the corresponding region).
        """

    # ------------------------------------------------------------------
    def verify(self, state: ArchState) -> None:
        """Compare simulated memory with the reference; raise on mismatch."""
        program = self.program
        for symbol, expected in self.expected_outputs().items():
            addr = program.data_symbols.get(symbol)
            if addr is None:
                raise WorkloadError(f"{self.name}: unknown output symbol {symbol!r}")
            if isinstance(expected, float):
                got = state.memory.load_f64(addr)
                if not np.isclose(got, expected, rtol=1e-9, atol=1e-12):
                    raise WorkloadError(
                        f"{self.name}: {symbol} = {got!r}, expected {expected!r}"
                    )
            elif isinstance(expected, (int, np.integer)):
                got = state.memory.load(addr, 8)
                if got != int(expected):
                    raise WorkloadError(
                        f"{self.name}: {symbol} = {got}, expected {int(expected)}"
                    )
            elif isinstance(expected, np.ndarray):
                raw = state.memory.read_bytes(addr, expected.nbytes)
                got_arr = np.frombuffer(raw, dtype=expected.dtype)
                if expected.dtype.kind == "f":
                    ok = np.allclose(got_arr, expected.ravel(), rtol=1e-9)
                else:
                    ok = np.array_equal(got_arr, expected.ravel())
                if not ok:
                    bad = int(np.flatnonzero(got_arr != expected.ravel())[0]) \
                        if expected.dtype.kind != "f" else -1
                    raise WorkloadError(
                        f"{self.name}: array {symbol} mismatch "
                        f"(first bad index {bad})"
                    )
            else:  # pragma: no cover - guarded by expected_outputs contract
                raise WorkloadError(
                    f"{self.name}: unsupported expected type {type(expected)}"
                )


def check_ap_executable(program: Program, ap_has_fp: bool = False) -> None:
    """Raise if any Access-Stream instruction needs an FP unit the AP lacks.

    Call after separation; catches kernels that accidentally let FP values
    leak into branch conditions or address computation.
    """
    if ap_has_fp:
        return
    for pc, instr in enumerate(program.text):
        if instr.ann.stream is Stream.AS and instr.op.info.fu in (
            FuClass.FALU, FuClass.FMULDIV
        ):
            raise WorkloadError(
                f"AS instruction at pc {pc} ({instr.op.mnemonic}) requires an "
                f"FP unit but the AP has none — FP data reached control flow "
                f"or address computation"
            )
