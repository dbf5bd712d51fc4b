"""Dynamic traces and the precomputed plans that drive timing simulation.

The timing simulators are *trace-driven* (DESIGN.md substitution #2): the
program is first executed functionally, producing a :class:`Trace`; the
pipeline models then replay it.  This module computes, once per
(program, trace) pair, everything the machines need:

* :class:`Trace` — the columnar trace, the contract between the
  functional front end and the timing back end.  Two parallel integer
  columns: ``pc`` (static instruction index per dynamic instance) and
  ``addr`` (effective byte address, -1 for non-memory instructions).
  ``next_pc`` is not stored: it is the following position's pc, and the
  final HALT's ``next_pc`` is its own pc — an invariant of every trace
  the functional simulators emit.  Whole-trace derivations gather
  per-pc flag tables (:func:`repro.sim.decode.flag_table`) with the pc
  column instead of looping over the trace in Python.
  :meth:`Trace.of` is the one seam for callers that still hold a
  ``list[DynInstr]``: it converts once and rejects lists whose
  ``next_pc`` disagrees with the following pc.
* :func:`generate_trace` — run the golden model and capture the trace.
* :class:`QueuePlan` — FIFO matching for the LDQ and SDQ.  Because both
  streams are carved out of one sequential instruction stream, the k-th pop
  of a queue always takes the k-th push.  The plan is four columns, the
  trace positions of each queue's pushes and pops in order; the timing
  cores count each endpoint kind as they dispatch it, and index the
  columns with that count to turn queue communication into ordinary
  dependence edges (including *capacity* edges: push *s* may not issue
  before pop *s - capacity* has freed a slot).
* :class:`CmasPlan` — trigger points and the dynamic CMAS slice each
  trigger forks onto the CMP.  A trigger fires when the separator reaches
  the trace position ``trigger_distance`` instructions ahead of a dynamic
  instance of a *probable miss* instruction (paper §4.2: a 512-instruction
  window).  Overlapping windows are de-duplicated so each dynamic CMAS
  instance is pre-executed at most once.  The plan is columnar too: one
  row per thread, whose slice is ``cmas_positions[lo:hi]`` of a single
  shared ascending position list.

Compact columns.  Every integer column of a trace or plan is an
``array.array``, not a list of boxed ints: a compilation is 5–7x smaller
in memory (large raytrace: 76.8 MB as lists, 11.0 MB as arrays), a
forked pool worker shares it instead of copying every page whose
refcounts it touches, and it pickles as a few byte strings.  Storage is
``array``, not numpy, because the timing cores index the columns per
instruction, where numpy indexing is slower still and its scalars would
leak into the cores' dependence lists; whole-column work takes zero-copy
numpy views (:meth:`Trace.pcs`, :meth:`Trace.addrs`).  The typecodes
follow from the data, through :func:`compact`:

* ``pc`` takes the narrowest unsigned typecode (``B``, ``H`` or ``I``)
  that holds the program's largest static index (the recorder knows the
  program; a column built from values uses its largest value);
* trace positions and thread indices take the narrowest that holds the
  column's largest value (a list pickle stores an int below 65,536 in
  2–3 bytes, so one 4-byte width would make small compilations pickle
  larger than lists did);
* ``addr`` is ``i``: signed for the -1 sentinel, and 4 bytes hold every
  address below ``MEMORY_BYTES``.

Every constructor (``Trace(...)``, :meth:`Trace.of`, ``QueuePlan(...)``,
``CmasPlan(...)``) coerces list or numpy columns the same way, so a plan
built by hand equals a built one; an ``array`` column is kept as given.
Compare columns as arrays or through ``.tolist()``: an ``array`` never
equals a list, while arrays of different typecodes compare by value.  A
numpy view locks its array (``append`` raises ``BufferError`` while the
view lives), so views are made fresh per call and never cached; the
functional recorder replaces a trace's columns when a run stops instead
of growing them in place.

Both plans are plain dataclasses whose every field is computed when they
are built, so nothing is rebuilt on load: that keeps run-cache entries,
checkpoints and pool transport cheap.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..asm.program import Program
from ..errors import SimulationError
from ..isa.instruction import Stream
from .decode import decode_program, flag_table
from .functional import ArchState, DynInstr, FunctionalSimulator


#: Typecode of the ``addr`` column (see the module docstring).
ADDR_TYPECODE = "i"


def typecode_for(top: int) -> str:
    """The narrowest unsigned ``array`` typecode that holds 0..*top*
    (``I``, 4 bytes, at most: a larger value overflows when stored)."""
    return "B" if top <= 0xFF else "H" if top <= 0xFFFF else "I"


def compact(values, top: int | None = None) -> array:
    """*values* (non-negative ints: a sequence or a numpy array) as an
    ``array`` of :func:`typecode_for` *top*, by default their largest
    value.  An ``array`` is returned as is."""
    if isinstance(values, array):
        return values
    if isinstance(values, np.ndarray):
        if top is None:
            top = int(values.max()) if values.size else 0
        code = typecode_for(top)
        return array(code, values.astype(code).tobytes())
    if top is None:
        top = max(values, default=0)
    return array(typecode_for(top), values)


class Trace:
    """A dynamic trace as parallel ``pc`` / ``addr`` columns.

    See the module docstring for the contract and the column typecodes.
    """

    __slots__ = ("pc", "addr")

    def __init__(self, pc=None, addr=None):
        if not isinstance(addr, array):
            addr = array(ADDR_TYPECODE, () if addr is None else addr)
        self.pc: array = compact(() if pc is None else pc)
        self.addr: array = addr
        if len(self.pc) != len(self.addr):
            raise SimulationError(
                f"trace columns differ in length: {len(self.pc)} pcs, "
                f"{len(self.addr)} addresses")

    @classmethod
    def of(cls, trace) -> "Trace":
        """*trace* itself if it is a :class:`Trace`, else the columns of a
        ``list[DynInstr]`` (converted once).

        Raises :class:`~repro.errors.SimulationError` when a record's
        ``next_pc`` is not the following record's pc (or, for the last
        record, its own pc): such a list is not a trace the columns can
        represent.
        """
        if isinstance(trace, cls):
            return trace
        pc = [dyn.pc for dyn in trace]
        for i, dyn in enumerate(trace):
            expected = pc[i + 1] if i + 1 < len(pc) else dyn.pc
            if dyn.next_pc != expected:
                raise SimulationError(
                    f"trace position {i}: next_pc {dyn.next_pc} is not the "
                    f"following pc {expected}")
        return cls(pc, [dyn.addr for dyn in trace])

    def __len__(self) -> int:
        return len(self.pc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.pc == other.pc and self.addr == other.addr

    def __getstate__(self):
        return self.pc, self.addr

    def __setstate__(self, state) -> None:
        self.pc, self.addr = state

    def append_run(self, pc: list[int], addr: list[int], top: int) -> None:
        """Append one functional run's recorded columns; *top* is the
        program's largest static index.  The columns are replaced, not
        grown, so a live numpy view of the old ones cannot block it."""
        if len(self):
            pc = self.pc.tolist() + pc
            addr = self.addr.tolist() + addr
        self.pc = compact(pc, top)
        self.addr = array(ADDR_TYPECODE, addr)

    def next_pc(self, i: int) -> int:
        """The pc executed after position *i* (derived, see module doc)."""
        pc = self.pc
        return pc[i + 1] if i + 1 < len(pc) else pc[i]

    def pcs(self) -> np.ndarray:
        """A zero-copy numpy view of the pc column (fresh per call)."""
        return np.frombuffer(self.pc, dtype=self.pc.typecode)

    def addrs(self) -> np.ndarray:
        """A zero-copy numpy view of the addr column (fresh per call)."""
        return np.frombuffer(self.addr, dtype=self.addr.typecode)

    def positions(self, records: list, flag: str) -> np.ndarray:
        """Ascending positions whose instruction has field *flag* set.

        *records* is indexed by pc: the program's decode table, or its
        text for a flag the opcode alone fixes (``is_mem``, ``is_store``).
        """
        return np.flatnonzero(flag_table(records, flag)[self.pcs()])

    def records(self) -> list[DynInstr]:
        """The trace as ``DynInstr`` records (for list-holding callers)."""
        pc, addr = self.pc, self.addr
        return [DynInstr(pc[i], addr[i], self.next_pc(i))
                for i in range(len(pc))]


def generate_trace(program: Program) -> tuple[Trace, ArchState]:
    """Execute *program* functionally; return (trace, final state)."""
    trace = Trace()
    state = FunctionalSimulator(program).run(trace=trace)
    return trace, state


def generate_decoupled_trace(program: Program) -> tuple[Trace, ArchState]:
    """Execute an *annotated* (communication-bearing) program through the
    split-register-file executor; return (trace, final AP state)."""
    from .functional import DecoupledFunctionalSimulator

    trace = Trace()
    state = DecoupledFunctionalSimulator(program).run(trace=trace)
    return trace, state


@dataclass
class QueuePlan:
    """FIFO matching for one annotated trace: each queue's endpoints.

    Endpoint *k* of a kind pairs with endpoint *k* of its partner kind;
    dispatch counts each kind in order and indexes these columns with the
    count (see :meth:`repro.sim.core.TimingCore.dispatch`).  Columns
    given as lists or numpy arrays are made :func:`compact`.
    """

    #: trace position of the k-th LDQ push / pop (an instruction with both
    #: operands "$LDQ"-flagged pops twice, so appears twice in a row).
    ldq_push_pos: array = field(default_factory=list)
    ldq_pop_pos: array = field(default_factory=list)
    #: same for the SDQ; "pops" are the SDQ-consuming stores.
    sdq_push_pos: array = field(default_factory=list)
    sdq_pop_pos: array = field(default_factory=list)

    def __post_init__(self) -> None:
        self.ldq_push_pos = compact(self.ldq_push_pos)
        self.ldq_pop_pos = compact(self.ldq_pop_pos)
        self.sdq_push_pos = compact(self.sdq_push_pos)
        self.sdq_pop_pos = compact(self.sdq_pop_pos)

    @property
    def balanced(self) -> bool:
        """True iff every push has a pop and vice versa."""
        return (len(self.ldq_push_pos) == len(self.ldq_pop_pos)
                and len(self.sdq_push_pos) == len(self.sdq_pop_pos))


def _check_fifo(what: str, push: np.ndarray, pop: np.ndarray) -> None:
    """Raise unless the k-th pop comes after the k-th push, for every k."""
    early = np.flatnonzero(push[:len(pop)] > pop[:len(push)])
    seq = int(early[0]) if early.size else len(push)
    if seq < len(pop):
        raise SimulationError(
            f"{what} #{seq} at position {int(pop[seq])} precedes its push")


def build_queue_plan(program: Program, trace, *,
                     decoded: list | None = None) -> QueuePlan:
    """Compute FIFO matching for an annotated program.

    Every column is a gather of a per-pc decode flag over the trace's pc
    column (:func:`repro.sim.decode.flag_table`); the k-th pop of a queue
    matches the k-th push.  Dispatch finds *k* by counting each endpoint
    kind in its own dispatch order, which is trace order only when one
    core dispatches them all; so the plan is refused when an executed
    endpoint kind sits on both streams, or when one instruction both
    pushes and pops the same queue.  *decoded* is *program*'s decode
    table, if the caller has one.
    """
    trace = Trace.of(trace)
    if decoded is None:
        decoded = decode_program(program.text)
    pcs = trace.pcs()
    executed = np.zeros(len(decoded), dtype=bool)
    executed[pcs] = True
    on_ap = np.array([d.stream is Stream.AS for d in decoded], dtype=bool)
    on_cp = np.array([d.stream is Stream.CS for d in decoded], dtype=bool)
    missing = np.flatnonzero(~(on_ap | on_cp)[pcs])
    if missing.size:
        i = int(missing[0])
        raise SimulationError(
            f"trace position {i} (pc {trace.pc[i]}) lacks a stream annotation"
        )

    # LDQ: an instruction pushes, or pops once per "$LDQ" operand.  SDQ:
    # pushes, and SDQ-consuming stores as pops.
    ldq_push = flag_table(decoded, "ldq_push")
    ldq_pops = flag_table(decoded, "ldq_pops")
    sdq_push = flag_table(decoded, "sdq_push")
    sdq_pop = flag_table(decoded, "sdq_pop")
    for queue, push, pop in (("LDQ", ldq_push, ldq_pops > 0),
                             ("SDQ", sdq_push, sdq_pop)):
        both = np.flatnonzero(executed & push & pop)
        if both.size:
            raise SimulationError(
                f"pc {int(both[0])} both pushes and pops the {queue}")
    for what, kind in (("LDQ pushes", ldq_push), ("LDQ pops", ldq_pops > 0),
                       ("SDQ pushes", sdq_push),
                       ("SDQ-consuming stores", sdq_pop)):
        ap_pcs = np.flatnonzero(executed & kind & on_ap)
        cp_pcs = np.flatnonzero(executed & kind & on_cp)
        if ap_pcs.size and cp_pcs.size:
            raise SimulationError(
                f"{what} execute on both streams (AS pc {int(ap_pcs[0])}, "
                f"CS pc {int(cp_pcs[0])})")

    ldq_push_pos = np.flatnonzero(ldq_push[pcs])
    popping = np.flatnonzero(ldq_pops[pcs])
    ldq_pop_pos = np.repeat(popping, ldq_pops[pcs[popping]])
    _check_fifo("LDQ pop", ldq_push_pos, ldq_pop_pos)
    sdq_push_pos = np.flatnonzero(sdq_push[pcs])
    sdq_pop_pos = np.flatnonzero(sdq_pop[pcs])
    _check_fifo("SDQ-consuming store", sdq_push_pos, sdq_pop_pos)
    return QueuePlan(ldq_push_pos=ldq_push_pos, ldq_pop_pos=ldq_pop_pos,
                     sdq_push_pos=sdq_push_pos, sdq_pop_pos=sdq_pop_pos)


@dataclass
class CmasPlan:
    """All CMAS threads of one trace, one column entry per thread.

    Thread *i* forks when the separator reaches ``trigger_pos[i]``, covers
    the probable-miss instance at ``miss_pos[i]`` and replays the trace
    positions ``cmas_positions[lo[i]:hi[i]]`` on the CMP.  Threads are
    ordered by (strictly ascending) ``miss_pos``; their slices are
    disjoint, ascending runs of ``cmas_positions``.  Under one trigger
    distance ``trigger_pos`` ascends too; per-pc distances
    (``distance_for``) can make a later miss trigger earlier.  Columns
    given as lists or numpy arrays are made :func:`compact`.
    """

    #: ascending trace positions of every CMAS-annotated instance.
    cmas_positions: array = field(default_factory=list)
    trigger_pos: array = field(default_factory=list)
    miss_pos: array = field(default_factory=list)
    lo: array = field(default_factory=list)
    hi: array = field(default_factory=list)
    #: thread indices in the order the separator forks them: by
    #: ``trigger_pos``, threads sharing a trigger in index order
    #: (``range(num_threads)`` when the triggers ascend already).
    firing_order: range | array = range(0)
    #: instructions over every thread's slice.
    total_prefetch_instructions: int = 0
    #: the largest ``miss_pos - trigger_pos``: how far ahead of its miss
    #: a trigger can fire.
    max_distance: int = 0

    def __post_init__(self) -> None:
        self.cmas_positions = compact(self.cmas_positions)
        self.trigger_pos = compact(self.trigger_pos)
        self.miss_pos = compact(self.miss_pos)
        self.lo = compact(self.lo)
        self.hi = compact(self.hi)
        if not isinstance(self.firing_order, range):
            self.firing_order = compact(self.firing_order)

    @property
    def num_threads(self) -> int:
        return len(self.trigger_pos)

    def positions(self, index: int) -> array:
        """Trace positions thread *index* replays (ascending)."""
        return self.cmas_positions[self.lo[index]:self.hi[index]]

    def pending_at(self, pos: int) -> list[int]:
        """Thread indices triggered before *pos* whose covered miss is at
        or past it — the "in flight on the CMP" set a sampling window must
        re-establish.  Candidates have a miss in the band ``[pos, pos +
        max_distance]``; ``miss_pos`` is ascending, so two bisects find
        them without scanning every thread.
        """
        miss_pos = self.miss_pos
        trigger_pos = self.trigger_pos
        lo = bisect_left(miss_pos, pos)
        hi = bisect_right(miss_pos, pos + self.max_distance)
        return [index for index in range(lo, hi) if trigger_pos[index] < pos]


def build_cmas_plan(
    program: Program,
    trace,
    trigger_distance: int,
    max_slice: int = 2048,
    distance_for: dict[int, int] | None = None,
    decoded: list | None = None,
) -> CmasPlan:
    """Compute trigger points and de-duplicated dynamic CMAS slices.

    For every dynamic instance *q* of a probable-miss instruction, the
    trigger fires at trace position ``max(0, q - trigger_distance)`` and the
    forked context replays the CMAS-annotated instances in ``(claimed, q]``
    where *claimed* de-duplicates overlapping windows.

    *distance_for* optionally overrides the trigger distance per static
    probable-miss pc — the hook for the paper's §6 "runtime control of the
    prefetching distance" (see :mod:`repro.slicer.adaptive`).  *decoded*
    is *program*'s decode table, if the caller has one.
    """
    trace = Trace.of(trace)
    if decoded is None:
        decoded = decode_program(program.text)
    cmas = trace.positions(decoded, "cmas")
    misses = trace.positions(decoded, "probable_miss")
    if not misses.size:
        return CmasPlan(cmas_positions=cmas)

    distance = np.full(len(decoded), trigger_distance, dtype=np.int64)
    for pc, d in (distance_for or {}).items():
        distance[pc] = d
    starts = np.maximum(misses - distance[trace.pcs()[misses]], 0)
    # Each miss's window [start, q] as a slice of cmas_positions; the
    # claimed-prefix de-duplication is a sequential scan over the misses.
    first = np.searchsorted(cmas, starts, side="left").tolist()
    last = np.searchsorted(cmas, misses, side="right").tolist()
    trigger_pos, miss_pos, lo_col, hi_col = [], [], [], []
    next_unclaimed = 0
    for q, start, lo, hi in zip(misses.tolist(), starts.tolist(), first,
                                last):
        lo = max(lo, next_unclaimed)
        if lo >= hi:
            continue
        hi = min(hi, lo + max_slice)
        next_unclaimed = hi
        trigger_pos.append(start)
        miss_pos.append(q)
        lo_col.append(lo)
        hi_col.append(hi)

    triggers = np.asarray(trigger_pos, dtype=np.int64)
    if np.all(triggers[:-1] <= triggers[1:]):
        firing_order = range(len(trigger_pos))
    else:
        firing_order = np.argsort(triggers, kind="stable")
    return CmasPlan(
        cmas_positions=cmas, trigger_pos=trigger_pos,
        miss_pos=miss_pos, lo=lo_col, hi=hi_col, firing_order=firing_order,
        total_prefetch_instructions=sum(hi_col) - sum(lo_col),
        max_distance=max((m - t for m, t in zip(miss_pos, trigger_pos)),
                         default=0))
