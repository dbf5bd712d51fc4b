"""The trace-driven out-of-order-window timing core.

One :class:`TimingCore` models one processor (superscalar, CP, AP or CMP):

* **dispatch** — pull instructions from the core's instruction queue into
  the scheduling window (the RUU in SimpleScalar terms), computing the
  dependence edges at that moment: register dependences via a per-core
  last-writer map, memory dependences via a last-store map, and queue
  dependences (LDQ/SDQ matching and capacity) from the machine's
  :class:`~repro.sim.trace.QueuePlan`.
* **issue** — oldest-first wakeup/select, limited by issue width,
  functional-unit issue bandwidth and memory ports.  Memory operations
  access the shared :class:`~repro.sim.hierarchy.MemoryHierarchy` at issue
  time and complete when the (possibly merged) fill lands.
* **commit** — in-order retirement, up to the commit width.

Scheduling is **event-driven** (wakeup lists, not polling): every window
entry carries a ``pending`` count of incomplete producers, computed once at
dispatch; for each still-incomplete producer the entry registers on the
machine's per-gid wakeup list.  When a completion lands (the machine's
completion calendar fires the producer's bucket — see
:meth:`repro.sim.decoupled.Machine._land_completions`), waiting consumers
decrement ``pending`` and, on reaching zero, move into the core's
age-ordered **ready pool**.  ``issue`` therefore walks only ready entries
— never the whole window — and stall classification reads the head's
cached counters instead of re-polling every dependence.

This is cycle-for-cycle identical to the old polling scheduler: readiness
is monotonic (``complete_at`` is written exactly once per gid, always in
the strict future, and ``min_ready`` is non-decreasing in dispatch order
within a core), so pushing readiness at completion time selects exactly
the entries the per-cycle re-scan used to find.

All cross-instruction communication goes through the machine-owned
``complete_at`` array indexed by *global id*, so dependences freely cross
cores (a CP pop waits on an AP push) and CMAS copies on the CMP wait on
nothing outside their own thread.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..config import CoreConfig
from ..isa.instruction import Instruction
from ..telemetry.cpi import new_stack
from .fu import FuPools

_STORE_GRANULE = ~7  # memory dependences tracked at 8-byte granularity


class WindowEntry:
    """One in-flight instruction in a core's scheduling window."""

    __slots__ = ("gid", "seq", "pos", "instr", "addr", "deps", "min_ready",
                 "issued", "is_prefetch", "wait_class", "pending",
                 "block_class", "owner", "d")

    def __init__(self, gid: int, pos: int, instr: Instruction, addr: int,
                 deps: list[int], min_ready: int, is_prefetch: bool,
                 seq: int = 0):
        self.gid = gid
        #: per-core dispatch sequence number — the age order the ready pool
        #: and issue arbitration preserve.
        self.seq = seq
        self.pos = pos
        self.instr = instr
        self.addr = addr
        self.deps = deps
        self.min_ready = min_ready
        self.issued = False
        self.is_prefetch = is_prefetch
        #: CPI-stack bucket to charge while this entry stalls retirement
        #: after issue ('mem_l1'/'mem_l2'/'mem_mem'; None means 'execute').
        #: Only filled in when CPI telemetry is on.
        self.wait_class: str | None = None
        #: number of producers whose completion has not yet landed; the
        #: entry enters the ready pool when this reaches zero.
        self.pending = 0
        #: dependence-stall classification ('ldq_empty', 'queue_full',
        #: 'sdq_empty' or 'data_dep'), copied at dispatch from the static
        #: ``DecodedOp.block_class``.
        self.block_class: str | None = None
        #: owning TimingCore (set at dispatch; the machine's completion
        #: landing uses it to route woken entries into the right pool).
        self.owner = None
        #: the static :class:`~repro.sim.decode.DecodedOp` record for this
        #: instruction (set at dispatch; issue and telemetry read the
        #: pre-resolved FU index, latency and queue flags from it).
        self.d = None


class CoreStats:
    """Per-core pipeline statistics."""

    __slots__ = ("committed", "issued_mem", "stall_cycles",
                 "ldq_empty_stalls", "sdq_empty_stalls", "queue_full_stalls",
                 "max_window")

    def __init__(self) -> None:
        self.committed = 0
        self.issued_mem = 0
        self.stall_cycles = 0
        self.ldq_empty_stalls = 0
        self.sdq_empty_stalls = 0
        self.queue_full_stalls = 0
        self.max_window = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class TimingCore:
    """One processor's pipeline; see the module docstring."""

    def __init__(self, name: str, config: CoreConfig, machine) -> None:
        self.name = name
        self.config = config
        self.machine = machine
        self.fu = FuPools(config)
        self.window: deque[WindowEntry] = deque()
        #: age-ordered pool of dispatched, dependence-free entries awaiting
        #: an issue slot: a heap of (seq, entry), so the oldest ready entry
        #: is always at the top.
        self.ready: list[tuple[int, WindowEntry]] = []
        self._seq = 0
        #: (gid, pos, min_ready, thread_last_writer-or-None) awaiting dispatch
        self.instr_queue: deque = deque()
        self.instr_queue_capacity = machine.instr_queue_capacity(name)
        self.last_writer: dict[int, int] = {}
        self.last_store: dict[int, int] = {}
        self.stats = CoreStats()
        self.is_prefetch_core = name == "CMP"
        # Telemetry switches, latched once so the disabled hot path pays a
        # single attribute test (the machine sets its _tel_* flags before
        # constructing cores).
        self._cpi_on: bool = getattr(machine, "_tel_cpi", False)
        self._events_on: bool = getattr(machine, "_tel_events", False)
        # CMAS copies on the CMP run outside the LDQ/SDQ protocol, so the
        # CMP never moves queue occupancy.
        self._q_track: bool = (getattr(machine, "_tel_queues", False)
                               and not self.is_prefetch_core)
        #: per-dynamic-instruction lifecycle collector (None in normal
        #: runs; a pure observer — it never feeds back into scheduling).
        self._life = getattr(machine, "_life", None)
        self._tel_issue: bool = (self._events_on or self._q_track
                                 or self._life is not None)
        # Resilience hooks, latched like the telemetry switches (both are
        # None in normal runs, so the hot paths pay one local test).
        self._faults = getattr(machine, "faults", None)
        self._commit_log = getattr(machine, "commit_log", None)
        self.cpi: dict[str, int] = new_stack()
        self._last_bucket = "frontend"
        self._committed_now = 0
        l1 = machine.hierarchy.l1.config.latency
        self._lat_l1 = l1
        self._lat_l1l2 = l1 + machine.hierarchy.l2.config.latency

    # ------------------------------------------------------------------
    def queue_has_room(self, count: int = 1) -> bool:
        return len(self.instr_queue) + count <= self.instr_queue_capacity

    def enqueue(self, gid: int, pos: int, min_ready: int,
                extra_deps: tuple[int, ...] = ()) -> None:
        self.instr_queue.append((gid, pos, min_ready, extra_deps))

    @property
    def drained(self) -> bool:
        return not self.instr_queue and not self.window

    # ------------------------------------------------------------------
    def dispatch(self, now: int) -> int:
        """Move instructions from the queue into the window; returns count.

        Besides building the dependence edges, dispatch *registers* the
        entry for wakeup: producers whose completion has not landed yet get
        the entry appended to their wakeup list, and entries with no such
        producer go straight into the ready pool.
        """
        machine = self.machine
        trace_pc = machine.trace.pc
        trace_addr = machine.trace.addr
        decoded = machine.decoded
        plan = machine.queue_plan
        complete_at = machine.complete_at
        wakeup = machine.wakeup
        instr_queue = self.instr_queue
        window = self.window
        ready = self.ready
        lw = self.last_writer
        last_store = self.last_store
        is_prefetch = self.is_prefetch_core
        # CMAS copies on the CMP run outside the LDQ/SDQ protocol (the CMP
        # only updates cache state) and carry no memory-order edges.
        use_plan = plan is not None and not is_prefetch
        track_mem = not is_prefetch
        q_track = self._q_track
        life = self._life
        ldq_cap = machine.ldq_capacity
        sdq_cap = machine.sdq_capacity
        pop = instr_queue.popleft
        seq = self._seq
        dispatched = 0
        width = self.config.issue_width
        window_cap = self.config.window
        while (instr_queue and dispatched < width
               and len(window) < window_cap):
            gid, pos, min_ready, extra_deps = pop()
            d = decoded[trace_pc[pos]]
            deps: list[int] = list(extra_deps) if extra_deps else []
            # Register sources — "$LDQ"-flagged operands were dropped from
            # ``d.srcs`` at decode (their value arrives through the queue).
            for reg in d.srcs:
                producer = lw.get(reg)
                if producer is not None:
                    deps.append(producer)
            if use_plan and d.has_queue:
                if d.reads_ldq_any:
                    first = plan.ldq_pop_seq[pos]
                    deps.extend(plan.ldq_push_pos[first:first + d.ldq_pops])
                elif d.ldq_push:
                    slot = plan.ldq_push_seq[pos] - ldq_cap
                    if slot >= 0:
                        deps.append(plan.ldq_pop_pos[slot])
                if d.sdq_push:
                    slot = plan.sdq_push_seq[pos] - sdq_cap
                    if slot >= 0:
                        deps.append(plan.sdq_pop_pos[slot])
                elif d.sdq_pop:
                    deps.append(plan.sdq_match[pos])
            if q_track and d.sdq_pop:
                # The store's address sits in the SAQ from dispatch until
                # the SDQ data arrives and the store issues.
                machine.queue_delta("SAQ", 1, now)
            addr = trace_addr[pos]
            if track_mem and d.is_mem:
                granule = addr & _STORE_GRANULE
                producer = last_store.get(granule)
                if producer is not None:
                    deps.append(producer)
                if d.is_store:
                    last_store[granule] = gid
            dest = d.dest
            if dest is not None:
                lw[dest] = gid
            entry = WindowEntry(gid, pos, d.instr, addr, deps, min_ready,
                                is_prefetch, seq)
            entry.owner = self
            entry.d = d
            entry.block_class = d.block_class
            seq += 1
            # Wakeup registration: count producers whose completion has not
            # landed; each one holds a reference back to this entry.
            pending = 0
            for dep in deps:
                t = complete_at[dep]
                if t is None or t > now:
                    pending += 1
                    waiters = wakeup.get(dep)
                    if waiters is None:
                        wakeup[dep] = [entry]
                    else:
                        waiters.append(entry)
            entry.pending = pending
            if not pending:
                heappush(ready, (entry.seq, entry))
            window.append(entry)
            if life is not None:
                life.on_dispatch(gid, now, not pending)
            dispatched += 1
        self._seq = seq
        if len(window) > self.stats.max_window:
            self.stats.max_window = len(window)
        return dispatched

    # ------------------------------------------------------------------
    def issue(self, now: int) -> int:
        """Oldest-first select over the ready pool; returns number issued.

        Entries here have no outstanding dependences, so the only per-entry
        checks left are ``min_ready`` (a front-end pipeline floor that is
        non-decreasing in age order — once the head is too young, everything
        younger is too) and FU/port arbitration.  FU-starved entries stay in
        the pool for the next cycle.
        """
        ready = self.ready
        if not ready:
            return 0
        if ready[0][1].min_ready > now:
            return 0
        machine = self.machine
        complete_at = machine.complete_at
        calendar = machine.calendar
        cal_heap = machine.cal_heap
        hierarchy = machine.hierarchy
        access = hierarchy.access
        stats = self.stats
        cpi_on = self._cpi_on
        tel_issue = self._tel_issue
        lat_l1 = self._lat_l1
        faults = self._faults if not self.is_prefetch_core else None
        self.fu.new_cycle()
        fu_take = self.fu.take_idx
        issued = 0
        width = self.config.issue_width
        deferred: list[tuple[int, WindowEntry]] | None = None
        while ready and issued < width:
            item = ready[0]
            entry = item[1]
            if entry.min_ready > now:
                break
            heappop(ready)
            d = entry.d
            if not fu_take(d.fu):
                if deferred is None:
                    deferred = [item]
                else:
                    deferred.append(item)
                continue
            if d.is_mem:
                is_store = d.is_store
                latency = access(
                    entry.addr, is_write=is_store, now=now,
                    is_prefetch=entry.is_prefetch,
                )
                if is_store:
                    # Stores drain through a store buffer: the pipeline does
                    # not wait for the fill, only for the L1 write port.
                    latency = lat_l1
                stats.issued_mem += 1
                if cpi_on:
                    if latency <= lat_l1:
                        entry.wait_class = "mem_l1"
                    elif latency <= self._lat_l1l2:
                        entry.wait_class = "mem_l2"
                    else:
                        entry.wait_class = "mem_mem"
            else:
                latency = d.latency
            if faults is not None and d.queue_push:
                extra = faults.on_queue_push(entry.gid)
                if extra is None:
                    # Transfer dropped: the completion never lands, so the
                    # consumer starves and the watchdog raises a forensic
                    # DeadlockError — never a silent result.
                    entry.issued = True
                    issued += 1
                    continue
                latency += extra
            entry.issued = True
            gid = entry.gid
            t = now + latency
            complete_at[gid] = t
            # Completion calendar: bucket this completion so the machine
            # lands it (and wakes its consumers) exactly at cycle t.
            bucket = calendar.get(t)
            if bucket is None:
                calendar[t] = [gid]
                heappush(cal_heap, t)
            else:
                bucket.append(gid)
            issued += 1
            if tel_issue:
                self._on_issue(entry, d, now, latency)
            if d.is_control:
                machine.note_branch_issue(gid, t)
        if deferred:
            for item in deferred:
                heappush(ready, item)
        return issued

    def _on_issue(self, entry: WindowEntry, d, now: int,
                  latency: int) -> None:
        """Telemetry tap at issue: event emission + queue-flow counters."""
        machine = self.machine
        if self._life is not None:
            self._life.on_issue(entry.gid, now, latency, d.is_mem)
        if self._events_on:
            args = {"gid": entry.gid, "pos": entry.pos}
            if d.is_mem:
                args["addr"] = entry.addr
            machine.sink.duration(self.name, d.mnemonic, now, latency, args)
        if self._q_track:
            if d.ldq_push:
                machine.queue_delta("LDQ", 1, now)
            if d.ldq_pops:
                machine.queue_delta("LDQ", -d.ldq_pops, now)
            if d.sdq_push:
                machine.queue_delta("SDQ", 1, now)
            elif d.sdq_pop:
                machine.queue_delta("SDQ", -1, now)
                machine.queue_delta("SAQ", -1, now)

    # ------------------------------------------------------------------
    def commit(self, now: int) -> int:
        """In-order retirement from the window head; returns count."""
        complete_at = self.machine.complete_at
        commit_log = self._commit_log
        life = self._life
        committed = 0
        window = self.window
        pop = window.popleft
        while window and committed < self.config.commit_width:
            head = window[0]
            t = complete_at[head.gid] if head.issued else None
            if t is None or t > now:
                break
            pop()
            committed += 1
            if commit_log is not None:
                commit_log.append((self.name, head.gid, head.pos))
            if life is not None:
                life.on_commit(head.gid, now)
        self.stats.committed += committed
        self._committed_now = committed
        if committed == 0 and window:
            self.stats.stall_cycles += 1
            self._attribute_stall(window[0], now)
        return committed

    def _attribute_stall(self, head: WindowEntry, now: int) -> None:
        """Classify why the window head has not retired (LoD accounting).

        The head's ``pending`` counter already says whether a producer's
        completion is outstanding, and the blocked-reason is the static
        ``block_class`` dispatch copied from the decode table — no
        dependence re-polling.
        """
        if head.issued or not head.pending:
            return
        reason = head.block_class
        if reason == "ldq_empty":
            self.stats.ldq_empty_stalls += 1
        elif reason == "queue_full":
            self.stats.queue_full_stalls += 1
        elif reason == "sdq_empty":
            self.stats.sdq_empty_stalls += 1

    # ------------------------------------------------------------------
    # CPI-stack accounting (telemetry; see repro.telemetry.cpi).
    # ------------------------------------------------------------------
    def reset_cpi(self) -> None:
        self.cpi = new_stack()

    def classify_cycle(self, now: int) -> None:
        """Charge this cycle to exactly one CPI-stack component.

        Called by the machine once per simulated cycle (the machine
        replicates the last classification across dead-time clock skips,
        where by construction nothing changes), so the components of
        :attr:`cpi` always sum to the measured cycle count.
        """
        if self._committed_now:
            self.cpi["base"] += 1
            self._last_bucket = "base"
            return
        machine = self.machine
        window = self.window
        if not window:
            if self.instr_queue:
                bucket = "frontend"
            elif machine.fetch_done:
                bucket = "drained"
            elif machine._waiting_branch is not None:
                bucket = "branch_recovery"
            else:
                bucket = "instr_queue_empty"
        else:
            head = window[0]
            if head.issued:
                bucket = head.wait_class or "execute"
            elif head.min_ready > now:
                bucket = "frontend"
            elif not head.pending:
                bucket = "fu_contention"
            else:
                bucket = head.block_class
        self.cpi[bucket] += 1
        self._last_bucket = bucket
