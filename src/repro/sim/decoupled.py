"""The unified timing machine: baseline superscalar, CP+AP, CP+CMP, HiDISC.

All four architecture models of the paper's §5.3 are one machine class with
two switches:

* ``separated`` — route the annotated streams to CP/AP through the
  separator (access/execute decoupling on), or feed everything to a single
  superscalar core (off).
* ``cmp_enabled`` — fork CMAS threads onto the CMP at trigger points
  (cache prefetching on/off).

================  ==========  ============
model             separated   cmp_enabled
================  ==========  ============
``superscalar``   no          no
``cp_ap``         yes         no
``cp_cmp``        no          yes
``hidisc``        yes         yes
================  ==========  ============

The machine owns the shared front end (fetch + separator + branch
predictor), the shared memory hierarchy, the global ``complete_at`` array,
the **completion calendar**, the LDQ/SDQ sequence counters dispatch pairs
queue endpoints by (see :mod:`repro.sim.core`) and the simulation loop.
The separator sends each position to the AP or CP by its decode record's
stream.  Scheduling is event-driven: when an instruction issues, its
completion is bucketed on the calendar (cycle -> gids); at the top of
every simulated cycle the machine *lands* all due buckets, waking the
consumers registered on each gid's wakeup list.  The loop is
cycle-stepped but *skips dead time*: when a cycle makes no progress (every
core stalled on outstanding fills), the clock jumps to the next
completion or fetch event — read straight off the calendar instead of
re-scanning every window — a large win when all cores sit behind a
120-cycle memory access.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from heapq import heappop, heappush
from itertools import groupby

from ..asm.program import Program
from ..config import MachineConfig
from ..errors import ConfigError, CycleLimitError, SimulationError
from ..isa.instruction import Stream
from ..resilience.watchdog import ProgressWatchdog
from ..telemetry import Telemetry
from .branch import BranchPredictor
from .core import TimingCore
from .decode import CTRL_COND, CTRL_INDIRECT, decode_program
from .hierarchy import MemoryHierarchy
from .machine import RunResult
from .trace import CmasPlan, QueuePlan, Trace

MODES = ("superscalar", "cp_ap", "cp_cmp", "hidisc")

_CMP_QUEUE_CAPACITY = 4096


class Machine:
    """One configured machine ready to replay one trace."""

    def __init__(
        self,
        config: MachineConfig,
        program: Program,
        trace: Trace,
        mode: str,
        queue_plan: QueuePlan | None = None,
        cmas_plan: CmasPlan | None = None,
        work_instructions: int | None = None,
        benchmark: str = "",
        warmup_pos: int = 0,
        telemetry: Telemetry | None = None,
        faults=None,
        record_commits: bool = False,
        start_pos: int = 0,
        end_pos: int | None = None,
        hierarchy: MemoryHierarchy | None = None,
        predictor: BranchPredictor | None = None,
        complete_at: list[int | None] | None = None,
        decoded: list | None = None,
    ):
        if mode not in MODES:
            raise SimulationError(f"unknown machine mode {mode!r}")
        self.config = config
        self.program = program
        trace = Trace.of(trace)
        self.trace = trace
        self.mode = mode
        self.separated = mode in ("cp_ap", "hidisc")
        self.cmp_enabled = mode in ("cp_cmp", "hidisc")
        self.queue_plan = queue_plan if self.separated else None
        self.cmas_plan = cmas_plan if self.cmp_enabled else None
        if self.separated and queue_plan is None:
            raise SimulationError(f"mode {mode} requires a queue plan")
        if self.cmp_enabled and cmas_plan is None:
            raise SimulationError(f"mode {mode} requires a CMAS plan")
        self.work_instructions = (
            work_instructions if work_instructions is not None else len(trace)
        )
        self.benchmark = benchmark

        # Interval (sampled) execution: replay only trace positions in
        # [start_pos, end_pos).  The memory hierarchy and branch predictor
        # may be *injected* so that a sampling driver can carry their warm
        # micro-architectural state across fast-forward gaps, and so may
        # the ``complete_at`` buffer and the decode table, so that it
        # builds neither per window (see repro.sim.sampling); full runs
        # build their own.
        self._fetch_end = len(trace) if end_pos is None else end_pos
        if not (0 <= start_pos <= self._fetch_end <= len(trace)):
            raise SimulationError(
                f"invalid trace window [{start_pos}, {self._fetch_end}) for "
                f"a {len(trace)}-instruction trace"
            )

        self.hierarchy = (
            hierarchy if hierarchy is not None
            else MemoryHierarchy.from_config(config)
        )
        self.predictor = (
            predictor if predictor is not None
            else BranchPredictor(config.branch)
        )
        self.ldq_capacity = config.queues.ldq_entries
        self.sdq_capacity = config.queues.sdq_entries

        # Resilience: optional FaultInjector (None in normal runs — the hot
        # paths guard on it), commit recording for the co-simulation oracle,
        # and the progress watchdog replacing the old max_cycles-only guard.
        self.faults = faults
        self.hierarchy.faults = faults
        #: (core name, gid, trace position) per retirement, oldest first;
        #: None unless the run was started with ``record_commits=True``.
        self.commit_log: list[tuple[str, int, int]] | None = (
            [] if record_commits else None
        )
        self.watchdog = ProgressWatchdog(config.watchdog_window)

        # Telemetry: latch the switches once so the disabled path costs a
        # couple of local-variable tests per cycle (see repro.telemetry).
        self.telemetry = telemetry
        self._tel_cpi = telemetry is not None and telemetry.cpi
        self._tel_events = telemetry is not None and telemetry.events_on
        self.sink = telemetry.sink if self._tel_events else None
        self._sampler = telemetry.new_sampler() if telemetry is not None else None
        #: lifecycle collector and heartbeat (None unless requested); the
        #: heartbeat reads queue occupancy, so it keeps _tel_queues on.
        self._life = telemetry.lifecycle if telemetry is not None else None
        self._heartbeat = telemetry.heartbeat if telemetry is not None else None
        self._tel_queues = (self._tel_events or self._sampler is not None
                            or self._heartbeat is not None)
        #: issue-time occupancy of the architectural queues (telemetry only;
        #: the timing model itself carries queue state as dependence edges).
        self.queue_occupancy: dict[str, int] = {"LDQ": 0, "SDQ": 0, "SAQ": 0}
        if self._tel_events:
            self.hierarchy.sink = self.sink

        #: the window this machine opened in an adopted ``complete_at``
        #: buffer, which run() closes again; None when it owns its buffer.
        self._opened: tuple[int, int] | None = None
        if complete_at is None:
            cmas_extra = (cmas_plan.total_prefetch_instructions
                          if self.cmp_enabled else 0)
            complete_at = [None] * (len(trace) + cmas_extra)
        else:
            # Between windows an adopted buffer reads 0 (complete) over the
            # trace and None over the CMAS gids: open this window in it.
            complete_at[start_pos:self._fetch_end] = (
                [None] * (self._fetch_end - start_pos))
            self._opened = (start_pos, self._fetch_end)
        self.complete_at = complete_at
        self._next_cmas_gid = len(trace)
        #: sequence number of the next LDQ push, LDQ pop, SDQ push and SDQ
        #: pop that dispatch meets: the count of each kind's positions
        #: before the window (see repro.sim.core.TimingCore.dispatch).
        self.queue_seq: list[int] = (
            [bisect_left(column, start_pos) for column in (
                queue_plan.ldq_push_pos, queue_plan.ldq_pop_pos,
                queue_plan.sdq_push_pos, queue_plan.sdq_pop_pos)]
            if self.separated else [])

        #: static decode table indexed by PC (see repro.sim.decode) — every
        #: per-instruction property the scheduler needs, resolved once.
        self.decoded = (decode_program(program.text) if decoded is None
                        else decoded)
        if self.separated:
            # An instruction's LDQ pops must fit the queue together:
            # otherwise push k + 1 waits for pop k, which waits for its
            # instruction's pop k + 1, which waits for push k + 1.
            pops = [d.ldq_pops for d in self.decoded]
            most = max(pops)
            if most > self.ldq_capacity:
                raise ConfigError(
                    f"{benchmark or '<unnamed>'}: the instruction at pc "
                    f"{pops.index(most)} pops {most} LDQ entries, but the "
                    f"LDQ holds {self.ldq_capacity} "
                    f"(QueueConfig.ldq_entries) — give it at least {most}"
                )
        if self._life is not None:
            self._life.bind(self)

        # Event-driven scheduling state (see repro.sim.core): per-gid wakeup
        # lists of window entries awaiting that producer's completion, and
        # the completion calendar — cycle -> gids completing then, with a
        # heap over the bucketed cycles so both landing and dead-time
        # skipping read the next event in O(log buckets).
        self.wakeup: dict[int, list] = {}
        self.calendar: dict[int, list[int]] = {}
        self.cal_heap: list[int] = []

        self.cores: list[TimingCore] = []
        if self.separated:
            self.cp = TimingCore("CP", config.cp, self)
            self.ap = TimingCore("AP", config.ap, self)
            self.cores += [self.cp, self.ap]
        else:
            self.main = TimingCore("main", config.superscalar, self)
            self.cores.append(self.main)
        if self.cmp_enabled:
            self.cmp = TimingCore("CMP", config.cmp, self)
            self.cores.append(self.cmp)

        self._fetch_pos = start_pos
        self._waiting_branch: int | None = None  # gid of mispredicted branch
        self._threads_forked = 0
        self._threads_dropped = 0
        #: last gid of each forked thread, oldest first (context limiting).
        self._thread_last_gids: list[int] = []
        # Measurement window (SimpleScalar's -fastfwd): statistics reset and
        # the cycle counter re-anchored when fetch crosses `warmup_pos`.
        self._warmup_pos = warmup_pos
        self._measure_start_cycle = 0
        self._in_warmup = warmup_pos > start_pos
        #: Windowed runs that end mid-trace stop at the cycle fetch crosses
        #: the window end instead of draining: measurement then spans
        #: fetch-crossing to fetch-crossing, so the in-flight tail is
        #: excluded symmetrically with the warmed-up pipeline at the start
        #: (a drain would charge the tail's full miss latency with nothing
        #: left to overlap it — a per-window overestimate).
        self._stop_at_fetch_end = (
            end_pos is not None and end_pos < len(trace)
        )
        # The separator's cursor: CMAS threads in firing order, grouped by
        # trigger position, from the window's first trigger at or after
        # start_pos.  (-1, ()) once none is left.
        self._next_trigger, self._next_threads = -1, ()
        if self.cmp_enabled:
            order = self.cmas_plan.firing_order
            trigger_of = self.cmas_plan.trigger_pos.__getitem__
            k = bisect_left(order, start_pos, key=trigger_of)
            self._triggers = groupby(order[k:], key=trigger_of)
            self._next_trigger, self._next_threads = next(self._triggers,
                                                          (-1, ()))
        if self.cmp_enabled and start_pos > 0:
            # Windowed replay: re-establish the CMP's steady-state backlog.
            # Threads triggered before the window whose covered miss lands
            # inside it are pending on the real machine's CMP at this point
            # (trigger fired up to `trigger_distance` positions ago, slice
            # not yet retired).  Forking them at cycle 0 rebuilds the
            # context chain and queue pressure that delay in-window
            # prefetches — without it every window prefetch issues
            # instantly at its trigger and lands unrealistically early.
            pending = self.cmas_plan.pending_at(start_pos)
            if pending:
                self._fork_threads(pending, -1)

    # ------------------------------------------------------------------
    # Services used by the cores.
    # ------------------------------------------------------------------
    def instr_queue_capacity(self, core_name: str) -> int:
        if core_name == "CMP":
            return _CMP_QUEUE_CAPACITY
        if core_name == "main":
            # The single-stream models have no separator queue bottleneck;
            # give the main core a deep fetch queue.
            return max(64, self.config.queues.instr_queue_entries)
        return self.config.queues.instr_queue_entries

    @property
    def fetch_done(self) -> bool:
        """True once the front end has consumed its trace window."""
        return self._fetch_pos >= self._fetch_end

    def queue_delta(self, name: str, delta: int, now: int) -> None:
        """Telemetry tap: a core moved LDQ/SDQ/SAQ occupancy by *delta*."""
        occ = self.queue_occupancy[name] + delta
        self.queue_occupancy[name] = occ
        if self._tel_events:
            self.sink.counter("queues", name, now, occ)

    # ------------------------------------------------------------------
    # Front end: fetch + separate + predict + trigger.
    # ------------------------------------------------------------------
    def _separator_step(self, now: int) -> int:
        pcs = self.trace.pc
        last = len(pcs) - 1
        decoded = self.decoded
        n = self._fetch_end
        if self._waiting_branch is not None:
            resolved = self.complete_at[self._waiting_branch]
            if resolved is None or now < resolved + self.config.branch.mispredict_penalty:
                return 0
            self._waiting_branch = None

        fetched = 0
        fetch_width = self.config.fetch_width
        pos = self._fetch_pos
        separated = self.separated
        access_stream = Stream.AS
        cp = self.cp if separated else self.main
        ap = self.ap if separated else None
        next_trigger = self._next_trigger
        resolve = self.predictor.resolve
        in_warmup = self._in_warmup
        life = self._life
        min_ready = now + 1
        while fetched < fetch_width and pos < n:
            pc = pcs[pos]
            d = decoded[pc]
            core = ap if separated and d.stream is access_stream else cp
            iq = core.instr_queue
            if len(iq) >= core.instr_queue_capacity:
                break
            if pos == next_trigger:
                self._fork_threads(self._next_threads, now)
                next_trigger, self._next_threads = next(self._triggers,
                                                        (-1, ()))
                self._next_trigger = next_trigger
            iq.append((pos, pos, min_ready, ()))
            if life is not None:
                life.on_fetch(pos, pos, core.name, now)
            pos += 1
            self._fetch_pos = pos
            fetched += 1
            if in_warmup and pos >= self._warmup_pos:
                self._begin_measurement(now)
                in_warmup = False

            kind = d.ctrl_kind
            if kind:
                # The trace's next pc is the branch oracle (`pos` already
                # points past this instruction).
                next_pc = pcs[pos] if pos <= last else pc
                if kind == CTRL_COND:
                    wait = resolve(pc, next_pc != pc + 1, next_pc, "cond")
                elif kind == CTRL_INDIRECT:
                    wait = resolve(pc, True, next_pc, "indirect")
                else:  # J / JAL: target known at decode.
                    wait = resolve(pc, True, next_pc, "direct")
                if wait:
                    self._waiting_branch = pos - 1
                    if self._tel_events:
                        self.sink.instant("frontend", "mispredict", now,
                                          {"pos": pos - 1, "pc": pc})
                    break
        return fetched

    def _begin_measurement(self, now: int) -> None:
        """Start the measurement window: reset statistics, keep all
        micro-architectural state (warm caches, predictor, queues)."""
        self._in_warmup = False
        self._measure_start_cycle = now
        self.hierarchy.reset_stats()
        from .branch import BranchStats

        self.predictor.stats = BranchStats()
        for core in self.cores:
            from .core import CoreStats

            # Full runs keep `committed` (their results describe the whole
            # execution); windowed sampling runs reset it so the per-window
            # counts cover exactly the measured region and extrapolate
            # cleanly (warmup-prefix commits would otherwise inflate them).
            stats = CoreStats()
            if not self._stop_at_fetch_end:
                stats.committed = core.stats.committed
            core.stats = stats
            if self._tel_cpi:
                # Reset CPI stacks with the cycle counter: classification of
                # the current cycle happens later this iteration, so stacks
                # cover exactly the measurement window.
                core.reset_cpi()

    def _fork_threads(self, thread_indices: Iterable[int], now: int) -> None:
        max_contexts = self.config.cmas.max_contexts
        faults = self.faults
        fetch_end = self._fetch_end
        windowed = self._stop_at_fetch_end
        plan = self.cmas_plan
        for index in thread_indices:
            lo, hi = plan.lo[index], plan.hi[index]
            count = hi - lo
            if windowed and plan.miss_pos[index] >= fetch_end:
                # The covered miss lies beyond this sampling window, so its
                # prefetch cannot affect measured cycles — and the slice's
                # beyond-window producers are pre-filled complete, which
                # would let it issue an unrealistically early burst.  Skip
                # (not "drop": the full run forks it, a later window will
                # see its effect through the warm hierarchy).
                continue
            if faults is not None and faults.on_fork():
                # Injected trigger suppression: degrade exactly like a
                # dropped thread (fewer prefetches, identical results).
                self._threads_dropped += 1
                self._next_cmas_gid += count
                if self._tel_events:
                    self.sink.instant("CMP", "cmas_suppressed", now,
                                      {"thread": index, "instrs": count})
                continue
            if not self.cmp.queue_has_room(count):
                self._threads_dropped += 1
                self._next_cmas_gid += count
                if self._tel_events:
                    self.sink.instant("CMP", "cmas_drop", now,
                                      {"thread": index, "instrs": count})
                continue
            self._threads_forked += 1
            if self._tel_events:
                self.sink.instant("CMP", "cmas_fork", now,
                                  {"thread": index, "instrs": count})
            # Hardware context limit: thread i may not start before thread
            # (i - max_contexts) has finished.
            extra: tuple[int, ...] = ()
            if len(self._thread_last_gids) >= max_contexts:
                extra = (self._thread_last_gids[-max_contexts],)
            first = True
            life = self._life
            for p in plan.cmas_positions[lo:hi]:
                self.cmp.enqueue(self._next_cmas_gid, p, now + 1,
                                 extra if first else ())
                if life is not None:
                    life.on_fetch(self._next_cmas_gid, p, "CMP", now)
                first = False
                self._next_cmas_gid += 1
            self._thread_last_gids.append(self._next_cmas_gid - 1)

    # ------------------------------------------------------------------
    # The simulation loop.
    # ------------------------------------------------------------------
    def run(self, max_cycles: int | None = None) -> RunResult:
        try:
            return self._run_loop(max_cycles)
        finally:
            # Terminate any in-progress heartbeat status line, on normal
            # completion and on exceptions alike, so results/tracebacks
            # never splice into a stale "\r" line.
            if self._heartbeat is not None:
                self._heartbeat.finish()
            # A machine runs once.  Drop the cores' back-references and
            # the entries a sampled window leaves unretired (each points
            # back at its core), so the window state is freed when the
            # caller lets go, not at the next full cyclic collection
            # (which peak RSS would wait for).
            for core in self.cores:
                core.machine = None
                core.window.clear()
                core.ready.clear()
            if self._opened is not None:
                self._close_window()

    def _close_window(self) -> None:
        """Return an adopted ``complete_at`` buffer to its between-window
        state: 0 over this window, None over the CMAS gids it used."""
        start, end = self._opened
        complete_at = self.complete_at
        complete_at[start:end] = [0] * (end - start)
        first = len(self.trace)
        complete_at[first:self._next_cmas_gid] = (
            [None] * (self._next_cmas_gid - first))

    def _run_loop(self, max_cycles: int | None) -> RunResult:
        if max_cycles is None:
            max_cycles = self.config.max_cycles
        now = 0
        n = self._fetch_end
        cores = self.cores
        cpi_on = self._tel_cpi
        sampler = self._sampler
        heartbeat = self._heartbeat
        watchdog = self.watchdog
        cal_heap = self.cal_heap
        while True:
            if cal_heap and cal_heap[0] <= now:
                self._land_completions(now)
            progress = self._separator_step(now)
            for core in cores:
                if core.instr_queue:
                    progress += core.dispatch(now)
                if core.ready:
                    progress += core.issue(now)
            for core in cores:
                if core.window:
                    progress += core.commit(now)
                else:
                    core._committed_now = 0

            main_done = self._fetch_pos >= n and (
                self._stop_at_fetch_end
                or all(c.drained for c in cores if c.name != "CMP")
            )
            if main_done:
                # The final cycle is the completion boundary, not a spent
                # cycle: classifying it would make stacks sum to cycles + 1.
                break
            if cpi_on:
                for core in cores:
                    core.classify_cycle(now)
            if sampler is not None and now >= sampler.next_at:
                sampler.record(self, now)
            if heartbeat is not None and now >= heartbeat.next_at:
                heartbeat.emit(self, now)
            if progress == 0:
                next_now = self._skip_to_next_event(now)
                # Raises DeadlockError: immediately when no wake-up event
                # exists (structural — nothing can ever change again), or
                # after config.watchdog_window event-ful but progress-free
                # cycles (livelock safety net).
                watchdog.check_stall(self, now, next_now)
                if cpi_on and next_now > now + 1:
                    # Dead-time skip: nothing changes between `now` and
                    # `next_now`, so the skipped cycles repeat this cycle's
                    # classification (keeps stacks summing to cycles).
                    skipped = next_now - now - 1
                    for core in cores:
                        core.cpi[core._last_bucket] += skipped
                now = next_now
            else:
                watchdog.note_progress(now)
                now += 1
            if now > max_cycles:
                raise CycleLimitError(self.benchmark, self.mode, max_cycles,
                                      cycle=now)
        return self._result(now)

    def _land_completions(self, now: int) -> None:
        """Land every calendar bucket due at or before *now*.

        For each completing gid, consumers registered on its wakeup list
        drop one pending producer; entries reaching zero enter their core's
        ready pool.  A gid's wakeup list is consumed exactly once — later
        dispatches see its ``complete_at`` already in the past and never
        register.
        """
        cal_heap = self.cal_heap
        calendar = self.calendar
        wakeup = self.wakeup
        life = self._life
        while cal_heap and cal_heap[0] <= now:
            t = heappop(cal_heap)
            for gid in calendar.pop(t):
                waiters = wakeup.pop(gid, None)
                if waiters is None:
                    continue
                for entry in waiters:
                    pending = entry.pending - 1
                    entry.pending = pending
                    if not pending:
                        heappush(entry.owner.ready, (entry.seq, entry))
                        if life is not None:
                            life.on_ready(entry.gid, now)

    def _skip_to_next_event(self, now: int) -> int | None:
        """Next cycle at which anything can happen; None = nothing ever can.

        Read off the completion calendar (every in-flight completion is
        bucketed there), the pending branch resolution and the front-end
        floors — no window scanning.
        """
        candidates: list[int] = []
        cal_heap = self.cal_heap
        if cal_heap:
            candidates.append(cal_heap[0])
        for core in self.cores:
            # Front-end pipeline floors.  Both are safety nets: an entry is
            # fetched (and the fetch counts as progress) the cycle before
            # its min_ready, so a zero-progress cycle can only see floors
            # already in the past.
            ready = core.ready
            if ready:
                min_ready = ready[0][1].min_ready
                if min_ready > now:
                    candidates.append(min_ready)
            if core.instr_queue:
                min_ready = core.instr_queue[0][2]
                if min_ready > now:
                    candidates.append(min_ready)
        if self._waiting_branch is not None:
            t = self.complete_at[self._waiting_branch]
            if t is not None:
                candidates.append(t + self.config.branch.mispredict_penalty)
        if not candidates:
            # Nothing in flight and no progress: by construction no future
            # cycle can differ from this one.  The caller's watchdog turns
            # this into a forensic DeadlockError.
            return None
        return max(now + 1, min(candidates))

    # ------------------------------------------------------------------
    def _result(self, cycles: int) -> RunResult:
        result = RunResult(
            machine=self.mode,
            benchmark=self.benchmark,
            cycles=cycles - self._measure_start_cycle,
            total_cycles=cycles,
            work_instructions=self.work_instructions,
            committed={c.name: c.stats.committed for c in self.cores},
            l1=self.hierarchy.l1.stats,
            l2=self.hierarchy.l2.stats,
            memory=self.hierarchy.stats,
            branch=self.predictor.stats,
            core_stats={c.name: c.stats.as_dict() for c in self.cores},
            cmas_threads_forked=self._threads_forked,
            cmas_threads_dropped=self._threads_dropped,
            cpi_stacks=(
                {c.name: dict(c.cpi) for c in self.cores}
                if self._tel_cpi else {}
            ),
            faults_injected=(
                self.faults.summary() if self.faults is not None else {}
            ),
        )
        return result
