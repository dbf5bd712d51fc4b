"""Telemetry subsystem tests: sinks, stall attribution, CPI-stack sums,
occupancy sampling and end-to-end event tracing.

The central property — asserted here on real compiled benchmarks across
all four machine models — is that every core's CPI-stack components sum
*exactly* to the measured cycle count.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.config import CoreConfig, MachineConfig, TelemetryConfig
from repro.errors import ConfigError
from repro.isa.instruction import Annotations, Instruction
from repro.isa.opcodes import Op
from repro.sim import (
    Machine,
    build_cmas_plan,
    build_queue_plan,
    generate_decoupled_trace,
    generate_trace,
)
from repro.sim.core import TimingCore, WindowEntry
from repro.sim.decode import DecodedOp
from repro.sim.queues import ArchQueue
from repro.slicer import compile_hidisc
from repro.telemetry import (
    CPI_COMPONENTS,
    ChromeTraceSink,
    JsonlSink,
    MemorySink,
    NullSink,
    Sampler,
    Telemetry,
    check_stack,
    new_stack,
    render_cpi_stacks,
    stack_total,
)
from repro.telemetry.sampler import take_sample

from .conftest import build_load_compute_store, build_store_loop


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_null_sink_disabled(self):
        sink = NullSink()
        assert sink.enabled is False
        sink.duration("t", "n", 0, 1)
        sink.instant("t", "n", 0)
        sink.counter("t", "n", 0, 1)  # all no-ops

    def test_memory_sink_records_and_selects(self):
        sink = MemorySink()
        sink.duration("CP", "add", 3, 1, {"gid": 7})
        sink.instant("CMP", "cmas_fork", 4)
        sink.counter("queues", "LDQ", 5, 2)
        assert sink.tracks() == {"CP", "CMP", "queues"}
        assert sink.of_kind("counter") == [("counter", "queues", "LDQ", 5, 2)]

    def test_memory_sink_cap_keeps_oldest_and_counts_drops(self):
        sink = MemorySink(max_events=2)
        sink.instant("t", "first", 0)
        sink.duration("t", "second", 1, 1)
        sink.counter("t", "third", 2, 5)
        sink.instant("t", "fourth", 3)
        assert [e[2] for e in sink.events] == ["first", "second"]
        assert sink.dropped == 2
        assert sink.close() == {"events": 2, "dropped": 2}

    def test_memory_sink_repr_shows_cap_state(self):
        sink = MemorySink(max_events=3)
        sink.instant("t", "x", 0)
        assert repr(sink) == "MemorySink(events=1, cap=3, dropped=0)"
        assert "cap=unbounded" in repr(MemorySink())

    def test_memory_sink_unbounded_by_default(self):
        sink = MemorySink()
        for i in range(100):
            sink.instant("t", "x", i)
        assert len(sink.events) == 100 and sink.dropped == 0

    def test_memory_sink_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            MemorySink(max_events=0)

    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.duration("AP", "ld", 10, 120, {"addr": 64})
        sink.counter("queues", "LDQ", 11, 3)
        sink.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {"ev": "duration", "track": "AP", "name": "ld",
                            "ts": 10, "dur": 120, "args": {"addr": 64}}
        assert lines[1]["value"] == 3
        assert sink.event_count == 2

    def test_chrome_trace_sink_format(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(path)
        sink.duration("CP", "add", 5, 2)
        sink.instant("CMP", "cmas_fork", 6)
        sink.counter("queues", "LDQ", 7, 4)
        sink.close()
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        thread_names = {e["args"]["name"] for e in events
                        if e.get("name") == "thread_name"}
        assert {"CP", "CMP"} <= thread_names
        x = [e for e in events if e["ph"] == "X"]
        assert x and x[0]["ts"] == 5 and x[0]["dur"] == 2
        c = [e for e in events if e["ph"] == "C"]
        assert c[0]["name"] == "queues/LDQ" and c[0]["args"]["value"] == 4

    def test_telemetry_from_config(self, tmp_path):
        tel = Telemetry.from_config(TelemetryConfig(sample_interval=64))
        assert tel.cpi and not tel.events_on and tel.sample_interval == 64
        tel2 = Telemetry.from_config(
            TelemetryConfig(trace_format="jsonl"), tmp_path / "t.jsonl")
        assert isinstance(tel2.sink, JsonlSink)
        tel3 = Telemetry.from_config(
            TelemetryConfig(), tmp_path / "t.json")
        assert isinstance(tel3.sink, ChromeTraceSink)

    def test_telemetry_config_validation(self):
        with pytest.raises(ConfigError):
            TelemetryConfig(sample_interval=-1)
        with pytest.raises(ConfigError):
            TelemetryConfig(trace_format="xml")
        with pytest.raises(ConfigError):
            TelemetryConfig(lifecycle_max_records=-1)
        with pytest.raises(ConfigError):
            TelemetryConfig(heartbeat_interval=-5)

    def test_telemetry_from_config_lifecycle_and_heartbeat(self, tmp_path):
        tel = Telemetry.from_config(
            TelemetryConfig(lifecycle=True, lifecycle_max_records=128,
                            heartbeat_interval=1000))
        assert tel.lifecycle is not None
        assert tel.lifecycle.max_records == 128
        assert tel.heartbeat is not None and tel.heartbeat.interval == 1000
        off = Telemetry.from_config(TelemetryConfig())
        assert off.lifecycle is None and off.heartbeat is None
        streamed = Telemetry.from_config(
            TelemetryConfig(), lifecycle_jsonl=tmp_path / "life.jsonl")
        assert streamed.lifecycle is not None
        streamed.close()


# ----------------------------------------------------------------------
# Stall attribution unit tests (hand-built window entries)
# ----------------------------------------------------------------------
class _StubMachine:
    """Just enough machine for a TimingCore and its classifiers."""

    def __init__(self, complete_at, waiting_branch=None, fetch_done=False):
        self.complete_at = complete_at
        self._waiting_branch = waiting_branch
        self.fetch_done = fetch_done
        cache = lambda lat: SimpleNamespace(config=SimpleNamespace(latency=lat))
        self.hierarchy = SimpleNamespace(l1=cache(1), l2=cache(12))
        self._tel_cpi = True
        self._tel_events = False
        self._tel_queues = False

    def instr_queue_capacity(self, name):
        return 64


def _core(machine, name="CP"):
    return TimingCore(name, CoreConfig(name=name), machine)


def _entry(instr, deps=(0,), issued=False, pending=None):
    """A hand-built window entry.

    ``pending`` mirrors what dispatch-time wakeup registration would have
    computed: by default every dep is an outstanding producer (the blocked
    case); pass ``pending=0`` to model all producers having completed.
    The stall class comes from the decode table, as dispatch copies it.
    """
    entry = WindowEntry(gid=1, pos=1, instr=instr, addr=0,
                        deps=list(deps), min_ready=0, is_prefetch=False)
    entry.block_class = DecodedOp(instr).block_class
    entry.issued = issued
    entry.pending = len(deps) if pending is None else pending
    return entry


class TestAttributeStall:
    """Each `_attribute_stall` branch fires on a hand-built window entry."""

    def test_ldq_empty_on_pop(self):
        core = _core(_StubMachine(complete_at=[None]))
        core._attribute_stall(_entry(Instruction(op=Op.POP_LDQ, rd=5)), now=9)
        assert core.stats.ldq_empty_stalls == 1

    def test_ldq_empty_on_flagged_operand(self):
        instr = Instruction(op=Op.ADD, rd=3, rs1=4, rs2=5,
                            ann=Annotations(ldq_rs1=True))
        core = _core(_StubMachine(complete_at=[None]))
        core._attribute_stall(_entry(instr), now=9)
        assert core.stats.ldq_empty_stalls == 1

    def test_queue_full_on_push(self):
        core = _core(_StubMachine(complete_at=[None]))
        core._attribute_stall(_entry(Instruction(op=Op.PUSH_LDQ, rs1=4)),
                              now=9)
        assert core.stats.queue_full_stalls == 1

    def test_queue_full_on_to_ldq_load(self):
        instr = Instruction(op=Op.LD, rd=3, rs1=4,
                            ann=Annotations(to_ldq=True))
        core = _core(_StubMachine(complete_at=[None]), name="AP")
        core._attribute_stall(_entry(instr), now=9)
        assert core.stats.queue_full_stalls == 1

    def test_sdq_empty_on_data_starved_store(self):
        instr = Instruction(op=Op.SD, rs1=4, rs2=5,
                            ann=Annotations(sdq_data=True))
        core = _core(_StubMachine(complete_at=[None]), name="AP")
        core._attribute_stall(_entry(instr), now=9)
        assert core.stats.sdq_empty_stalls == 1

    def test_no_attribution_when_deps_ready(self):
        core = _core(_StubMachine(complete_at=[3]))
        core._attribute_stall(
            _entry(Instruction(op=Op.POP_LDQ, rd=5), pending=0), now=9)
        assert core.stats.ldq_empty_stalls == 0

    def test_no_attribution_after_issue(self):
        core = _core(_StubMachine(complete_at=[None]))
        core._attribute_stall(
            _entry(Instruction(op=Op.POP_LDQ, rd=5), issued=True), now=9)
        assert core.stats.ldq_empty_stalls == 0


class TestClassifyCycle:
    """Every CPI-stack bucket is reachable and charged exactly once."""

    def _classified(self, core, now=9):
        before = dict(core.cpi)
        core.classify_cycle(now)
        changed = [k for k in core.cpi if core.cpi[k] != before[k]]
        assert len(changed) == 1, changed
        return changed[0]

    def test_base_when_retiring(self):
        core = _core(_StubMachine(complete_at=[None]))
        core._committed_now = 3
        assert self._classified(core) == "base"

    def test_drained_after_fetch(self):
        core = _core(_StubMachine(complete_at=[], fetch_done=True))
        assert self._classified(core) == "drained"

    def test_instr_queue_empty_while_fetching(self):
        core = _core(_StubMachine(complete_at=[]))
        assert self._classified(core) == "instr_queue_empty"

    def test_branch_recovery_when_frontend_waits(self):
        core = _core(_StubMachine(complete_at=[None], waiting_branch=0))
        assert self._classified(core) == "branch_recovery"

    def test_frontend_when_queued_but_not_dispatched(self):
        core = _core(_StubMachine(complete_at=[]))
        core.enqueue(0, 0, min_ready=0)
        assert self._classified(core) == "frontend"

    def test_mem_wait_class_of_issued_head(self):
        core = _core(_StubMachine(complete_at=[None, 50]))
        entry = _entry(Instruction(op=Op.LD, rd=3, rs1=4), issued=True)
        entry.wait_class = "mem_mem"
        core.window.append(entry)
        assert self._classified(core) == "mem_mem"

    def test_execute_for_issued_non_mem_head(self):
        core = _core(_StubMachine(complete_at=[None, 50]))
        core.window.append(
            _entry(Instruction(op=Op.MUL, rd=3, rs1=4, rs2=5), issued=True))
        assert self._classified(core) == "execute"

    def test_data_dep_for_plain_blocked_head(self):
        core = _core(_StubMachine(complete_at=[None]))
        core.window.append(_entry(Instruction(op=Op.ADD, rd=3, rs1=4, rs2=5)))
        assert self._classified(core) == "data_dep"

    def test_lod_buckets_for_blocked_queue_ops(self):
        for instr, bucket in (
            (Instruction(op=Op.POP_LDQ, rd=5), "ldq_empty"),
            (Instruction(op=Op.PUSH_SDQ, rs1=4), "queue_full"),
            (Instruction(op=Op.SD, rs1=4, ann=Annotations(sdq_data=True)),
             "sdq_empty"),
        ):
            core = _core(_StubMachine(complete_at=[None]))
            core.window.append(_entry(instr))
            assert self._classified(core) == bucket

    def test_fu_contention_when_ready_but_unissued(self):
        core = _core(_StubMachine(complete_at=[3]))
        core.window.append(_entry(Instruction(op=Op.ADD, rd=3, rs1=4,
                                              rs2=5), pending=0))
        assert self._classified(core) == "fu_contention"


# ----------------------------------------------------------------------
# The sum property on real compiled benchmarks
# ----------------------------------------------------------------------
def _compile_all_modes(program, config):
    trace, _ = generate_trace(program)
    comp = compile_hidisc(program, config, trace=trace)
    dtrace, _ = generate_decoupled_trace(comp.decoupled)
    qplan = build_queue_plan(comp.decoupled, dtrace)
    cplan_o = build_cmas_plan(comp.original, trace,
                              config.cmas.trigger_distance)
    cplan_d = build_cmas_plan(comp.decoupled, dtrace,
                              config.cmas.trigger_distance)
    return {
        "superscalar": dict(program=comp.original, trace=trace),
        "cp_ap": dict(program=comp.decoupled, trace=dtrace,
                      queue_plan=qplan),
        "cp_cmp": dict(program=comp.original, trace=trace,
                       cmas_plan=cplan_o),
        "hidisc": dict(program=comp.decoupled, trace=dtrace,
                       queue_plan=qplan, cmas_plan=cplan_d),
    }


class TestCpiStackSums:
    """Property: CPI-stack components sum to cycles, every core, every
    model, on two quick benchmarks."""

    @pytest.mark.parametrize("builder", [
        lambda: build_load_compute_store(96),
        lambda: build_store_loop(64),
    ])
    def test_components_sum_to_cycles(self, config, builder):
        program = builder()
        for mode, kw in _compile_all_modes(program, config).items():
            prog = kw.pop("program")
            trace = kw.pop("trace")
            tel = Telemetry(cpi=True)
            result = Machine(config, prog.copy(), trace, mode=mode,
                             telemetry=tel, **kw).run()
            assert result.cpi_stacks, mode
            for core, stack in result.cpi_stacks.items():
                check_stack(stack, result.cycles, core=f"{mode}/{core}")
                assert set(stack) == set(CPI_COMPONENTS)

    def test_sum_holds_with_warmup_window(self, config):
        """Measurement-window reset re-anchors the stacks too."""
        program = build_load_compute_store(96)
        trace, _ = generate_trace(program)
        tel = Telemetry(cpi=True)
        result = Machine(config, program.copy(), trace, mode="superscalar",
                         warmup_pos=len(trace) // 3, telemetry=tel).run()
        assert result.total_cycles > result.cycles > 0
        check_stack(result.cpi_stacks["main"], result.cycles)

    def test_telemetry_does_not_change_timing(self, config):
        program = build_load_compute_store(96)
        trace, _ = generate_trace(program)
        off = Machine(config, program.copy(), trace,
                      mode="superscalar").run()
        sink = MemorySink()
        on = Machine(config, program.copy(), trace, mode="superscalar",
                     telemetry=Telemetry(sink=sink, cpi=True,
                                         sample_interval=32)).run()
        assert on.cycles == off.cycles
        assert on.l1.demand_misses == off.l1.demand_misses
        assert off.cpi_stacks == {} and on.cpi_stacks

    def test_render_cpi_stacks(self, config):
        program = build_load_compute_store(96)
        trace, _ = generate_trace(program)
        result = Machine(config, program.copy(), trace, mode="superscalar",
                         telemetry=Telemetry(cpi=True)).run()
        text = render_cpi_stacks(result.cpi_stacks, result.cycles)
        assert "base" in text and "total" in text and "100.0" in text
        assert render_cpi_stacks({}, 0).startswith("(no CPI data")


# ----------------------------------------------------------------------
# End-to-end event tracing and sampling on a HiDISC machine
# ----------------------------------------------------------------------
class TestEventStream:
    @pytest.fixture(scope="class")
    def traced(self, request):
        config = MachineConfig()
        program = build_load_compute_store(64)
        kw = _compile_all_modes(program, config)["hidisc"]
        sink = MemorySink()
        tel = Telemetry(sink=sink, cpi=True, sample_interval=16)
        result = Machine(config, kw.pop("program"), kw.pop("trace"),
                         mode="hidisc", telemetry=tel, **kw).run()
        return result, sink, tel

    def test_all_three_cores_emit_issue_events(self, traced):
        result, sink, _ = traced
        assert result.cmas_threads_forked > 0
        lanes = {e[1] for e in sink.of_kind("duration")}
        assert {"CP", "AP", "CMP"} <= lanes

    def test_ldq_occupancy_counter_present(self, traced):
        _, sink, _ = traced
        counters = {e[2] for e in sink.of_kind("counter")}
        assert "LDQ" in counters and "SDQ" in counters
        ldq = [e for e in sink.of_kind("counter") if e[2] == "LDQ"]
        assert all(e[4] >= 0 for e in ldq)
        assert max(e[4] for e in ldq) > 0

    def test_cmas_fork_instants(self, traced):
        result, sink, _ = traced
        forks = [e for e in sink.of_kind("instant") if e[2] == "cmas_fork"]
        assert len(forks) == result.cmas_threads_forked

    def test_memory_fill_events(self, traced):
        result, sink, _ = traced
        fills = [e for e in sink.of_kind("duration") if e[1] == "memory"]
        assert fills and all(e[4] > 1 for e in fills)  # dur > L1 latency

    def test_sampler_timeseries(self, traced):
        result, _, tel = traced
        samples = tel.samples
        assert len(samples) > 2
        cycles = [s.cycle for s in samples]
        assert cycles == sorted(cycles)
        assert all({"LDQ", "SDQ", "SAQ"} <= set(s.queues) for s in samples)
        assert {"CP", "AP", "CMP"} <= set(samples[0].cores)
        payload = tel.samplers[-1].as_payload()
        assert payload[0]["queues"].keys() == {"LDQ", "SDQ", "SAQ"}

    def test_sampler_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Sampler(0)


class TestSamplerEdgeCases:
    def test_interval_one_samples_every_visited_cycle(self, config):
        program = build_store_loop(16)
        trace, _ = generate_trace(program)
        tel = Telemetry(cpi=False, sample_interval=1)
        result = Machine(config, program.copy(), trace, mode="superscalar",
                         telemetry=tel).run()
        cycles = [s.cycle for s in tel.samples]
        assert cycles and cycles[0] == 0
        assert cycles == sorted(set(cycles))  # strictly increasing
        assert cycles[-1] < result.total_cycles

    def test_zero_cycle_run_records_nothing(self, config):
        """An empty trace finishes at cycle 0 without tripping the
        sampler (or dividing by zero in the CPI accounting)."""
        program = build_store_loop(16)
        tel = Telemetry(cpi=True, sample_interval=1)
        result = Machine(config, program.copy(), [], mode="superscalar",
                         telemetry=tel).run()
        assert result.cycles == 0
        assert result.committed == {"main": 0}
        assert tel.samples == []
        assert stack_total(result.cpi_stacks["main"]) == 0

    def test_take_sample_on_idle_machine(self, config):
        program = build_store_loop(16)
        tel = Telemetry(cpi=False, sample_interval=1)
        machine = Machine(config, program.copy(), [], mode="superscalar",
                          telemetry=tel)
        sample = take_sample(machine, 0)
        assert sample.cycle == 0
        assert sample.queues == {"LDQ": 0, "SDQ": 0, "SAQ": 0}
        assert sample.cores == {"main": (0, 0)}
        assert sample.as_dict()["outstanding_misses"] == 0


class TestArchQueueSink:
    def test_functional_queue_mirrors_occupancy(self):
        sink = MemorySink()
        q = ArchQueue("LDQ", 4)
        q.attach_sink(sink)
        q.push(1)
        q.push(2)
        q.pop()
        values = [e[4] for e in sink.of_kind("counter")]
        assert values == [1, 2, 1]

    def test_attach_null_sink_is_off(self):
        q = ArchQueue("LDQ", 4)
        q.attach_sink(NullSink())
        q.push(1)  # must not record or fail
        assert q._sink is None


def test_new_stack_and_total():
    stack = new_stack()
    assert set(stack) == set(CPI_COMPONENTS)
    assert stack_total(stack) == 0
    stack["base"] = 3
    with pytest.raises(AssertionError):
        check_stack(stack, 4)
