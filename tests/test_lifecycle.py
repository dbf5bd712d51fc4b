"""Lifecycle-tracing tests: capture correctness, cycle neutrality, the
critical-path decomposition, Konata/Chrome export, and the heartbeat.

The two central properties, asserted on real compiled benchmarks across
all four machine models:

* capture is **complete and well-ordered** — one record per committed
  dynamic instruction, stages monotone
  (fetch <= dispatch <= ready <= issue < complete <= commit), records in
  commit order;
* capture is **cycle-neutral** — a run with a collector attached reports
  exactly the cycle count of a run without one.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.config import MachineConfig
from repro.errors import CycleLimitError
from repro.sim import Machine, generate_trace
from repro.telemetry import (
    LIFECYCLE_COMPONENTS,
    Heartbeat,
    LifecycleCollector,
    Telemetry,
    breakdown_row,
    critical_path_by_pc,
    konata_lines,
    lifecycle_events,
    render_critical_path,
    write_konata,
    write_perfetto,
)

from .conftest import (
    build_load_compute_store,
    build_store_loop,
    read_perfetto_trace,
)
from .test_telemetry import _compile_all_modes


def _run_with_lifecycle(config, program, mode="superscalar", **collector_kw):
    kw = _compile_all_modes(program, config)[mode]
    prog = kw.pop("program")
    trace = kw.pop("trace")
    life = LifecycleCollector(**collector_kw)
    tel = Telemetry(cpi=True, lifecycle=life)
    result = Machine(config, prog.copy(), trace, mode=mode,
                     telemetry=tel, **kw).run()
    return result, life


MODES = ("superscalar", "cp_ap", "cp_cmp", "hidisc")


class TestLifecycleCapture:
    @pytest.mark.parametrize("mode", MODES)
    def test_one_record_per_committed_instruction(self, config, mode):
        program = build_load_compute_store(64)
        result, life = _run_with_lifecycle(config, program, mode)
        assert life.committed == sum(result.committed.values())
        assert life.dropped == 0
        assert len(life.records) == life.committed
        assert not life._inflight  # everything fetched was retired

    @pytest.mark.parametrize("mode", MODES)
    def test_stages_monotone_and_commit_ordered(self, config, mode):
        program = build_load_compute_store(64)
        _, life = _run_with_lifecycle(config, program, mode)
        rows = life.rows()
        assert rows
        for row in rows:
            assert (row["fetch"] <= row["dispatch"] <= row["ready"]
                    <= row["issue"] < row["complete"] <= row["commit"]), row
        commits = [row["commit"] for row in rows]
        assert commits == sorted(commits)

    @pytest.mark.parametrize("mode", MODES)
    def test_capture_is_cycle_neutral(self, config, mode):
        """The collector is a pure observer: cycles and cache behaviour
        are identical with and without it (the sched-parity guarantee)."""
        program = build_load_compute_store(64)
        kw = _compile_all_modes(program, config)[mode]
        prog, trace = kw.pop("program"), kw.pop("trace")
        off = Machine(config, prog.copy(), trace, mode=mode, **kw).run()
        on, _ = _run_with_lifecycle(config, program, mode)
        assert on.cycles == off.cycles
        assert on.l1.demand_misses == off.l1.demand_misses
        assert on.committed == off.committed

    def test_per_core_commit_counts(self, config):
        program = build_load_compute_store(64)
        result, life = _run_with_lifecycle(config, program, "hidisc")
        by_core: dict[str, int] = {}
        for row in life.rows():
            by_core[row["core"]] = by_core.get(row["core"], 0) + 1
        assert by_core == dict(result.committed)

    def test_ring_buffer_caps_and_counts_drops(self, config):
        program = build_load_compute_store(64)
        result, life = _run_with_lifecycle(config, program, "superscalar",
                                           max_records=10)
        total = sum(result.committed.values())
        assert len(life.records) == 10
        assert life.committed == total
        assert life.dropped == total - 10
        # the ring keeps the newest window, still in commit order
        commits = [life.row(r)["commit"] for r in life.records]
        assert commits == sorted(commits)
        assert commits[-1] <= result.total_cycles

    def test_jsonl_streaming(self, config, tmp_path):
        path = tmp_path / "life.jsonl"
        program = build_store_loop(32)
        result, life = _run_with_lifecycle(config, program, "superscalar",
                                           jsonl_path=path)
        summary = life.close()
        rows = [json.loads(line) for line in
                path.read_text().splitlines() if line]
        assert len(rows) == life.committed == summary["streamed"]
        assert rows[0].keys() >= {"gid", "pc", "asm", "fetch", "commit"}
        # the stream is the same data as the ring
        assert rows == life.rows()

    def test_rebind_rejected(self, config):
        program = build_store_loop(32)
        trace, _ = generate_trace(program)
        life = LifecycleCollector()
        tel = Telemetry(cpi=False, lifecycle=life)
        Machine(config, program.copy(), trace, mode="superscalar",
                telemetry=tel).run()
        with pytest.raises(ValueError, match="exactly one run"):
            Machine(config, program.copy(), trace, mode="superscalar",
                    telemetry=tel)

    def test_bad_max_records_rejected(self):
        with pytest.raises(ValueError):
            LifecycleCollector(max_records=0)


class TestCriticalPath:
    def test_breakdown_sums_to_commit_latency(self, config):
        program = build_load_compute_store(64)
        _, life = _run_with_lifecycle(config, program, "hidisc")
        for row in life.rows():
            parts = breakdown_row(row)
            assert set(parts) == set(LIFECYCLE_COMPONENTS)
            assert sum(parts.values()) == row["commit"] - row["fetch"], row

    def test_memory_levels_resolved(self, config):
        program = build_load_compute_store(64)
        _, life = _run_with_lifecycle(config, program, "superscalar")
        levels = {row["mem"] for row in life.rows()}
        assert "" in levels          # non-memory instructions
        assert levels & {"l1", "l2", "mem"}  # and real accesses

    def test_aggregation_by_static_pc(self, config):
        program = build_load_compute_store(64)
        result, life = _run_with_lifecycle(config, program, "hidisc")
        rows = life.rows()
        summary = critical_path_by_pc(rows)
        assert sum(e["count"] for e in summary) == len(rows)
        totals = [e["total"] for e in summary]
        assert totals == sorted(totals, reverse=True)
        for e in summary:
            assert e["total"] == sum(e[c] for c in LIFECYCLE_COMPONENTS)

    def test_render(self, config):
        program = build_store_loop(32)
        _, life = _run_with_lifecycle(config, program, "superscalar")
        text = render_critical_path(critical_path_by_pc(life.rows()),
                                    limit=5)
        assert "total" in text and "ldq" in text
        assert render_critical_path([]).startswith("(no lifecycle")


class TestKonataExport:
    @pytest.fixture(scope="class")
    def rows(self):
        config = MachineConfig()
        program = build_load_compute_store(64)
        _, life = _run_with_lifecycle(config, program, "hidisc")
        return life.rows()

    def test_header_and_grammar(self, rows):
        lines = konata_lines(rows)
        assert lines[0] == "Kanata\t0004"
        assert lines[1].startswith("C=\t")
        commands = {line.split("\t", 1)[0] for line in lines}
        assert commands <= {"Kanata", "C=", "C", "I", "L", "S", "E", "R"}

    def test_cycle_commands_monotone(self, rows):
        cycle = None
        for line in konata_lines(rows):
            parts = line.split("\t")
            if parts[0] == "C=":
                cycle = int(parts[1])
            elif parts[0] == "C":
                assert int(parts[1]) > 0
                cycle += int(parts[1])
        assert cycle is not None

    def test_stage_sequence_per_instruction_monotone(self, rows):
        """Replaying the log, every uid's S/E events are properly nested
        per lane and non-decreasing in cycle, and R lands at commit."""
        opened: dict[tuple[int, str], int] = {}
        retired: dict[int, int] = {}
        cycle = 0
        for line in konata_lines(rows):
            parts = line.split("\t")
            cmd = parts[0]
            if cmd in ("C=", "C"):
                cycle = (int(parts[1]) if cmd == "C="
                         else cycle + int(parts[1]))
            elif cmd == "S":
                key = (int(parts[1]), parts[3])
                assert key not in opened, f"stage {key} reopened"
                opened[key] = cycle
            elif cmd == "E":
                key = (int(parts[1]), parts[3])
                assert opened.pop(key) <= cycle
            elif cmd == "R":
                retired[int(parts[1])] = cycle
        assert not opened, "unclosed stages"
        assert len(retired) == len(rows)
        for uid, row in enumerate(rows):
            assert retired[uid] == row["commit"]
        # retire ids follow commit order
        order = [uid for uid, _ in sorted(retired.items(),
                                          key=lambda kv: (kv[1], kv[0]))]
        assert order == sorted(order)

    def test_labels_carry_disassembly(self, rows):
        lines = konata_lines(rows[:5])
        labels = [l for l in lines if l.startswith("L\t")]
        assert any(": " in l for l in labels)      # "pc: asm" type-0 label
        assert any("core=" in l for l in labels)   # type-1 detail label

    def test_write_konata_roundtrip(self, rows, tmp_path):
        path = tmp_path / "out.kanata"
        count = write_konata(rows, path)
        assert count == len(rows)
        text = path.read_text()
        assert text.startswith("Kanata\t0004\n")
        assert text.endswith("\n")


class TestChromeLifecycleExport:
    def test_per_instruction_spans(self, config, tmp_path):
        program = build_store_loop(32)
        _, life = _run_with_lifecycle(config, program, "superscalar")
        rows = life.rows()
        path = tmp_path / "spans.json"
        emitted = write_perfetto(lifecycle_events(rows), path)
        assert emitted == len(rows)
        events, lanes = read_perfetto_trace(path)
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(rows)
        first = spans[0]["args"]
        assert {"gid", "fetch", "commit", "breakdown"} <= first.keys()
        assert all(v for v in first["breakdown"].values())
        threads = {e["args"]["name"] for e in events
                   if e["name"] == "thread_name"}
        assert lanes == {0: "hidisc-sim"} and threads == {"main pipeline"}


class TestHeartbeat:
    def test_emits_status_lines(self, config):
        program = build_load_compute_store(64)
        trace, _ = generate_trace(program)
        stream = io.StringIO()
        hb = Heartbeat(interval=50, stream=stream)
        tel = Telemetry(cpi=False, heartbeat=hb)
        result = Machine(config, program.copy(), trace, mode="superscalar",
                         telemetry=tel).run()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert hb.emitted == len(lines) > 0
        assert all(l.startswith("[hb] cycle=") for l in lines)
        assert "ipc=" in lines[-1] and "ldq=" in lines[-1]
        assert "host_cps=" in lines[-1]
        cycles = [int(l.split("cycle=")[1].split()[0]) for l in lines]
        assert cycles == sorted(cycles)
        assert cycles[-1] <= result.total_cycles

    def test_heartbeat_is_cycle_neutral(self, config):
        program = build_load_compute_store(64)
        trace, _ = generate_trace(program)
        off = Machine(config, program.copy(), trace,
                      mode="superscalar").run()
        hb = Heartbeat(interval=25, stream=io.StringIO())
        on = Machine(config, program.copy(), trace, mode="superscalar",
                     telemetry=Telemetry(cpi=False, heartbeat=hb)).run()
        assert on.cycles == off.cycles

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Heartbeat(0)

    def test_live_autodetect_is_off_for_test_streams(self):
        assert Heartbeat(5, stream=io.StringIO())._line.live is False

    def test_live_mode_rewrites_in_place_and_clears_on_finish(self, config):
        program = build_load_compute_store(64)
        trace, _ = generate_trace(program)
        stream = io.StringIO()
        hb = Heartbeat(interval=50, stream=stream, live=True)
        tel = Telemetry(cpi=False, heartbeat=hb)
        Machine(config, program.copy(), trace, mode="superscalar",
                telemetry=tel).run()
        text = stream.getvalue()
        assert hb.emitted > 0
        assert "\n" not in text, "live mode stays on one line"
        assert text.count("\r") >= hb.emitted
        # the run loop called finish(): the line is wiped and closed
        assert hb._line._open_width == 0
        assert text.endswith("\r")
        tail = text.rsplit("\r", 2)[-2]
        assert tail.strip() == "", "finish() blanks the status line"

    def test_live_line_cleared_on_exception(self, config):
        program = build_load_compute_store(64)
        trace, _ = generate_trace(program)
        limited = dataclasses.replace(config, max_cycles=60)
        stream = io.StringIO()
        hb = Heartbeat(interval=10, stream=stream, live=True)
        tel = Telemetry(cpi=False, heartbeat=hb)
        with pytest.raises(CycleLimitError):
            Machine(limited, program.copy(), trace, mode="superscalar",
                    telemetry=tel).run()
        assert hb.emitted > 0
        assert hb._line._open_width == 0, \
            "an aborted run must not leave a torn \\r line"
        assert stream.getvalue().endswith("\r")

    def test_finish_is_idempotent_and_noop_when_closed(self):
        stream = io.StringIO()
        hb = Heartbeat(interval=5, stream=stream, live=True)
        hb.finish()
        assert stream.getvalue() == ""
        hb._line._open_width = 4
        hb.finish()
        hb.finish()
        assert stream.getvalue() == "\r    \r"

    def test_telemetry_close_finishes_heartbeat(self):
        stream = io.StringIO()
        hb = Heartbeat(interval=5, stream=stream, live=True)
        hb._line._open_width = 3
        Telemetry(cpi=False, heartbeat=hb).close()
        assert hb._line._open_width == 0
        assert stream.getvalue() == "\r   \r"

    def test_non_tty_stream_never_sees_carriage_returns(self, config):
        """CI logs / pipes / the service's captured worker stderr must get
        plain newline-terminated lines — no ``\\r`` control sequences."""
        program = build_load_compute_store(64)
        trace, _ = generate_trace(program)
        stream = io.StringIO()
        hb = Heartbeat(interval=25, stream=stream)  # autodetects non-TTY
        Machine(config, program.copy(), trace, mode="superscalar",
                telemetry=Telemetry(cpi=False, heartbeat=hb)).run()
        text = stream.getvalue()
        assert hb.emitted > 0
        assert "\r" not in text
        assert text.endswith("\n")

    def test_snapshot_shares_the_status_line_schema(self, config):
        """snapshot() measures the fields the rendered line prints, under
        the same names, and must neither write nor reschedule."""
        program = build_load_compute_store(64)
        trace, _ = generate_trace(program)
        stream = io.StringIO()
        hb = Heartbeat(interval=50, stream=stream)
        machine = Machine(config, program.copy(), trace, mode="superscalar",
                          telemetry=Telemetry(cpi=False, heartbeat=hb))
        result = machine.run()
        before = (hb.next_at, hb.emitted, stream.getvalue())
        snap = hb.snapshot(machine, result.total_cycles)
        assert set(snap) == {"cycle", "ipc", "ldq", "sdq", "saq", "host_cps"}
        assert snap["cycle"] == result.total_cycles
        assert snap["ipc"] > 0
        assert all(snap[q] >= 0 for q in ("ldq", "sdq", "saq"))
        json.dumps(snap)  # JSON-ready for event streams
        assert (hb.next_at, hb.emitted, stream.getvalue()) == before, \
            "snapshot must not advance the schedule or write to the stream"
