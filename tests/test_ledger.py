"""Run-ledger tests (repro.experiments.ledger) plus the ``hidisc runs``
CLI and the ``--orch-trace`` export path."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import MachineConfig
from repro.experiments.cli import main
from repro.experiments.ledger import (
    RunLedger,
    build_record,
    ledger_path,
    new_run_id,
    render_regressions,
    render_run_report,
    render_runs_list,
)
from repro.store import locked_append
from repro.telemetry import metrics, spans

from .conftest import read_perfetto_trace

_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _clean_observability():
    metrics.reset()
    yield
    metrics.reset()


def _record(run_id=None, command="suite", elapsed=2.0, outcome="ok",
            counters=None, jobs=None):
    reg = metrics.MetricsRegistry()
    for name, value in (counters or {}).items():
        reg.inc(name, value)
    return build_record(
        run_id=run_id or new_run_id(), command=command,
        argv=[command, "--quick"], outcome=outcome, exit_code=0,
        elapsed_seconds=elapsed, config=MachineConfig(),
        metrics_snapshot=reg.snapshot(),
        extra={"jobs": jobs} if jobs is not None else None,
    )


class TestRunLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        ledger = RunLedger(ledger_path(tmp_path))
        record = _record(counters={"cells_completed": 28, "cache_hits": 7,
                                   "cache_misses": 1})
        assert ledger.append(record)
        entries = ledger.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["run_id"] == record["run_id"]
        assert entry["cells"] == 28
        assert entry["cells_per_second"] == 14.0
        assert entry["version"] and entry["config"]

    def test_corrupt_lines_are_skipped(self, tmp_path):
        ledger = RunLedger(ledger_path(tmp_path))
        ledger.append(_record())
        with ledger.path.open("a") as fh:
            fh.write("{torn json\n")
            fh.write('"not a dict"\n')
            fh.write('{"no_run_id": true}\n')
        ledger.append(_record())
        assert len(ledger.entries()) == 2

    def test_undecodable_line_is_skipped(self, tmp_path):
        """A torn line cut inside a multi-byte UTF-8 sequence must not
        crash ``hidisc runs``: the valid records before it still load."""
        ledger = RunLedger(ledger_path(tmp_path))
        ledger.append(_record(run_id="first"))
        ledger.append(_record(run_id="second"))
        with ledger.path.open("ab") as fh:  # crash mid-append
            fh.write(b'{"run_id": "x\xe2\x82')
        assert [e["run_id"] for e in ledger.entries()] == ["first", "second"]

    def test_unwritable_path_degrades(self):
        ledger = RunLedger("/proc/definitely/not/writable/ledger.jsonl")
        assert ledger.append(_record()) is False
        assert ledger.entries() == []

    def test_find_by_prefix_prefers_newest(self, tmp_path):
        ledger = RunLedger(ledger_path(tmp_path))
        first = _record(run_id="aaa111-1")
        second = _record(run_id="aaa222-1")
        ledger.append(first)
        ledger.append(second)
        assert ledger.find("aaa222")["run_id"] == "aaa222-1"
        assert ledger.find("aaa")["run_id"] == "aaa222-1"
        assert ledger.find("zzz") is None

    def test_baseline_is_previous_same_command(self, tmp_path):
        ledger = RunLedger(ledger_path(tmp_path))
        old_suite = _record(run_id="r1", command="suite")
        other_cmd = _record(run_id="r2", command="stats")
        new_suite = _record(run_id="r3", command="suite")
        for record in (old_suite, other_cmd, new_suite):
            ledger.append(record)
        assert ledger.baseline_for(new_suite)["run_id"] == "r1"
        assert ledger.baseline_for(old_suite) is None

    def test_baseline_runs_on_the_same_number_of_workers(self, tmp_path):
        """A serial run is never scored against a pooled one; a record
        without ``jobs`` matches only another without it."""
        ledger = RunLedger(ledger_path(tmp_path))
        pooled = _record(run_id="r1", jobs=2)
        serial = _record(run_id="r2", jobs=1)
        bare = _record(run_id="r3")
        pooled_again = _record(run_id="r4", jobs=2)
        serial_again = _record(run_id="r5", jobs=1)
        bare_again = _record(run_id="r6")
        for record in (pooled, serial, bare, pooled_again, serial_again,
                       bare_again):
            ledger.append(record)
        assert ledger.baseline_for(pooled_again)["run_id"] == "r1"
        assert ledger.baseline_for(serial_again)["run_id"] == "r2"
        assert ledger.baseline_for(bare_again)["run_id"] == "r3"
        assert ledger.baseline_for(serial) is None
        assert ledger.baseline_for(bare) is None

    def test_entries_limit_keeps_newest(self, tmp_path):
        ledger = RunLedger(ledger_path(tmp_path))
        for i in range(5):
            ledger.append(_record(run_id=f"r{i}"))
        assert [e["run_id"] for e in ledger.entries(limit=2)] == \
            ["r3", "r4"]


class TestLockedAppend:
    def test_appends_newline_terminated_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert locked_append(path, "one")
        assert locked_append(path, "two\n")  # trailing newline normalized
        assert path.read_text() == "one\ntwo\n"

    def test_unwritable_path_raises(self):
        """The append raises; best-effort callers (the ledger, event and
        span streams) decide to swallow it."""
        with pytest.raises(OSError):
            locked_append("/proc/definitely/not/writable/x.jsonl", "line")

    def test_concurrent_multiprocess_appends_stay_untorn(self, tmp_path):
        """N processes x M appends under flock: every line must land
        intact and exactly once — the guarantee service workers and
        parallel CLI invocations rely on when they share one ledger."""
        path = tmp_path / "ledger.jsonl"
        writers, per_writer = 4, 50
        script = (
            "import json, sys\n"
            "from repro.store import locked_append\n"
            "path, tag = sys.argv[1], sys.argv[2]\n"
            "for i in range(int(sys.argv[3])):\n"
            "    line = json.dumps({'tag': tag, 'i': i, 'pad': 'x' * 256})\n"
            "    assert locked_append(path, line)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), f"p{n}",
                 str(per_writer)], env=env)
            for n in range(writers)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == writers * per_writer
        counts: dict[str, set[int]] = {}
        for line in lines:
            event = json.loads(line)  # no torn/interleaved writes
            assert event["pad"] == "x" * 256
            counts.setdefault(event["tag"], set()).add(event["i"])
        assert counts == {f"p{n}": set(range(per_writer))
                          for n in range(writers)}


class TestRenders:
    def test_list_render(self):
        text = render_runs_list([_record(counters={"cache_hits": 3,
                                                   "cache_misses": 1})])
        assert "run id" in text and "suite" in text and "75%" in text
        assert "ledger is empty" in render_runs_list([])

    def test_report_render(self):
        record = _record(counters={"cells_completed": 4})
        record["spans"] = {"count": 2,
                           "by_category": {"pool": {"count": 2, "ms": 1.5}},
                           "slowest": [{"name": "run_tasks", "cat": "pool",
                                        "ms": 1.5}]}
        text = render_run_report(record)
        assert "cells_completed" in text and "pool" in text
        assert "slowest spans" in text and "run_tasks" in text

    def test_regression_render_flags_slowdown(self):
        baseline = _record(run_id="base", elapsed=2.0,
                           counters={"cache_hits": 4})
        slow = _record(run_id="slow", elapsed=4.0,
                       counters={"cache_misses": 4, "pool_retries": 2})
        text = render_regressions(slow, baseline)
        assert "REGRESSIONS" in text
        assert "over baseline" in text and "pool_retries increased" in text

    def test_regression_render_prints_both_worker_counts(self):
        text = render_regressions(_record(run_id="cur", jobs=2),
                                  _record(run_id="base", jobs=2))
        assert re.search(r"^  jobs\s+2\s+vs\s+2$", text, re.M), text
        text = render_regressions(_record(run_id="cur"),
                                  _record(run_id="base"))
        assert re.search(r"^  jobs\s+-\s+vs\s+-$", text, re.M), text

    def test_list_render_shows_worker_counts(self):
        text = render_runs_list([_record(run_id="pooled", jobs=2),
                                 _record(run_id="bare")])
        header, _, pooled, bare = text.splitlines()
        column = header.index("jobs") + len("jobs")
        assert pooled[column - 1] == "2" and bare[column - 1] == "-"

    def test_regression_render_clean(self):
        baseline = _record(run_id="base", elapsed=2.0)
        same = _record(run_id="same", elapsed=2.1)
        assert "no regressions" in render_regressions(same, baseline)


class TestRunsCli:
    @staticmethod
    def _stats_argv(cache_dir, extra=()):
        return ["stats", "--quick", "--no-progress", "--bench", "field",
                "--model", "superscalar", "--cache-dir", str(cache_dir),
                *extra]

    def test_every_run_appends_one_entry(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(self._stats_argv(cache_dir)) == 0
        assert main(self._stats_argv(cache_dir)) == 0
        capsys.readouterr()
        entries = RunLedger(ledger_path(cache_dir)).entries()
        assert len(entries) == 2
        assert all(e["command"] == "stats" for e in entries)
        # second run compiled through the warm cache
        assert entries[1]["metrics"]["counters"]["cache_hits"] == 1

    def test_runs_list_show_report(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(self._stats_argv(cache_dir)) == 0
        assert main(self._stats_argv(cache_dir)) == 0
        capsys.readouterr()

        assert main(["runs", "list", "--cache-dir", str(cache_dir)]) == 0
        listing = capsys.readouterr().out
        assert "stats" in listing and "run id" in listing

        assert main(["runs", "show", "--cache-dir", str(cache_dir)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["command"] == "stats" and shown["exit_code"] == 0

        assert main(["runs", "report", "--cache-dir", str(cache_dir)]) == 0
        report = capsys.readouterr().out
        assert "hidisc stats" in report
        assert "vs run" in report, "second run must compare to the first"

        # a run-id prefix selects a specific entry
        run_id = shown["run_id"][:8]
        assert main(["runs", "show", run_id,
                     "--cache-dir", str(cache_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == \
            shown["run_id"]

    def test_runs_on_empty_ledger(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["runs", "list", "--cache-dir", str(cache_dir)]) == 0
        assert "ledger is empty" in capsys.readouterr().out
        assert main(["runs", "report", "--cache-dir", str(cache_dir)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_unknown_run_id(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(self._stats_argv(cache_dir)) == 0
        capsys.readouterr()
        assert main(["runs", "show", "zzzz",
                     "--cache-dir", str(cache_dir)]) == 2
        assert "no ledger entry" in capsys.readouterr().err

    def test_runs_action_validated(self):
        with pytest.raises(SystemExit):
            main(["runs", "frobnicate"])
        with pytest.raises(SystemExit):
            main(["runs", "list", "someid"])

    def test_no_cache_skips_ledger(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(self._stats_argv(cache_dir, ["--no-cache"])) == 0
        capsys.readouterr()
        assert RunLedger(ledger_path(cache_dir)).entries() == []

    def test_orch_trace_export(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        trace_path = tmp_path / "orch.json"
        assert main(self._stats_argv(
            cache_dir, ["--orch-trace", str(trace_path)])) == 0
        capsys.readouterr()
        assert spans.current() is None, "the run's tracer is uninstalled"

        events, _ = read_perfetto_trace(trace_path)
        names = {e["name"] for e in events}
        assert {"prepare", "run_model", "cache_store"} <= names

        # the traced run's ledger entry carries the span summary
        entry = RunLedger(ledger_path(cache_dir)).entries()[-1]
        assert entry["spans"]["count"] == len(events) - \
            sum(1 for e in events if e["ph"] == "M")
