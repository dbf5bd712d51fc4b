"""Graceful SIGINT/SIGTERM handling (repro.experiments.interrupt).

Unit tests drive :class:`GracefulInterrupt` with real signals delivered
to this process; the integration tests check the consumers: a
``run_suite`` loop that stops at a cell boundary and resumes without
recomputation, a worker pool that finishes its running tasks before it
stops, and the CLI contract — SIGINT → exit 130 + a ledger record with
``outcome: "interrupted"`` → ``--resume`` finishes the run.
"""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.config import MachineConfig
from repro.errors import InterruptedRun
from repro.experiments import GracefulInterrupt, RunCache, RunLedger, Task, \
    run_suite, run_tasks
from repro.experiments import interrupt as interrupt_mod
from repro.experiments.ledger import ledger_path
from repro.experiments.parallel import resolve_jobs
from repro.telemetry import diff_payloads
from repro.workloads import get_workload

SRC = str(Path(repro.__file__).resolve().parents[1])


def wait_until(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def _sleep_then(seconds: float, value):
    time.sleep(seconds)
    return value


class TestGracefulInterrupt:
    def test_first_signal_defers_to_poll(self):
        stream = io.StringIO()
        with GracefulInterrupt(stream=stream) as gi:
            assert gi.triggered is None
            gi.poll()  # nothing seen yet: no-op
            interrupt_mod.poll()
            os.kill(os.getpid(), signal.SIGINT)
            wait_until(lambda: gi.triggered is not None, 5.0,
                       "the handler to see SIGINT")
            assert gi.triggered == "SIGINT"
            with pytest.raises(InterruptedRun, match="SIGINT"):
                gi.poll()
            # Library loops use the module-level poll unconditionally.
            with pytest.raises(InterruptedRun):
                interrupt_mod.poll()
        assert "finishing the in-flight cell" in stream.getvalue()

    def test_sigterm_is_also_graceful(self):
        with GracefulInterrupt(stream=io.StringIO()) as gi:
            os.kill(os.getpid(), signal.SIGTERM)
            wait_until(lambda: gi.triggered is not None, 5.0,
                       "the handler to see SIGTERM")
            assert gi.triggered == "SIGTERM"
            with pytest.raises(InterruptedRun, match="SIGTERM"):
                interrupt_mod.poll()

    def test_second_signal_aborts_hard(self):
        with GracefulInterrupt(stream=io.StringIO()) as gi:
            os.kill(os.getpid(), signal.SIGINT)
            wait_until(lambda: gi.triggered is not None, 5.0, "first SIGINT")
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(5)

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulInterrupt(stream=io.StringIO()):
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before
        assert interrupt_mod.current() is None
        interrupt_mod.poll()  # no active context: no-op

    def test_disabled_context_is_inert(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulInterrupt(enabled=False) as gi:
            assert signal.getsignal(signal.SIGINT) == before
            assert interrupt_mod.current() is None
            gi.poll()

    def test_non_main_thread_is_inert(self):
        """Worker threads (parallel pools, HTTP handlers) must be able to
        enter the context without touching process signal disposition."""
        observed = {}

        def enter():
            with GracefulInterrupt(stream=io.StringIO()) as gi:
                observed["installed"] = gi._installed
                gi.poll()
                interrupt_mod.poll()

        thread = threading.Thread(target=enter)
        thread.start()
        thread.join()
        assert observed["installed"] is False


class TestSuiteInterrupt:
    def test_run_suite_stops_at_cell_boundary_and_resumes(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        seen = []
        with GracefulInterrupt(stream=io.StringIO()) as gi:
            def interrupt_after_first_cell(benchmark, mode, resumed):
                seen.append((benchmark, mode, resumed))
                gi.triggered = "SIGTERM"  # as if the signal landed mid-cell

            # jobs=1: one cell in flight at a time
            with pytest.raises(InterruptedRun):
                run_suite(MachineConfig(), quick=True, seed=2003,
                          modes=("superscalar", "hidisc"),
                          workloads=[get_workload("pointer", quick=True,
                                                  seed=2003)],
                          jobs=1, cache=cache, resume=True,
                          on_cell=interrupt_after_first_cell)
        assert seen == [("pointer", "superscalar", False)], \
            "exactly the in-flight cell finishes before the stop"

        suite = run_suite(MachineConfig(), quick=True, seed=2003,
                          modes=("superscalar", "hidisc"),
                          workloads=[get_workload("pointer", quick=True,
                                                  seed=2003)],
                          cache=cache, resume=True,
                          on_cell=lambda *cell: seen.append(cell))
        assert seen[1] == ("pointer", "superscalar", True), \
            "the interrupted run's finished cell must resume from checkpoint"
        assert seen[2] == ("pointer", "hidisc", False)

        reference = run_suite(MachineConfig(), quick=True, seed=2003,
                              modes=("superscalar", "hidisc"),
                              workloads=[get_workload("pointer", quick=True,
                                                      seed=2003)],
                              cache=RunCache(tmp_path / "fresh"))
        report = diff_payloads(suite.to_payload(), reference.to_payload())
        assert report["identical"], report

    def test_pool_stop_delivers_running_tasks_and_cancels_the_rest(self):
        """At jobs=2 a stop seen when the first task lands still delivers
        (checkpoints) the task running beside it, cancels the tasks that
        have not started and then raises."""
        tasks = ([Task("fast", _sleep_then, (0.0, 0)),
                  Task("slow", _sleep_then, (1.0, 1))]
                 + [Task(f"t{i}", _sleep_then, (0.3, i))
                    for i in range(2, 12)])
        landed = []
        with GracefulInterrupt(stream=io.StringIO()) as gi:
            def stop_at_first_landing(index, result):
                landed.append(index)
                gi.triggered = "SIGTERM"

            with pytest.raises(InterruptedRun):
                run_tasks(tasks, jobs=2, on_result=stop_at_first_landing)
        assert landed[0] == 0 and 1 in landed, landed
        assert len(landed) < len(tasks), "unstarted tasks must be cancelled"


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _interrupt_cli_suite(jobs_args: list[str], ready, group: bool):
    """Start ``hidisc suite --quick`` with *jobs_args*, wait for a stderr
    line satisfying *ready*, then send SIGINT to the process (or, as a
    terminal's Ctrl-C does, to its whole process group).  Returns the
    exit code and every stderr line, read until every process holding
    stderr has exited."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "suite", "--quick",
         *jobs_args],
        env=_cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    lines: list[str] = []

    def tail():
        for line in proc.stderr:
            lines.append(line)

    reader = threading.Thread(target=tail, daemon=True)
    reader.start()
    try:
        wait_until(lambda: any(ready(l) for l in lines), 120.0,
                   "the suite to reach the interrupt point")
        if group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    reader.join(timeout=30)
    assert not reader.is_alive(), "a worker outlived the suite process"
    return code, lines


@pytest.mark.slow
class TestCliInterrupt:
    def test_sigint_exits_130_records_interrupted_and_resumes(self):
        ledger = RunLedger(ledger_path(os.environ["HIDISC_CACHE_DIR"]))
        # One full workload (all its cells checkpointed) prints a
        # "baseline ... cycles" summary — interrupt after that so the
        # resume provably has cells to pick up.  Only serial runs print
        # it per workload (a pool's one batch prints them at the end).
        code, lines = _interrupt_cli_suite(
            ["--jobs", "1"], lambda line: "baseline" in line, group=False)
        assert code == 130, "".join(lines)
        assert any("finishing the in-flight cell" in l for l in lines)

        interrupted = ledger.entries()[-1]
        assert interrupted["command"] == "suite"
        assert interrupted["outcome"] == "interrupted"
        assert interrupted["exit_code"] == 130
        assert interrupted["jobs"] == 1
        assert interrupted["cells"] >= 4, \
            "the finished workload's cells must be on record"
        self._resume_reuses_checkpoints(ledger, at_least=4)

    def test_group_sigint_at_default_jobs_prints_one_notice(self):
        """Ctrl-C signals the pool workers too: only the parent speaks,
        it stops after its running cells and the resume reuses them."""
        ledger = RunLedger(ledger_path(os.environ["HIDISC_CACHE_DIR"]))
        code, lines = _interrupt_cli_suite(
            [], lambda line: "/" in line and line.rstrip().endswith(": done"),
            group=True)
        assert code == 130, "".join(lines)
        notices = [l for l in lines if "finishing the in-flight cell" in l]
        assert len(notices) == 1, "".join(lines)

        interrupted = ledger.entries()[-1]
        assert interrupted["outcome"] == "interrupted"
        assert interrupted["jobs"] == resolve_jobs(0)
        assert interrupted["cells"] >= 1
        self._resume_reuses_checkpoints(ledger, at_least=1)

    @staticmethod
    def _resume_reuses_checkpoints(ledger: RunLedger, at_least: int):
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "suite",
             "--quick", "--resume", "--no-progress"],
            env=_cli_env(), capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        final = ledger.entries()[-1]
        assert final["outcome"] == "ok"
        assert final["jobs"] == resolve_jobs(0)
        resumed = final["metrics"]["counters"].get("cells_resumed", 0)
        assert resumed >= at_least, \
            "the resumed run must reuse the interrupted run's checkpoints"
