"""Crash-resumable suites and retry-with-backoff
(repro.experiments.checkpoint / .parallel / .suite).

The contract: an interrupted suite resumed with ``--resume`` replays only
the missing grid cells and produces a payload byte-identical to an
uninterrupted run modulo ``elapsed_seconds``; transient worker failures
retry with backoff while deterministic task errors fail fast.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.config import MachineConfig
from repro.errors import ConfigError, SimulationError
from repro.experiments import (
    MODEL_ORDER,
    RunCache,
    SuiteCheckpoint,
    Task,
    run_suite,
    run_tasks,
    suite_key,
)
from repro.experiments.ledger import RunLedger, ledger_path
from repro.workloads import FieldWorkload, get_workload


def small_workloads(seed: int = 2003):
    return [
        FieldWorkload(n=500, seed=seed),
        get_workload("transitive", quick=True, seed=seed),
    ]


def payload_json(suite) -> str:
    payload = suite.to_payload()
    payload.pop("elapsed_seconds")
    return json.dumps(payload, sort_keys=True)


def _count_run_models(monkeypatch):
    """Patch the suite's serial run_model with a counting wrapper."""
    import repro.experiments.suite as suite_mod

    calls = []
    real = suite_mod.run_model

    def counting(cw, config, mode, **kwargs):
        calls.append((cw.name, mode))
        return real(cw, config, mode, **kwargs)

    monkeypatch.setattr(suite_mod, "run_model", counting)
    return calls


# ----------------------------------------------------------------------
# Suite keys and the checkpoint store.

class TestSuiteKey:
    def test_deterministic(self, config):
        assert suite_key(config, small_workloads(), MODEL_ORDER) == \
            suite_key(config, small_workloads(), MODEL_ORDER)

    def test_config_changes_key(self, config):
        assert suite_key(config, small_workloads(), MODEL_ORDER) != \
            suite_key(config.with_latency(4, 40), small_workloads(),
                      MODEL_ORDER)

    def test_modes_and_workloads_change_key(self, config):
        base = suite_key(config, small_workloads(), MODEL_ORDER)
        assert base != suite_key(config, small_workloads(),
                                 ("superscalar",))
        assert base != suite_key(config, small_workloads(seed=7),
                                 MODEL_ORDER)

    def test_version_changes_key(self, config, monkeypatch):
        """The key follows the simulator's source digest, not the package
        version string."""
        import repro
        from repro.experiments import cache as cache_mod

        before = suite_key(config, small_workloads(), MODEL_ORDER)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert suite_key(config, small_workloads(), MODEL_ORDER) == before
        monkeypatch.setattr(cache_mod, "_code_digest", "0" * 64)
        assert suite_key(config, small_workloads(), MODEL_ORDER) != before


class TestSuiteCheckpoint:
    def test_store_load_roundtrip(self, config, tmp_path):
        from repro.experiments import prepare
        from repro.experiments.runner import run_model

        cw = prepare(FieldWorkload(n=500), config)
        result = run_model(cw, config, "superscalar")
        ckpt = SuiteCheckpoint(tmp_path / "ck")
        ckpt.store("field", "superscalar", result)
        assert ckpt.stores == 1
        assert len(ckpt.cells()) == 1
        loaded = SuiteCheckpoint(tmp_path / "ck").load("field", "superscalar")
        assert loaded is not None
        assert loaded.cycles == result.cycles

    def test_missing_cell_loads_none(self, tmp_path):
        ckpt = SuiteCheckpoint(tmp_path / "ck")
        assert ckpt.load("field", "hidisc") is None

    def test_corrupt_cell_deleted_and_missing(self, tmp_path):
        ckpt = SuiteCheckpoint(tmp_path / "ck")
        ckpt.root.mkdir(parents=True)
        path = ckpt.cell_path("field", "hidisc")
        path.write_bytes(b"\x80garbage not a pickle")
        assert ckpt.load("field", "hidisc") is None
        assert ckpt.corrupt == 1
        assert not path.exists(), "corrupt cells must be evicted"

    def test_truncated_cell_detected_and_evicted(self, config, tmp_path):
        """A half-written pickle (crash/SIGKILL mid-``pickle.dump``) must
        load as None and be evicted, exactly like garbage bytes."""
        from repro.experiments import prepare
        from repro.experiments.runner import run_model

        cw = prepare(FieldWorkload(n=500), config)
        result = run_model(cw, config, "superscalar")
        ckpt = SuiteCheckpoint(tmp_path / "ck")
        ckpt.store("field", "superscalar", result)
        path = ckpt.cell_path("field", "superscalar")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        fresh = SuiteCheckpoint(tmp_path / "ck")
        assert fresh.load("field", "superscalar") is None
        assert fresh.corrupt == 1
        assert not path.exists(), "truncated cells must be evicted"

    def test_mislabeled_cell_rejected(self, config, tmp_path):
        """A cell whose payload names a different benchmark (e.g. a renamed
        file) is evicted, not returned."""
        from repro.experiments import prepare
        from repro.experiments.runner import run_model

        cw = prepare(FieldWorkload(n=500), config)
        result = run_model(cw, config, "superscalar")
        ckpt = SuiteCheckpoint(tmp_path / "ck")
        ckpt.store("field", "superscalar", result)
        ckpt.cell_path("field", "superscalar").rename(
            ckpt.cell_path("pointer", "superscalar"))
        assert ckpt.load("pointer", "superscalar") is None
        assert ckpt.corrupt == 1

    def test_unwritable_root_degrades_to_noop(self):
        ckpt = SuiteCheckpoint("/proc/definitely/not/writable")
        ckpt.store("field", "hidisc", object())
        assert ckpt.stores == 0

    def test_clear_removes_cells(self, config, tmp_path):
        from repro.experiments import prepare
        from repro.experiments.runner import run_model

        cw = prepare(FieldWorkload(n=500), config)
        ckpt = SuiteCheckpoint(tmp_path / "ck")
        for mode in ("superscalar", "hidisc"):
            ckpt.store("field", mode, run_model(cw, config, mode))
        assert ckpt.clear() == 2
        assert ckpt.cells() == []


# ----------------------------------------------------------------------
# Resumable suites.

class TestSuiteResume:
    def test_resume_without_cache_is_a_config_error(self, config):
        with pytest.raises(ConfigError, match="resume"):
            run_suite(config, quick=True, workloads=small_workloads(),
                      resume=True, cache=None)

    def test_cells_checkpoint_as_they_complete(self, config, tmp_path):
        cache = RunCache(tmp_path)
        run_suite(config, quick=True, workloads=small_workloads(),
                  cache=cache)
        ckpt = SuiteCheckpoint.for_suite(cache, config, small_workloads(),
                                         MODEL_ORDER)
        assert len(ckpt.cells()) == len(small_workloads()) * len(MODEL_ORDER)

    def test_full_resume_simulates_nothing(self, config, tmp_path,
                                           monkeypatch):
        cache = RunCache(tmp_path)
        first = run_suite(config, quick=True, workloads=small_workloads(),
                          cache=cache)
        calls = _count_run_models(monkeypatch)
        resumed = run_suite(config, quick=True, workloads=small_workloads(),
                            cache=RunCache(tmp_path), resume=True)
        assert calls == [], "a complete checkpoint must replay every cell"
        assert payload_json(resumed) == payload_json(first)

    def test_partial_resume_computes_only_missing(self, config, tmp_path,
                                                  monkeypatch):
        cache = RunCache(tmp_path)
        first = run_suite(config, quick=True, workloads=small_workloads(),
                          cache=cache)
        # Simulate a crash that lost the last benchmark's hidisc cells.
        ckpt = SuiteCheckpoint.for_suite(cache, config, small_workloads(),
                                         MODEL_ORDER)
        ckpt.cell_path("field", "hidisc").unlink()
        ckpt.cell_path("transitive", "cp_ap").unlink()
        calls = _count_run_models(monkeypatch)
        resumed = run_suite(config, quick=True, workloads=small_workloads(),
                            cache=RunCache(tmp_path), resume=True)
        assert sorted(calls) == [("field", "hidisc"),
                                 ("transitive", "cp_ap")]
        assert payload_json(resumed) == payload_json(first)

    def test_resume_recovers_from_corrupt_cell(self, config, tmp_path):
        cache = RunCache(tmp_path)
        first = run_suite(config, quick=True, workloads=small_workloads(),
                          cache=cache)
        ckpt = SuiteCheckpoint.for_suite(cache, config, small_workloads(),
                                         MODEL_ORDER)
        ckpt.cell_path("field", "superscalar").write_bytes(b"torn write")
        resumed = run_suite(config, quick=True, workloads=small_workloads(),
                            cache=RunCache(tmp_path), resume=True)
        assert payload_json(resumed) == payload_json(first)

    def test_parallel_resume_payload_parity(self, config, tmp_path):
        cache = RunCache(tmp_path)
        first = run_suite(config, quick=True, workloads=small_workloads(),
                          cache=cache, jobs=2)
        ckpt = SuiteCheckpoint.for_suite(cache, config, small_workloads(),
                                         MODEL_ORDER)
        assert len(ckpt.cells()) == len(small_workloads()) * len(MODEL_ORDER)
        ckpt.cell_path("field", "hidisc").unlink()
        ckpt.cell_path("field", "cp_cmp").unlink()
        resumed = run_suite(config, quick=True, workloads=small_workloads(),
                            cache=RunCache(tmp_path), resume=True, jobs=2)
        assert payload_json(resumed) == payload_json(first)

    def test_changed_config_does_not_reuse_cells(self, config, tmp_path,
                                                 monkeypatch):
        """A different machine configuration lands in a different suite
        directory, so --resume can never mix incompatible cells."""
        cache = RunCache(tmp_path)
        run_suite(config, quick=True, workloads=small_workloads(),
                  cache=cache)
        other = config.with_latency(4, 40)
        calls = _count_run_models(monkeypatch)
        run_suite(other, quick=True, workloads=small_workloads(),
                  cache=RunCache(tmp_path), resume=True)
        assert len(calls) == len(small_workloads()) * len(MODEL_ORDER)

    def test_code_change_misses_cache_and_resume(self, config, tmp_path,
                                                 monkeypatch):
        """A different simulator source digest (what any edit to the
        simulation code produces) misses the run cache and the suite
        checkpoint: ``--resume`` recomputes every cell instead of
        replaying results from the older code."""
        from repro.experiments import cache as cache_mod

        first = run_suite(config, quick=True, workloads=small_workloads(),
                          cache=RunCache(tmp_path))
        monkeypatch.setattr(cache_mod, "_code_digest", "0" * 64)
        calls = _count_run_models(monkeypatch)
        cache = RunCache(tmp_path)
        resumed = run_suite(config, quick=True, workloads=small_workloads(),
                            cache=cache, resume=True)
        assert cache.hits == 0 and cache.misses == len(small_workloads())
        assert len(calls) == len(small_workloads()) * len(MODEL_ORDER)
        assert payload_json(resumed) == payload_json(first)

    def test_run_cache_clear_removes_suite_cells(self, config, tmp_path):
        cache = RunCache(tmp_path)
        run_suite(config, quick=True, workloads=small_workloads(),
                  cache=cache)
        cells = len(small_workloads()) * len(MODEL_ORDER)
        removed = RunCache(tmp_path).clear()
        assert removed == cells + len(small_workloads())
        assert SuiteCheckpoint.for_suite(
            RunCache(tmp_path), config, small_workloads(), MODEL_ORDER
        ).cells() == []


@pytest.mark.slow
def test_sigkilled_cli_suite_resumes_to_identical_payload(tmp_path,
                                                          quick_suite):
    """SIGKILL ``hidisc suite`` right after its first checkpointed cell;
    ``--resume`` must finish with the uninterrupted payload."""
    cache = tmp_path / "cache"
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(repro.__file__).resolve().parents[1])
                         + os.pathsep + env.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-m", "repro.experiments.cli", "suite",
           "--quick", "--no-progress", "--cache-dir", str(cache)]
    killed_json = tmp_path / "a.json"
    proc = subprocess.Popen(cmd + ["--json", str(killed_json)], env=env,
                            stdout=subprocess.DEVNULL)
    deadline = time.time() + 120
    try:
        while not any((cache / "suites").rglob("*.pkl")):
            assert proc.poll() is None, "suite exited before its first cell"
            assert time.time() < deadline, "no cell checkpointed in 120 s"
            time.sleep(0.01)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    assert not killed_json.exists(), "the killed run must not finish"

    resumed_json = tmp_path / "b.json"
    subprocess.run(cmd + ["--resume", "--json", str(resumed_json)], env=env,
                   check=True, timeout=300, stdout=subprocess.DEVNULL)
    resumed = json.loads(resumed_json.read_text())["suite"]
    resumed.pop("elapsed_seconds")
    assert json.dumps(resumed, sort_keys=True) == payload_json(quick_suite)
    records = RunLedger(ledger_path(cache)).entries()
    assert len(records) == 1, "a SIGKILLed run appends no ledger record"
    assert records[0]["metrics"]["counters"]["cells_resumed"] >= 1


# ----------------------------------------------------------------------
# Retry-with-backoff for transient worker failures.

def _identity_task(value):
    return value


def _flaky_in_worker(parent_pid, sentinel):
    """Dies hard in a worker on the first attempt; succeeds once the
    sentinel exists (and always succeeds in the parent)."""
    if os.getpid() != parent_pid and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(3)
    return "ok"


def _record_then_raise(log_path):
    with open(log_path, "a") as fh:
        fh.write("attempt\n")
    raise SimulationError("deterministic failure")


def _sleep_in_worker(parent_pid, seconds):
    if os.getpid() != parent_pid:
        time.sleep(seconds)
    return "ok"


def _log_and_return(log_path, value):
    with open(log_path, "a") as fh:
        fh.write(value + "\n")
    return value


def _die_after_peer(parent_pid, peer_log, sentinel):
    """First worker-side attempt: wait until the peer task has finished
    (its log line exists), then die hard — so the round deterministically
    breaks *after* a result has already been delivered."""
    if os.getpid() != parent_pid and not os.path.exists(sentinel):
        deadline = time.time() + 10
        while not os.path.exists(peer_log) and time.time() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)  # let the peer's result drain back to the parent
        with open(sentinel, "w"):
            pass
        os._exit(3)
    return "ok"


class TestRetryBackoff:
    def test_transient_failure_recovers_via_retry(self, tmp_path):
        parent = os.getpid()
        sentinel = str(tmp_path / "came-up")
        tasks = [Task(label=f"t{i}", fn=_flaky_in_worker,
                      args=(parent, sentinel)) for i in range(4)]
        messages = []
        assert run_tasks(tasks, jobs=2, progress=messages.append,
                         retries=2, backoff=0.01) == ["ok"] * 4
        text = "\n".join(messages)
        assert "rebuilding worker pool" in text
        assert "serially in-process" not in text, \
            "recovery must come from the retried pool, not the fallback"

    def test_retries_exhausted_falls_back_to_serial(self):
        parent = os.getpid()
        # No sentinel: workers always die; the parent-side fallback wins.
        tasks = [Task(label=f"t{i}", fn=_flaky_in_worker,
                      args=(parent, "/nonexistent/sentinel"))
                 for i in range(3)]
        messages = []
        assert run_tasks(tasks, jobs=2, progress=messages.append,
                         retries=1, backoff=0.01) == ["ok"] * 3
        assert "serially in-process" in "\n".join(messages)

    def test_deterministic_task_error_fails_fast(self, tmp_path):
        log = tmp_path / "attempts.log"
        tasks = [Task(label="good", fn=_identity_task, args=(1,)),
                 Task(label="bad", fn=_record_then_raise, args=(str(log),))]
        with pytest.raises(SimulationError, match="deterministic failure"):
            run_tasks(tasks, jobs=2, retries=3, backoff=0.01)
        assert log.read_text().count("attempt") == 1, \
            "a task-raised error must not be retried"

    def test_timeout_salvages_finished_results(self):
        parent = os.getpid()
        fast = Task(label="fast", fn=_identity_task, args=("done",))
        slow = Task(label="slow", fn=_sleep_in_worker, args=(parent, 5))
        delivered = []
        results = run_tasks([fast, slow], jobs=2, timeout=0.5, retries=0,
                            on_result=lambda i, r: delivered.append(i))
        assert results == ["done", "ok"]
        assert sorted(delivered) == [0, 1]

    def test_worker_death_mid_round_salvages_delivered_results(self,
                                                               tmp_path):
        """A worker SIGKILL mid-round must not lose or re-deliver results
        that already landed: the finished task is salvaged (computed once,
        delivered once) and only unfinished tasks are resubmitted."""
        parent = os.getpid()
        log = tmp_path / "ran.log"
        sentinel = str(tmp_path / "second-attempt")
        tasks = [Task(label="a", fn=_log_and_return, args=(str(log), "a")),
                 Task(label="boom", fn=_die_after_peer,
                      args=(parent, str(log), sentinel)),
                 Task(label="c", fn=_identity_task, args=("c",))]
        delivered = []
        messages = []
        results = run_tasks(tasks, jobs=2, retries=2, backoff=0.01,
                            progress=messages.append,
                            on_result=lambda i, r: delivered.append(i))
        assert results == ["a", "ok", "c"]
        assert sorted(delivered) == [0, 1, 2]
        assert len(delivered) == len(set(delivered)), \
            "salvaged results must not be re-delivered after the rebuild"
        assert "rebuilding worker pool" in "\n".join(messages)
        assert log.read_text().splitlines().count("a") == 1, \
            "a finished task must be salvaged, not recomputed"

    def test_on_result_fires_exactly_once_per_task(self):
        tasks = [Task(label=str(i), fn=_identity_task, args=(i,))
                 for i in range(8)]
        seen = []
        results = run_tasks(tasks, jobs=3,
                            on_result=lambda i, r: seen.append((i, r)))
        assert results == list(range(8))
        assert sorted(seen) == [(i, i) for i in range(8)]
