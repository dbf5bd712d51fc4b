"""Run-cache and parallel-grid tests (repro.experiments.cache / .parallel).

The parity tests use a reduced workload set so the grid stays seconds-sized;
the full quick suite is exercised by test_experiments and the CI smoke run.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import MachineConfig
from repro.errors import ConfigError, SimulationError
from repro.experiments import (
    MODEL_ORDER,
    BenchmarkResults,
    RunCache,
    SuiteCheckpoint,
    SuiteResult,
    Task,
    compile_key,
    figure10,
    prepare,
    prepare_cached,
    run_model,
    run_suite,
    run_tasks,
)
from repro.experiments.cache import workload_fingerprint
from repro.experiments.parallel import resolve_jobs
from repro.telemetry import Telemetry, spans
from repro.workloads import FieldWorkload, get_workload


def small_workloads(seed: int = 2003):
    """Three tiny benchmarks — enough to exercise grid assembly."""
    return [
        FieldWorkload(n=500, seed=seed),
        get_workload("pointer", quick=True, seed=seed),
        get_workload("transitive", quick=True, seed=seed),
    ]


def _count_prepares(monkeypatch):
    """Patch runner.prepare with a counting wrapper (parent process only)."""
    import repro.experiments.runner as runner_mod

    calls = []
    real = runner_mod.prepare

    def counting(workload, config):
        calls.append(workload.name)
        return real(workload, config)

    monkeypatch.setattr(runner_mod, "prepare", counting)
    return calls


# ----------------------------------------------------------------------
# Fingerprints

class TestFingerprints:
    def test_same_inputs_same_key(self, config):
        assert compile_key(FieldWorkload(n=500), config) == \
            compile_key(FieldWorkload(n=500), config)

    def test_seed_changes_key(self, config):
        assert compile_key(FieldWorkload(n=500, seed=1), config) != \
            compile_key(FieldWorkload(n=500, seed=2), config)

    def test_quick_scale_changes_key(self, config):
        # quick vs paper-scale instances differ in their size parameters
        assert compile_key(get_workload("pointer", quick=True), config) != \
            compile_key(get_workload("pointer", quick=False), config)

    def test_config_changes_key(self, config):
        assert compile_key(FieldWorkload(n=500), config) != \
            compile_key(FieldWorkload(n=500), config.with_latency(4, 40))

    def test_version_changes_key(self, config, monkeypatch):
        """The key follows the simulator's source digest, not the package
        version string."""
        import repro
        from repro.experiments import cache as cache_mod

        before = compile_key(FieldWorkload(n=500), config)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert compile_key(FieldWorkload(n=500), config) == before
        monkeypatch.setattr(cache_mod, "_code_digest", "0" * 64)
        assert compile_key(FieldWorkload(n=500), config) != before

    @pytest.mark.parametrize("module", ["experiments/runner.py", "utils.py",
                                        "telemetry/cpi.py"])
    def test_code_digest_covers_result_deciding_code(self, module, tmp_path,
                                                     monkeypatch):
        """Code outside the simulator proper decides results too (warm-up
        positions, sign extension, CPI stacks): editing it must change
        the digest."""
        import repro
        from repro.experiments import cache as cache_mod

        package = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        # code_digest hashes the package its own module sits in.
        monkeypatch.setattr(cache_mod, "__file__",
                            str(package / "experiments" / "cache.py"))
        monkeypatch.setattr(cache_mod, "_code_digest", None)
        before = cache_mod.code_digest()
        with open(package / module, "a") as f:
            f.write("# edited\n")
        monkeypatch.setattr(cache_mod, "_code_digest", None)
        assert cache_mod.code_digest() != before

    def test_workload_fingerprint_covers_scalars(self):
        a = workload_fingerprint(FieldWorkload(n=500, token=0x42))
        b = workload_fingerprint(FieldWorkload(n=500, token=0x43))
        assert a != b


# ----------------------------------------------------------------------
# RunCache store semantics

class TestRunCache:
    def test_miss_then_hit(self, config, tmp_path, monkeypatch):
        calls = _count_prepares(monkeypatch)
        cache = RunCache(tmp_path)
        cw1 = prepare_cached(FieldWorkload(n=500), config, cache)
        assert calls == ["field"] and cache.stores == 1
        cw2 = prepare_cached(FieldWorkload(n=500), config, cache)
        assert calls == ["field"], "cache hit must skip prepare()"
        assert cache.hits == 1
        assert cw2.fingerprint == cw1.fingerprint
        assert len(cw2.trace) == len(cw1.trace)

    def test_hit_survives_new_cache_instance(self, config, tmp_path,
                                             monkeypatch):
        prepare_cached(FieldWorkload(n=500), config, RunCache(tmp_path))
        calls = _count_prepares(monkeypatch)
        prepare_cached(FieldWorkload(n=500), config, RunCache(tmp_path))
        assert calls == []

    def test_fingerprint_mismatch_misses(self, config, tmp_path,
                                         monkeypatch):
        cache = RunCache(tmp_path)
        prepare_cached(FieldWorkload(n=500), config, cache)
        calls = _count_prepares(monkeypatch)
        prepare_cached(FieldWorkload(n=500, seed=7), config, cache)
        prepare_cached(FieldWorkload(n=500), config.with_latency(4, 40),
                       cache)
        assert calls == ["field", "field"], \
            "changed seed/config must recompute"

    def test_corrupted_entry_recomputes(self, config, tmp_path,
                                        monkeypatch):
        cache = RunCache(tmp_path)
        workload = FieldWorkload(n=500)
        prepare_cached(workload, config, cache)
        key = compile_key(workload, config)
        cache.path_for(key).write_bytes(b"\x80garbage not a pickle")
        calls = _count_prepares(monkeypatch)
        fresh = RunCache(tmp_path)
        cw = prepare_cached(workload, config, fresh)
        assert calls == ["field"] and fresh.corrupt == 1
        assert cw.fingerprint == key
        # the bad entry was replaced by a good one
        assert fresh.load(key) is not None

    def test_wrong_key_content_rejected(self, config, tmp_path):
        """An entry whose payload fingerprint disagrees with its file name
        (e.g. a renamed file) is evicted, not returned."""
        cache = RunCache(tmp_path)
        workload = FieldWorkload(n=500)
        prepare_cached(workload, config, cache)
        good = cache.path_for(compile_key(workload, config))
        bad = cache.path_for("0" * 64)
        good.rename(bad)
        assert cache.load("0" * 64) is None
        assert not bad.exists()

    def test_stats_and_clear(self, config, tmp_path):
        cache = RunCache(tmp_path)
        prepare_cached(FieldWorkload(n=500), config, cache)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["total_bytes"] > 0
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_unwritable_root_degrades_gracefully(self, config):
        cache = RunCache("/proc/definitely/not/writable")
        cw = prepare_cached(FieldWorkload(n=500), config, cache)
        assert cw.work > 0 and cache.stores == 0


# ----------------------------------------------------------------------
# Parallel grid execution

def _identity_task(value):
    return value


def _crash_in_worker(parent_pid):
    """Dies hard in a pool worker; succeeds when run in the parent."""
    if os.getpid() != parent_pid:
        os._exit(3)
    return "ok"


def _raise_simulation_error():
    raise SimulationError("boom from worker")


def _sleep_then(seconds: float, value):
    time.sleep(seconds)
    return value


#: A pool run of a task whose function is defined inside another one.
_UNPICKLABLE_TASK = """\
from repro.errors import ConfigError
from repro.experiments import Task, run_tasks


def main():
    def local(value):
        return value

    try:
        run_tasks([Task("local-a", local, (1,)), Task("local-b", local, (2,))],
                  jobs=2)
    except ConfigError as exc:
        print(exc)


if __name__ == "__main__":
    main()
"""


class TestRunTasks:
    def test_results_in_task_order(self):
        tasks = [Task(label=str(i), fn=_identity_task, args=(i,))
                 for i in range(20)]
        assert run_tasks(tasks, jobs=4) == list(range(20))

    def test_serial_when_jobs_one(self):
        tasks = [Task(label=str(i), fn=_identity_task, args=(i,))
                 for i in range(3)]
        assert run_tasks(tasks, jobs=1) == [0, 1, 2]

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError):
            run_tasks([Task("x", _identity_task, (1,))], jobs=-2)

    def test_worker_crash_falls_back_to_serial(self):
        parent = os.getpid()
        tasks = [Task(label=f"t{i}", fn=_crash_in_worker, args=(parent,))
                 for i in range(4)]
        assert run_tasks(tasks, jobs=2) == ["ok"] * 4

    def test_task_exceptions_propagate(self):
        # two tasks so the pool path (not the inline shortcut) is taken
        tasks = [Task(label="good", fn=_identity_task, args=(1,)),
                 Task(label="bad", fn=_raise_simulation_error, args=())]
        with pytest.raises(SimulationError, match="boom"):
            run_tasks(tasks, jobs=2)

    def test_task_exceptions_propagate_inline(self):
        tasks = [Task(label="bad", fn=_raise_simulation_error, args=())]
        with pytest.raises(SimulationError, match="boom"):
            run_tasks(tasks, jobs=1)

    def test_results_delivered_as_they_land(self):
        """A task that finishes first reaches on_result first, so its cell
        is checkpointed at once; the returned list stays in task order."""
        tasks = [Task(label="slow", fn=_sleep_then, args=(1.0, "slow")),
                 Task(label="fast", fn=_sleep_then, args=(0.0, "fast"))]
        landed = []
        assert run_tasks(tasks, jobs=2,
                         on_result=lambda i, r: landed.append(i)) == \
            ["slow", "fast"]
        assert landed == [1, 0]

    def test_unpicklable_task_raises_instead_of_hanging(self, tmp_path):
        """Runs in a child process with a deadline, so a pool that hangs
        on the task fails this test instead of hanging the suite."""
        script = tmp_path / "unpicklable.py"
        script.write_text(_UNPICKLABLE_TASK)
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(Path(__file__).resolve().parents[1] / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # hung: stop it and its workers
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == 0, err
        assert out.startswith("task 'local-a' cannot be sent to a worker "
                              "process"), out

    def test_default_jobs_count_usable_cpus(self, monkeypatch):
        """0 means the CPUs this process may run on (taskset and cpusets
        are honoured), and the CPU count where there is no mask."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert resolve_jobs(0) == resolve_jobs(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_jobs(0) == 6 and resolve_jobs(3) == 3


def payload_json(suite) -> str:
    payload = suite.to_payload()
    payload.pop("elapsed_seconds")
    return json.dumps(payload, sort_keys=True)


def grid_workloads(seed: int = 2003):
    """Two tiny benchmarks — enough to check cross-benchmark assembly."""
    return small_workloads(seed)[:2]


SWEEP_LATENCIES = ((4, 40), (16, 160))
SWEEP_MODES = ("superscalar", "hidisc")


@pytest.fixture(scope="module")
def reference_grid():
    """The grid computed cell by cell, outside ``run_suite``."""
    config = MachineConfig()
    suite = SuiteResult(config=config, quick=True)
    for workload in grid_workloads():
        cw = prepare(workload, config)
        bench = suite.benchmarks[cw.name] = BenchmarkResults(compiled=cw)
        for mode in MODEL_ORDER:
            bench.results[mode] = run_model(cw, config, mode,
                                            telemetry=Telemetry(cpi=True))
    return suite


@pytest.fixture(scope="module")
def reference_sweep():
    """The Figure-10 sweep of quick field computed cell by cell."""
    config = MachineConfig()
    cw = prepare(get_workload("field", quick=True), config)
    return {"field": {
        mode: [run_model(cw, config.with_latency(l2, mem), mode).ipc
               for l2, mem in SWEEP_LATENCIES]
        for mode in SWEEP_MODES}}


@pytest.mark.parametrize("jobs", [1, 2, 0])
class TestOnePathParity:
    """``run_suite`` and ``figure10`` reproduce the cell-by-cell results
    at every ``jobs``, the default ``0`` (every usable CPU) included."""

    def test_fresh_payload(self, config, jobs, reference_grid):
        suite = run_suite(config, quick=True, workloads=grid_workloads(),
                          jobs=jobs)
        assert payload_json(suite) == payload_json(reference_grid)

    def test_resume_from_partial_checkpoint(self, config, tmp_path, jobs,
                                            reference_grid):
        cache = RunCache(tmp_path)
        checkpoint = SuiteCheckpoint.for_suite(cache, config,
                                               grid_workloads(), MODEL_ORDER)
        stored = {("field", "superscalar"), ("field", "hidisc"),
                  ("pointer", "cp_ap")}
        for name, mode in stored:
            checkpoint.store(name, mode,
                             reference_grid.benchmarks[name].results[mode])
        landed = []
        suite = run_suite(config, quick=True, workloads=grid_workloads(),
                          jobs=jobs, cache=cache, resume=True,
                          on_cell=lambda *cell: landed.append(cell))
        assert payload_json(suite) == payload_json(reference_grid)
        assert sorted(landed) == sorted(
            (name, mode, (name, mode) in stored)
            for name in reference_grid.names for mode in MODEL_ORDER)

    def test_hidisc_only_with_progress(self, config, jobs, reference_grid):
        """No baseline among the modes: the per-benchmark progress line
        reports the benchmark done instead of reading a speedup."""
        messages = []
        suite = run_suite(config, quick=True, workloads=grid_workloads(),
                          modes=("hidisc",), jobs=jobs,
                          progress=messages.append)
        assert suite.names == reference_grid.names
        for name, bench in suite.benchmarks.items():
            assert bench.results == {
                "hidisc": reference_grid.benchmarks[name].results["hidisc"]}
            assert f"  {name}: done" in messages

    def test_figure10_sweep(self, config, jobs, reference_sweep):
        fig = figure10(config, quick=True, benchmarks=("field",),
                       latencies=SWEEP_LATENCIES, modes=SWEEP_MODES,
                       jobs=jobs)
        assert fig.ipc == reference_sweep


class TestParallelSuite:
    def test_warm_cache_skips_all_prepares(self, config, tmp_path,
                                           monkeypatch):
        cache = RunCache(tmp_path)
        run_suite(config, quick=True, workloads=small_workloads(),
                  jobs=1, cache=cache)
        assert cache.stores == len(small_workloads())

        # Warm run: any prepare() call in the parent is a test failure.
        import repro.experiments.runner as runner_mod

        def forbidden(workload, config):
            raise AssertionError("prepare() called on a warm cache")

        monkeypatch.setattr(runner_mod, "prepare", forbidden)
        warm_cache = RunCache(tmp_path)
        warm = run_suite(config, quick=True, workloads=small_workloads(),
                         jobs=2, cache=warm_cache)
        assert warm_cache.hits == len(small_workloads())
        assert set(warm.names) == {w.name for w in small_workloads()}

    def test_no_worker_outlives_a_default_run(self, config):
        with spans.tracing() as tracer:
            run_suite(config, quick=True, workloads=grid_workloads())
        workers = {r.pid for r in tracer.records} - {os.getpid()}
        assert bool(workers) == (resolve_jobs(0) > 1)
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
