"""Grid execution: the one way a preparation or a grid cell runs.

Every cell of the paper's evaluation is independent once ``prepare()`` has
run: the 7-benchmark x 4-model suite grid and the Figure-10
(2 benchmark x 4 latency x 4 model) sweep are embarrassingly parallel.
``run_suite`` and ``figure10`` run every preparation and every cell
through this module, at any ``--jobs``:

* :func:`run_tasks` — run picklable :class:`Task`\\ s and return their
  results **in task order** (deterministic grid assembly regardless of
  completion order).  ``jobs == 0`` (the default of ``run_suite``,
  ``figure10`` and the grid commands) means every usable CPU (see
  :func:`resolve_jobs`); ``jobs == 1`` runs the tasks inline; otherwise
  they fan out on a ``ProcessPoolExecutor`` with **bounded retry with
  exponential backoff** for pool-infrastructure failures (a worker killed
  by the OS: the pool is rebuilt and only the unfinished tasks
  resubmitted, up to *retries* times), after which the remaining tasks
  run in the same inline loop — so a flaky pool can slow a run down but
  never fail or corrupt it.  Genuine simulation errors raised by a task
  are *not* swallowed — they propagate immediately (deterministic
  failures fail fast; only infrastructure failures retry), and so does a
  task that cannot be pickled (:class:`~repro.errors.ConfigError`, before
  any pool starts).  An *on_result* callback sees each ``(index,
  result)`` the moment it lands, in completion order, which is how the
  suite checkpoints every completed grid cell as soon as it finishes.
  Every worker is joined before :func:`run_tasks` returns or raises.
* :func:`prepare_many` — compile benchmarks through :func:`run_tasks`.
  The parent owns the run cache: it probes every entry before any task
  runs and stores each fresh compilation as it lands, so workers never
  touch the cache and each hit, miss and store is counted once.
* :func:`run_cells` — turn ``(compiled, mode[, config])`` grid cells into
  :func:`run_model_task` tasks and run them.  Each task builds its own
  :class:`~repro.telemetry.Telemetry` when CPI stacks are asked for; the
  stacks travel back inside the returned :class:`~repro.sim.RunResult`.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..config import MachineConfig, SamplingPlan
from ..errors import ConfigError, InterruptedRun
from ..telemetry import metrics, spans
from ..workloads import Workload
from . import interrupt

ProgressFn = Callable[[str], None]

#: Slot marker for "not computed yet" (``None`` is a legal task result).
_UNSET = object()

#: Registry of compiled workloads that grid tasks name by key.  Shipping a
#: ``CompiledWorkload`` (multi-megabyte traces) to a worker per grid cell
#: would make the quick grid IPC-bound, so every pool hands each worker
#: the registry once, through its initializer (:func:`_init_worker`):
#: under ``fork`` the worker inherits it without pickling, under
#: ``spawn`` or ``forkserver`` it is pickled once per worker.
_SHARED_COMPILED: dict[str, object] = {}


def share_compiled(compiled) -> str:
    """Register *compiled* and return the key a task names it by.

    Register **before** :func:`run_tasks` starts its pool: workers receive
    the registry as it stands then.
    """
    key = compiled.fingerprint or f"anon-{id(compiled):x}"
    _SHARED_COMPILED[key] = compiled
    return key


def _init_worker(registry: dict[str, object]) -> None:
    """Pool initializer: install the parent's registry in this worker,
    leave SIGINT to the parent (:func:`~repro.experiments.interrupt.
    ignore_in_worker`) and exit when the parent dies.

    A parent killed outright (SIGKILL, the OOM killer) cannot shut its
    pool down, and an idle worker would wait on its call queue forever.
    """
    _SHARED_COMPILED.update(registry)
    interrupt.ignore_in_worker()
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def clear_shared() -> None:
    """Drop the shared-compiled registry (call after the grid is done, so
    long-lived processes don't accumulate traces)."""
    _SHARED_COMPILED.clear()


@dataclass(frozen=True)
class Task:
    """One unit of grid work: a picklable callable plus its arguments."""

    label: str
    fn: Callable
    args: tuple


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means every usable CPU.

    Usable CPUs are the process's affinity mask where the platform has
    one, so ``taskset`` and cpusets are honoured, and ``os.cpu_count()``
    otherwise.
    """
    if jobs is None or jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# Worker entry points (module-level so they pickle).

def _pool_task(traced: bool, fn: Callable, args: tuple):
    """Run one task in a pool worker.

    When the parent traces (*traced*), the task runs under its own
    :func:`~repro.telemetry.spans.tracing` block and metrics scope, and
    both ship back to the parent as ``host_spans`` / ``host_metrics``
    attributes on the result, to re-merge onto the orchestrator's
    timeline (see :func:`_absorb_observations`).
    """
    if not traced:
        return fn(*args)
    scope = metrics.push_scope()
    with spans.tracing() as tracer:
        try:
            with tracer.span(fn.__name__, cat="pool"):
                result = fn(*args)
        finally:
            metrics.record_peak_rss()
            snap = metrics.pop_scope(scope)
    try:
        result.host_spans = [r.as_dict() for r in tracer.records]
        result.host_metrics = snap
    except AttributeError:
        pass
    return result


def _absorb_observations(result, submitted_ns: int | None = None) -> None:
    """Merge a worker result's shipped spans/metrics into this process.

    Strips the transport attributes afterwards, so checkpointed cells
    pickle clean and a resumed suite can never double-count a task's
    observations.  *submitted_ns* (the parent-side ``time.time_ns`` at
    submission) turns the gap to the worker's first span into the
    ``queue_to_pool_seconds`` histogram.
    """
    snap = getattr(result, "host_metrics", None)
    if snap is not None:
        metrics.merge(snap)
        try:
            del result.host_metrics
        except AttributeError:
            pass
    shipped = getattr(result, "host_spans", None)
    if shipped is None:
        return
    records = [spans.SpanRecord(**d) for d in shipped]
    tracer = spans.current()
    if tracer is not None:
        tracer.adopt(records)
    if submitted_ns is not None and records:
        wait = (min(r.t0_ns for r in records) - submitted_ns) / 1e9
        if wait >= 0:
            metrics.observe("queue_to_pool_seconds", wait)
    try:
        del result.host_spans
    except AttributeError:
        pass


def prepare_task(workload: Workload, config: MachineConfig):
    """Worker: compile one benchmark (the parent owns the run cache)."""
    from .runner import prepare

    return prepare(workload, config)


def run_model_task(key: str, config: MachineConfig, mode: str, cpi: bool,
                   verify: bool = False, sampling=None):
    """Worker: replay one compiled benchmark through one machine model.

    *key* names a :class:`CompiledWorkload` registered with
    :func:`share_compiled`.  A fresh
    :class:`Telemetry` is built in-process when CPI stacks are requested;
    the stacks return inside the :class:`RunResult`.  ``verify=True``
    referees the run with the co-simulation oracle (see
    :func:`repro.resilience.verified_run`).
    """
    from ..telemetry import Telemetry
    from .runner import run_model

    telemetry = Telemetry(cpi=True) if cpi else None
    return run_model(_SHARED_COMPILED[key], config, mode,
                     telemetry=telemetry, verify=verify, sampling=sampling)


# ----------------------------------------------------------------------

def _check_picklable(task: Task) -> None:
    """Raise :class:`ConfigError` naming *task* if it cannot reach a
    worker process (a closure, a class defined in a function).

    Inside the executor the pickling error left ``shutdown`` waiting
    forever (CPython 3.11).  Task arguments are small (compilations
    travel by registry key), so pickling them once more costs little.
    """
    try:
        pickle.dumps((task.fn, task.args))
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ConfigError(
            f"task {task.label!r} cannot be sent to a worker process "
            f"({exc}); define its function and arguments at module level, "
            f"or run it with jobs=1"
        ) from exc


def _run_pool_round(tasks: Sequence[Task], pending: Sequence[int],
                    jobs: int, progress: ProgressFn | None,
                    deliver: Callable[[int, object], None],
                    submitted: dict[int, int]) -> bool:
    """One process-pool attempt over the *pending* task indices.

    Delivers every result as it lands, in completion order (including
    salvage of already-finished futures after a failure), and polls the
    interrupt flag after each landing.  On a graceful stop it cancels the
    tasks that have not started, delivers the running ones as they
    finish, then raises :class:`~repro.errors.InterruptedRun`.  Returns
    True if the pool infrastructure broke (a worker died) and some tasks
    remain undone; task-raised exceptions propagate unchanged.
    *submitted* records each index's submission wall-stamp for
    queue-latency accounting.  The workers are joined before this
    returns or raises; on a hard abort (a second signal's
    ``KeyboardInterrupt``) they are terminated first.
    """
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)),
                               initializer=_init_worker,
                               initargs=(_SHARED_COMPILED,))
    traced = spans.current() is not None
    broken = False
    stop: InterruptedRun | None = None
    try:
        futures: dict[object, int] = {}
        for index in pending:
            submitted[index] = time.time_ns()
            try:
                futures[pool.submit(_pool_task, traced, tasks[index].fn,
                                    tasks[index].args)] = index
            except BrokenProcessPool:
                # A worker died before every task was submitted: collect
                # what was, and let the next round resubmit the rest.
                broken = True
                break
        waiting = set(futures)
        while waiting and not broken:
            landed, waiting = wait(waiting, return_when=FIRST_COMPLETED)
            for future in sorted(landed, key=futures.get):
                if future.cancelled():
                    continue
                index = futures[future]
                try:
                    result = future.result()
                except (BrokenProcessPool, OSError) as exc:
                    broken = True
                    metrics.inc("pool_worker_failures")
                    spans.instant("worker_failure", cat="pool",
                                  task=tasks[index].label,
                                  error=type(exc).__name__)
                    if progress:
                        progress(
                            f"  {tasks[index].label}: worker failed "
                            f"({type(exc).__name__})"
                        )
                    break
                deliver(index, result)
                if progress:
                    progress(f"  {tasks[index].label}: done")
            if stop is None:
                try:
                    interrupt.poll()
                except InterruptedRun as exc:
                    stop = exc
                    for future in waiting:
                        future.cancel()
        if broken:
            # Salvage whatever already finished; cancel the rest.
            for future, index in futures.items():
                if future.done() and not future.cancelled():
                    try:
                        deliver(index, future.result())
                    except (BrokenProcessPool, OSError):
                        pass
                else:
                    future.cancel()
        if stop is not None:
            raise stop
    except BaseException as exc:
        if not isinstance(exc, Exception):
            # A hard abort does not wait for the running cells (Python
            # 3.14 names this loop ProcessPoolExecutor.terminate_workers).
            for process in list(pool._processes.values()):
                process.terminate()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return broken


def run_tasks(tasks: Sequence[Task] | Iterable[Task], jobs: int = 1,
              progress: ProgressFn | None = None,
              retries: int = 1, backoff: float = 0.25,
              on_result: Callable[[int, object], None] | None = None) -> list:
    """Run *tasks* and return their results in task order.

    ``jobs == 1`` (after :func:`resolve_jobs`) executes inline.  Otherwise
    tasks are fanned out on a ``ProcessPoolExecutor``; every task is
    pickled first, and one that cannot be raises :class:`ConfigError`
    naming its label.

    Pool-infrastructure failures (a worker crash) are **transient**:
    already-finished results are salvaged, the pool is rebuilt and only
    the unfinished tasks are resubmitted, up to *retries* times with
    exponential backoff (``backoff * 2**attempt`` seconds); when retries
    are exhausted the remaining tasks run inline.  Exceptions raised *by
    a task itself* are **deterministic** and propagate immediately — a
    failing simulation is never retried.

    *on_result* (if given) is called with ``(task_index, result)`` as each
    result lands — delivery order is completion order, exactly once per
    task — so callers can checkpoint incrementally.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    jobs = min(resolve_jobs(jobs), len(tasks))
    if jobs > 1:
        for task in tasks:
            _check_picklable(task)
    results: list = [_UNSET] * len(tasks)
    #: per-index submission wall-stamp, for queue_to_pool_seconds.
    submitted: dict[int, int] = {}

    def deliver(index: int, value) -> None:
        if results[index] is _UNSET:
            _absorb_observations(value, submitted.get(index))
            if on_result is not None:
                on_result(index, value)
        results[index] = value

    with spans.span("run_tasks", cat="pool", tasks=len(tasks), jobs=jobs):
        attempt = 0
        while jobs > 1:
            pending = [i for i in range(len(tasks))
                       if results[i] is _UNSET]
            if not pending:
                break
            interrupt.poll()
            with spans.span("pool_round", cat="pool",
                            pending=len(pending), attempt=attempt):
                broken = _run_pool_round(tasks, pending, jobs, progress,
                                         deliver, submitted)
            if not broken or attempt >= retries:
                break
            delay = backoff * (2 ** attempt)
            attempt += 1
            metrics.inc("pool_retries")
            remaining = sum(1 for r in results if r is _UNSET)
            if progress:
                progress(
                    f"  rebuilding worker pool for {remaining} unfinished "
                    f"tasks (retry {attempt}/{retries}, backoff {delay:.2f}s)"
                )
            with spans.span("backoff", cat="pool", attempt=attempt,
                            delay_s=delay):
                if delay > 0:
                    time.sleep(delay)

        remaining = sum(1 for r in results if r is _UNSET)
        fallback = contextlib.nullcontext()
        if jobs > 1 and remaining:
            metrics.inc("pool_fallback_tasks", remaining)
            if progress:
                progress(f"  retries exhausted; computing {remaining} "
                         f"remaining tasks serially in-process")
            fallback = spans.span("serial_fallback", cat="pool",
                                  tasks=remaining)
        with fallback:
            for index, task in enumerate(tasks):
                if results[index] is _UNSET:
                    interrupt.poll()
                    result = task.fn(*task.args)
                    if progress:
                        progress(f"  {task.label}: done")
                    deliver(index, result)
        return results


# ----------------------------------------------------------------------

def prepare_many(workloads: Sequence[Workload], config: MachineConfig,
                 jobs: int = 1, cache=None,
                 progress: ProgressFn | None = None) -> list:
    """Compile *workloads* (in order), fanning misses out over *jobs*.

    The cache is probed here first, so warm entries never become tasks
    (a fully warm run performs zero ``prepare()`` calls), and each fresh
    compilation is stored here as it lands.
    """
    from .cache import compile_key

    compiled: list = [None] * len(workloads)
    misses: list[tuple[int, str]] = []
    for index, workload in enumerate(workloads):
        key = compile_key(workload, config)
        entry = cache.load(key) if cache is not None else None
        if entry is not None:
            if progress:
                progress(f"  prepare {workload.name}: cached")
            compiled[index] = entry
        else:
            misses.append((index, key))

    def land(task_index: int, cw) -> None:
        index, key = misses[task_index]
        compiled[index] = cw
        if cache is not None:
            cache.store(key, cw)

    run_tasks([Task(label=f"prepare {workloads[i].name}", fn=prepare_task,
                    args=(workloads[i], config)) for i, _ in misses],
              jobs=jobs, progress=progress, on_result=land)
    return compiled


def run_cells(cells: Sequence[tuple], config: MachineConfig,
              jobs: int = 1, cpi: bool = False, verify: bool = False,
              sampling: SamplingPlan | None = None,
              progress: ProgressFn | None = None,
              on_result: Callable[[int, object], None] | None = None
              ) -> list:
    """Run grid cells through :func:`run_tasks`; results in cell order.

    A cell is ``(compiled, mode)``, replayed under *config*, or
    ``(compiled, mode, point)`` with a cell-specific configuration (the
    Figure-10 latency points).  Compilations reach the tasks through
    :func:`share_compiled`, and the registry is cleared when the cells
    are done, also when one raises.
    """
    tasks = []
    for cw, mode, *point in cells:
        cell_config = point[0] if point else config
        label = (f"{cw.name}@{cell_config.l2.latency}/"
                 f"{cell_config.memory_latency}/{mode}"
                 if point else f"{cw.name}/{mode}")
        tasks.append(Task(label=label, fn=run_model_task,
                          args=(share_compiled(cw), cell_config, mode, cpi,
                                verify, sampling)))
    try:
        return run_tasks(tasks, jobs=jobs, progress=progress,
                         on_result=on_result)
    finally:
        clear_shared()
