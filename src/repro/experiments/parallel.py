"""Process-pool execution of the experiment grid.

Every cell of the paper's evaluation is independent once ``prepare()`` has
run: the 7-benchmark x 4-model suite grid and the Figure-10
(2 benchmark x 4 latency x 4 model) sweep are embarrassingly parallel.
This module provides the fan-out machinery the suite and Figure 10 build
on:

* :func:`run_tasks` — submit a list of picklable :class:`Task`\\ s to a
  ``ProcessPoolExecutor`` and return their results **in task order**
  (deterministic grid assembly regardless of completion order), with an
  optional per-task timeout, **bounded retry with exponential backoff**
  for pool-infrastructure failures (a worker killed by the OS, a task
  timeout: the pool is rebuilt and only the unfinished cells resubmitted,
  up to *retries* times), and automatic **serial in-process fallback**
  once retries are exhausted — so a flaky pool can slow a run down but
  never fail or corrupt it.  Genuine simulation errors raised by a task
  are *not* swallowed — they propagate immediately, exactly as in serial
  execution (deterministic failures fail fast; only infrastructure
  failures retry).  An *on_result* callback sees each ``(index, result)``
  the moment it lands, which is how the suite checkpoints every completed
  grid cell before the next one runs.
* :func:`prepare_task` / :func:`run_model_task` — the module-level worker
  entry points.  Each worker constructs its own
  :class:`~repro.telemetry.Telemetry` (CPI stacks travel back inside the
  returned :class:`~repro.sim.RunResult`), and cache stores are atomic,
  so concurrent workers preparing the same benchmark race benignly.

Telemetry objects carrying sinks or samplers are process-local and not
shared with workers; callers that pass a custom telemetry instance run
serially (see :func:`repro.experiments.suite.run_suite`).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import ConfigError
from ..telemetry import metrics, spans
from ..workloads import Workload
from . import interrupt

ProgressFn = Callable[[str], None]

#: Slot marker for "not computed yet" (``None`` is a legal task result).
_UNSET = object()

#: Parent-side registry of compiled workloads, inherited by forked pool
#: workers.  Shipping a ``CompiledWorkload`` (multi-megabyte traces) to a
#: worker per grid cell would make the quick grid IPC-bound; with the
#: ``fork`` start method the children see this dict for free, so tasks
#: carry only a string key.  On platforms without ``fork`` the object
#: itself is passed (see :func:`share_compiled`).
_SHARED_COMPILED: dict[str, object] = {}


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods() and \
        multiprocessing.get_start_method(allow_none=True) in (None, "fork")


def share_compiled(compiled) -> object:
    """Return a task-argument reference for *compiled*.

    With a fork-based pool, registers the object in the parent and
    returns its key (workers inherit the registry at fork time — register
    **before** :func:`run_tasks` submits anything).  Otherwise returns the
    object itself, to be pickled per task.
    """
    if not _fork_available():
        return compiled
    key = compiled.fingerprint or f"anon-{id(compiled):x}"
    _SHARED_COMPILED[key] = compiled
    return key


def _resolve_compiled(ref):
    return _SHARED_COMPILED[ref] if isinstance(ref, str) else ref


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
    """Normalize a ``--jobs`` value: ``None``/``0`` means all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# Worker entry points (module-level so they pickle).

def _observed(fn):
    """Bracket a worker entry point with a per-task span tracer and
    metrics scope (:func:`repro.telemetry.spans.begin_worker_task`), so
    the task's observations ship back to the parent as ``host_spans`` /
    ``host_metrics`` attributes on the result and re-merge onto the
    orchestrator's timeline (see :func:`_absorb_observations`).

    When orchestration tracing is off (the default) the bracket resolves
    to ``None`` immediately and the task runs exactly as before.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = spans.begin_worker_task()
        if tracer is None:
            return fn(*args, **kwargs)
        scope = metrics.push_scope()
        try:
            with tracer.span(fn.__name__, cat="pool"):
                result = fn(*args, **kwargs)
        finally:
            metrics.record_peak_rss()
            snap = metrics.pop_scope(scope)
            records = spans.end_worker_task(tracer)
        try:
            result.host_spans = [r.as_dict() for r in records]
            result.host_metrics = snap
        except AttributeError:
            pass
        return result
    return wrapper


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


@_observed
def prepare_task(workload: Workload, config: MachineConfig,
                 cache_dir: str | None):
    """Worker: compile one benchmark, reading/writing the cache if given."""
    from .cache import RunCache, prepare_cached

    cache = RunCache(cache_dir) if cache_dir is not None else None
    return prepare_cached(workload, config, cache)


@_observed
def run_model_task(compiled, config: MachineConfig, mode: str, cpi: bool,
                   verify: bool = False, sampling=None):
    """Worker: replay one compiled benchmark through one machine model.

    *compiled* is a :class:`CompiledWorkload` or a :func:`share_compiled`
    key resolved against the fork-inherited registry.  A fresh
    :class:`Telemetry` is built in-process when CPI stacks are requested;
    the stacks return inside the :class:`RunResult`.  ``verify=True``
    referees the run with the co-simulation oracle (see
    :func:`repro.resilience.verified_run`).
    """
    from ..telemetry import Telemetry
    from .runner import run_model

    telemetry = Telemetry(cpi=True) if cpi else None
    return run_model(_resolve_compiled(compiled), config, mode,
                     telemetry=telemetry, verify=verify, sampling=sampling)


# ----------------------------------------------------------------------

def _run_inline(task: Task, progress: ProgressFn | None) -> object:
    result = task.fn(*task.args)
    if progress:
        progress(f"  {task.label}: done")
    return result


def _run_pool_round(tasks: Sequence[Task], pending: Sequence[int],
                    jobs: int, timeout: float | None,
                    progress: ProgressFn | None,
                    deliver: Callable[[int, object], None],
                    submitted: dict[int, int] | None = None) -> bool:
    """One process-pool attempt over the *pending* task indices.

    Delivers every result that lands (including salvage of
    already-finished futures after a failure).  Returns True if the pool
    infrastructure broke (worker death, timeout) and some tasks remain
    undone; task-raised exceptions propagate unchanged.  *submitted*
    (if given) records each index's submission wall-stamp for
    queue-latency accounting.
    """
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
    broken = False
    try:
        futures: dict[int, object] = {}
        for index in pending:
            if submitted is not None:
                submitted[index] = time.time_ns()
            try:
                futures[index] = pool.submit(tasks[index].fn,
                                             *tasks[index].args)
            except BrokenProcessPool:
                # A worker died before every task was submitted: collect
                # what was, and let the next round resubmit the rest.
                broken = True
                break
        for index, future in futures.items():
            # A graceful interrupt stops between results: everything
            # delivered so far is checkpointed by on_result; undelivered
            # futures are cancelled by the shutdown below.
            interrupt.poll()
            try:
                result = future.result(timeout=timeout)
            except (BrokenProcessPool, FuturesTimeoutError, OSError) as exc:
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
        if broken:
            # Salvage whatever already finished; cancel the rest.
            for index, future in futures.items():
                if future.done() and not future.cancelled():
                    try:
                        deliver(index, future.result(timeout=0))
                    except (BrokenProcessPool, FuturesTimeoutError,
                            OSError):
                        pass
                else:
                    future.cancel()
    finally:
        pool.shutdown(wait=not broken, cancel_futures=True)
    return broken


def run_tasks(tasks: Sequence[Task] | Iterable[Task], jobs: int = 1,
              timeout: float | None = None,
              progress: ProgressFn | None = None,
              retries: int = 1, backoff: float = 0.25,
              on_result: Callable[[int, object], None] | None = None) -> list:
    """Run *tasks* and return their results in task order.

    ``jobs <= 1`` (after :func:`resolve_jobs`) executes inline.  Otherwise
    tasks are fanned out on a ``ProcessPoolExecutor``; *timeout* bounds
    each task's wall-clock wait in seconds.

    Pool-infrastructure failures (worker crash, timeout) are **transient**:
    already-finished results are salvaged, the pool is rebuilt and only
    the unfinished cells are resubmitted, up to *retries* times with
    exponential backoff (``backoff * 2**attempt`` seconds); when retries
    are exhausted the remaining cells run serially in-process.  Exceptions
    raised *by a task itself* are **deterministic** and propagate
    immediately — a failing simulation is never retried.

    *on_result* (if given) is called with ``(task_index, result)`` as each
    result lands — delivery order is completion order, exactly once per
    task — so callers can checkpoint incrementally.
    """
    tasks = list(tasks)
    jobs = min(resolve_jobs(jobs), len(tasks))
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
        if jobs <= 1:
            for index, task in enumerate(tasks):
                interrupt.poll()
                deliver(index, _run_inline(task, progress))
            return results

        attempt = 0
        while True:
            pending = [i for i in range(len(tasks))
                       if results[i] is _UNSET]
            if not pending:
                return results
            with spans.span("pool_round", cat="pool",
                            pending=len(pending), attempt=attempt):
                broken = _run_pool_round(tasks, pending, jobs, timeout,
                                         progress, deliver, submitted)
            if not broken:
                return results
            if attempt >= retries:
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
        if remaining:
            metrics.inc("pool_fallback_tasks", remaining)
        if progress and remaining:
            progress(f"  retries exhausted; computing {remaining} remaining "
                     f"tasks serially in-process")
        with spans.span("serial_fallback", cat="pool", tasks=remaining):
            for index, task in enumerate(tasks):
                if results[index] is _UNSET:
                    interrupt.poll()
                    deliver(index, _run_inline(task, progress))
        return results


# ----------------------------------------------------------------------

def prepare_many(workloads: Sequence[Workload], config: MachineConfig,
                 jobs: int = 1, cache=None,
                 timeout: float | None = None,
                 progress: ProgressFn | None = None) -> list:
    """Compile *workloads* (in order), fanning misses out over *jobs*.

    The cache is probed in the parent first, so warm entries never touch
    the pool (and a fully warm run performs zero ``prepare()`` calls);
    only the misses are submitted as worker tasks, which store their
    results back into the cache as they finish.
    """
    from .cache import compile_key

    compiled: list = [None] * len(workloads)
    miss_indices: list[int] = []
    for index, workload in enumerate(workloads):
        entry = cache.load(compile_key(workload, config)) \
            if cache is not None else None
        if entry is not None:
            if progress:
                progress(f"  prepare {workload.name}: cached")
            compiled[index] = entry
        else:
            miss_indices.append(index)

    if miss_indices:
        cache_dir = str(cache.root) if cache is not None else None
        tasks = [
            Task(label=f"prepare {workloads[i].name}", fn=prepare_task,
                 args=(workloads[i], config, cache_dir))
            for i in miss_indices
        ]
        fresh = run_tasks(tasks, jobs=jobs, timeout=timeout,
                          progress=progress)
        for index, cw in zip(miss_indices, fresh):
            compiled[index] = cw
    return compiled
