"""Execute one claimed job: spec -> suite run -> durable result payload.

The executor is deliberately thin glue over machinery that already knows
how to survive interruptions:

* every job runs through :func:`repro.experiments.suite.run_suite` with
  ``resume=True`` over the shared :class:`~repro.experiments.cache.RunCache`
  — a job that was killed (worker SIGKILL, lease expiry, graceful drain)
  resumes from its per-cell checkpoints instead of recomputing, and the
  simulators are deterministic, so the eventual payload is byte-identical
  to an uninterrupted run modulo wall-clock fields
  (:func:`repro.telemetry.diff.diff_payloads` ignores exactly those);
* the suite's *on_cell* hook is where the service's liveness concerns
  meet the run: after every grid cell the executor records progress,
  emits a job event, polls the cancellation marker, honours the process
  interrupt flag (graceful drain), and aborts if the heartbeat thread
  reports the lease lost.

The result payload is written atomically next to the spool
(``results/<job_id>.json``) *before* the job record transitions to
``done`` — a crash between the two steps leaves a payload file without a
done record, which is re-created identically on retry.
"""

from __future__ import annotations

import json
import time

from .. import store
from ..config import MachineConfig
from ..errors import JobCancelled, ServiceError
from ..experiments.cache import RunCache
from ..experiments.suite import run_suite
from ..telemetry import metrics
from ..workloads import all_workloads, get_workload, quick_workloads
from .queue import JobQueue
from .records import JobRecord


class LeaseLost(ServiceError):
    """This worker's lease expired mid-run; abandon the job silently.

    Not a failure: the reaper already requeued the job and another worker
    owns it.  Charging an attempt or writing any transition here would
    corrupt the new owner's bookkeeping.
    """


def _spec_workloads(spec: dict):
    benchmarks = spec.get("benchmarks")
    quick = bool(spec.get("quick", True))
    seed = int(spec.get("seed", 2003))
    if benchmarks is None:
        return list(quick_workloads(seed) if quick else all_workloads(seed))
    # Unknown names raise ConfigError *here*, at execution time — this is
    # the deterministic-failure path that retries and then quarantines.
    return [get_workload(name, quick=quick, seed=seed) for name in benchmarks]


def write_result(queue: JobQueue, job_id: str, payload: dict) -> str:
    """Atomically persist *payload* as the job's result; returns the path."""
    path = queue.result_path(job_id)
    text = json.dumps(payload, sort_keys=True, indent=1)
    store.atomic_write(path, lambda fh: fh.write(text.encode()))
    return str(path)


def execute_job(queue: JobQueue, record: JobRecord, worker: str,
                *, cache: RunCache | None = None,
                should_stop=None, lease_lost=None,
                progress=None, tracer=None) -> str:
    """Run *record*'s suite and persist its payload; returns the path.

    Raises :class:`JobCancelled` when the job's cancel marker appears,
    :class:`~repro.errors.InterruptedRun` on graceful drain (via the
    process interrupt flag polled inside ``run_suite``),
    :class:`LeaseLost` when *lease_lost* (a ``threading.Event`` fed by
    the heartbeat thread) fires, and whatever the simulation raises on a
    genuinely broken spec.  The caller maps each to the right queue
    transition.  *tracer* (a :class:`~repro.telemetry.spans.SpanTracer`)
    gets one retro-recorded span per grid cell.
    """
    spec = record.spec
    config = MachineConfig()
    cache = cache if cache is not None else RunCache()
    cell_delay = float(spec.get("cell_delay", 0.0))
    cell_start = [time.time_ns()]

    def on_cell(benchmark: str, mode: str, resumed: bool) -> None:
        if lease_lost is not None and lease_lost.is_set():
            raise LeaseLost(f"lease on {record.job_id} lost mid-run")
        now_ns = time.time_ns()
        cell_ns = max(now_ns - cell_start[0], 0)
        metrics.inc("job_cells_completed")
        metrics.observe("job_cell_seconds", cell_ns / 1e9)
        if tracer is not None:
            tracer.record_span(f"cell {benchmark}/{mode}",
                               cell_start[0], cell_ns, cat="cell",
                               benchmark=benchmark, mode=mode,
                               resumed=resumed)
        cell_start[0] = now_ns
        queue.record_cell(record.job_id, worker)
        queue.append_event(record.job_id, "cell", benchmark=benchmark,
                           mode=mode, resumed=resumed, worker=worker)
        if queue.cancel_marker(record.job_id).exists():
            raise JobCancelled(f"job {record.job_id} cancelled")
        if should_stop is not None and should_stop():
            # Graceful drain requested between cells: hand the job back
            # attempt-neutrally (the caller catches InterruptedRun).
            from ..errors import InterruptedRun
            raise InterruptedRun("SIGTERM")
        if cell_delay > 0 and not resumed:
            # Test hook: slow the grid down so kill-timing is
            # deterministic (only for freshly computed cells — resumed
            # cells fly by so drained jobs finish fast).
            import time as _time
            _time.sleep(cell_delay)

    suite = run_suite(
        config=config,
        quick=bool(spec.get("quick", True)),
        seed=int(spec.get("seed", 2003)),
        modes=tuple(spec.get("modes") or ()),
        workloads=_spec_workloads(spec),
        cache=cache,
        resume=True,
        verify=bool(spec.get("verify", False)),
        progress=progress,
        on_cell=on_cell,
    )
    return write_result(queue, record.job_id, suite.to_payload())
