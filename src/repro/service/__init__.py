"""Durable simulation service: crash-safe queue, leased workers, HTTP API.

``hidisc serve`` turns the repository's one-shot experiment runner into a
long-running service without inventing new persistence: the job queue is
spool directories of atomically-renamed JSON records under the run-cache
root, results are content-addressed through the same
:mod:`repro.experiments.cache` / :mod:`repro.experiments.checkpoint`
machinery the CLI uses, and every failure mode (worker SIGKILL, poison
spec, overload, operator Ctrl-C) degrades to a defined state instead of
a wedged pool.  See DESIGN §9 for the state machine and the
crash-consistency argument.
"""

from .client import ServiceClient
from .executor import LeaseLost, execute_job
from .observability import (
    fleet_metrics,
    publish_worker_status,
    read_worker_statuses,
    render_fleet_line,
    render_fleet_table,
    resolve_job_id,
    run_top,
    stitch_job_trace,
)
from .queue import SERVICE_DIR, JobQueue
from .records import (
    KINDS,
    STATES,
    JobRecord,
    job_dedup_key,
    new_job_id,
    normalize_spec,
    normalize_trace,
)
from .server import DEFAULT_PORT, ServiceServer
from .worker import LeaseKeeper, Worker

__all__ = [
    "DEFAULT_PORT",
    "JobQueue",
    "JobRecord",
    "KINDS",
    "LeaseKeeper",
    "LeaseLost",
    "SERVICE_DIR",
    "STATES",
    "ServiceClient",
    "ServiceServer",
    "Worker",
    "execute_job",
    "fleet_metrics",
    "job_dedup_key",
    "new_job_id",
    "normalize_spec",
    "normalize_trace",
    "publish_worker_status",
    "read_worker_statuses",
    "render_fleet_line",
    "render_fleet_table",
    "resolve_job_id",
    "run_top",
    "stitch_job_trace",
]
