"""The service-quick workload: ``hidisc serve`` and one closed-loop client.

One session starts ``hidisc serve --workers 1 --port 0`` over a fresh
cache directory, waits for ``GET /health`` to return 200 (the set-up
time), then submits ``SERVICE_JOBS`` quick-suite jobs one after another,
each with its own seed so no submission is a dedup hit.  Each job is
polled every :data:`POLL_S` until it is terminal, and its result is
fetched.

Every client call carries an explicit timeout; a call that raises or
times out marks its job failed instead of ending the run.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from harness import SERVICE_JOBS, Tracer, child_env, median, self_times, \
    tree_mb, vm_hwm_mb, write_chrome_trace

from repro.errors import ServiceError
from repro.experiments.cache import SERVICE_DIR, RunCache
from repro.service import JobQueue, ServiceClient

#: ``ServiceClient.wait``'s default poll period.
POLL_S = 0.2
#: Timeout handed to every client call.
CALL_TIMEOUT_S = 10.0
#: Longest a job may take from submit to terminal state.
JOB_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0

CLIENT_ERRORS = (ServiceError, OSError, ValueError,
                 http.client.HTTPException)
TERMINAL = ("done", "failed", "quarantined")


def _group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group *pgid*."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


class Server:
    """One ``hidisc serve`` process group (server plus its worker)."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None

    def start(self) -> float:
        """Start the service; returns seconds until ``/health`` is 200."""
        self.work.mkdir(parents=True, exist_ok=True)
        log_path = self.work / "serve.log"
        start = time.perf_counter()
        with log_path.open("w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.cli", "serve",
                 "--workers", "1", "--port", "0"],
                env=child_env(self.work / "cache"), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        deadline = start + START_TIMEOUT_S
        while self.client is None:
            match = re.search(r"listening on (http://\S+)",
                              log_path.read_text())
            if match:
                self.client = ServiceClient(match.group(1),
                                            timeout=CALL_TIMEOUT_S)
            else:
                self._wait_step(deadline)
        while True:
            try:
                self.client.fleet()
                return time.perf_counter() - start
            except CLIENT_ERRORS:
                self._wait_step(deadline)

    def _wait_step(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"hidisc serve exited with {self.proc.returncode}"
                               f" during start-up; see {self.work}/serve.log")
        if time.perf_counter() > deadline:
            raise RuntimeError("hidisc serve did not become healthy in "
                               f"{START_TIMEOUT_S:.0f}s")
        time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its live workers."""
        workers = self.client.fleet()["workers"].values()
        return sum(vm_hwm_mb(pid) for pid in
                   [self.proc.pid, *(pid for pid in workers if pid)])

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole process group,
        the worker included, is gone."""
        if self.proc is None:
            return
        try:
            self.proc.terminate()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            deadline = time.monotonic() + 10.0
            while _group_pids(self.proc.pid) and time.monotonic() < deadline:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            self.proc.wait()


def _poll(client: ServiceClient, job: dict) -> str | None:
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    while time.perf_counter() < deadline:
        try:
            state = client.job(job["job_id"]).get("state")
        except CLIENT_ERRORS as exc:
            job["failed_calls"] += 1
            job["error"] = f"GET /jobs/{job['job_id']}: {exc!r}"
            state = None
        if state in TERMINAL:
            return state
        time.sleep(POLL_S)
    job["error"] = f"not terminal after {JOB_TIMEOUT_S:.0f}s"
    return None


def no_span(name: str, **args):
    return nullcontext()


def run_job(client: ServiceClient, seed: int, span=no_span) -> dict:
    """Submit one quick-suite job, poll it to a terminal state and fetch
    its result; ``ok`` is true only if every call succeeded."""
    job = {"seed": seed, "job_id": None, "state": None, "failed_calls": 0,
           "payload": None, "wait_sid": None}
    start = time.perf_counter()
    with span("service.job", seed=seed):
        try:
            with span("service.submit"):
                job["job_id"] = client.submit(
                    {"kind": "suite", "quick": True, "seed": seed})["job_id"]
            with span("service.wait") as sid:
                job["wait_sid"] = sid
                job["state"] = _poll(client, job)
            if job["state"] == "done":
                with span("service.result"):
                    job["payload"] = client.result(job["job_id"])
        except CLIENT_ERRORS as exc:
            job["failed_calls"] += 1
            job["error"] = repr(exc)
    job["latency_s"] = time.perf_counter() - start
    job["ok"] = job["payload"] is not None and not job["failed_calls"]
    return job


def session(work: Path, seed: int, *, go: bool = True,
            trace_out: Path | None = None) -> dict:
    """One server session; ``go=False`` measures set-up only."""
    server = Server(work)
    tracer = Tracer() if trace_out is not None else None
    span = tracer.span if tracer is not None else no_span
    try:
        out = {"setup_s": server.start()}
        if not go:
            return out
        start = time.perf_counter()
        jobs = []
        with span("e2e.pass"):
            for i in range(SERVICE_JOBS):
                jobs.append(run_job(server.client, seed * 100 + i, span))
                if not jobs[-1]["ok"]:
                    break   # a broken service would fail the rest slowly
        out["wall_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    out["disk_mb"] = tree_mb(work / "cache")
    out["jobs"] = jobs
    if tracer is not None:
        out.update(_layers(work, jobs, tracer))
        write_chrome_trace(tracer.spans, trace_out, pid=1,
                           epoch_ns=tracer.epoch_ns)
    return out


def _layers(work: Path, jobs: list[dict], tracer: Tracer) -> dict:
    """Per-layer metrics of a traced session.

    The four ``service.*`` metrics are per-job medians (they explain
    ``job_p50_s``): client-side submit and result calls, and the queue
    wait and execution read from each job's event log.  The simulator
    layers inside the worker process are totals over all jobs, read from
    the span file the worker persists in the spool.
    """
    queue = JobQueue(work / "cache" / SERVICE_DIR)
    per_job = {"service.submit": [], "service.queue_wait": [],
               "service.exec": [], "service.result": []}
    for s in tracer.spans:
        if s["name"] in per_job:
            per_job[s["name"]].append(s["dur_ns"] / 1e9)
    worker_s: dict[str, float] = {}
    cycles = hits = misses = 0
    for job in jobs:
        if job["job_id"] is None:
            continue
        events = queue.read_events(job["job_id"])
        t = {e["kind"] if e["kind"] != "state" else e.get("state"): e["t"]
             for e in events}
        if {"submitted", "leased", "done"} <= set(t):
            for name, lo, hi in (("service.queue_wait", t["submitted"],
                                  t["leased"]),
                                 ("service.exec", t["leased"], t["done"])):
                per_job[name].append(hi - lo)
                tracer.add(name, int(lo * 1e9) - tracer.epoch_ns,
                           int((hi - lo) * 1e9), job["wait_sid"])
        for record in queue.read_spans(job["job_id"]):
            name = record["name"]
            if record["dur_ns"] is not None:
                worker_s[name] = worker_s.get(name, 0.0) + \
                    record["dur_ns"] / 1e9
            hits += name == "cache_load" and bool(record["args"].get("hit"))
            misses += name == "cache_miss"
        for entry in (job["payload"] or {"benchmarks": {}})["benchmarks"].values():
            cycles += sum(cell["cycles"] for cell in entry["models"].values())
    machine_s = worker_s.get("run_model", 0.0)
    layers = {f"{name}_s": median(values) if values else 0.0
              for name, values in per_job.items()}
    layers.update({
        "experiments.runner.prepare_s": worker_s.get("prepare", 0.0),
        "experiments.cache.store_s": worker_s.get("cache_store", 0.0),
        "experiments.cache.load_s": worker_s.get("cache_load", 0.0),
        "experiments.checkpoint.store_s": worker_s.get("checkpoint_store", 0.0),
        "experiments.cache.entry_mb": sum(
            p.stat().st_size for p in RunCache(work / "cache").entries()) / 1e6,
        "experiments.cache.hits": hits,
        "experiments.cache.misses": misses,
        "sim.machine.run_s": machine_s,
        "sim.machine.cycles": cycles,
        "sim.machine.kcycles_per_s": cycles / machine_s / 1e3
        if machine_s else 0.0,
    })
    return {"layers": layers,
            "unattributed_s": self_times(tracer.spans)["e2e.pass"]}
