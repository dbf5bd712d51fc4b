"""``hidisc serve``: HTTP front end + worker supervisor + lease reaper.

One ``ServiceServer`` owns three things over a shared :class:`JobQueue`:

* an HTTP API on a stdlib ``ThreadingHTTPServer`` (no new dependencies)::

      POST   /jobs               submit a job spec (JSON)  -> 201/200/400/429
      GET    /jobs               list job summaries
      GET    /jobs/<id>          full job record (incl. traceback)
      GET    /jobs/<id>/result   the completed suite payload
      GET    /jobs/<id>/events   JSONL event stream (?follow=1 tails it)
      DELETE /jobs/<id>          request cancellation
      GET    /healthz            queue depths + worker liveness

* N worker subprocesses (``python -m repro.service.worker``), supervised:
  a worker that dies is respawned, and whatever job it held is recovered
  by lease expiry, not by the supervisor guessing;

* a reaper thread calling :meth:`JobQueue.expire_leases` every ttl/3 —
  the only component that turns a SIGKILL'd worker's job back into a
  pending one.

Shutdown discipline: ``serve_forever`` runs the HTTP server in a
*background* thread and parks the main thread on an event, because
calling ``HTTPServer.shutdown()`` from a signal handler inside the
serving thread deadlocks.  SIGTERM/SIGINT → stop admitting (HTTP goes
down last so in-flight requests finish), SIGTERM the workers, wait for
them to release/checkpoint their jobs (exit 0), then stop the reaper and
return.  Anything still leased after the grace period is SIGKILLed and
left to lease expiry on the next start — crash-safety is the fallback
for the graceful path, not a separate mechanism.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..errors import BackpressureError, ConfigError, ServiceError
from ..telemetry import metrics
from ..telemetry.metrics import render_prometheus
from .observability import fleet_metrics, read_worker_statuses
from .queue import POLL_SECONDS, JobQueue

#: Default TCP port ("HI" = 0x4849 is taken; pick something memorable).
DEFAULT_PORT = 8203


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.service`` (a ServiceServer)."""

    server_version = f"hidisc-service/{__version__}"
    protocol_version = "HTTP/1.0"  # close-delimited bodies; streaming-safe

    # ------------------------------------------------------------------
    @property
    def service(self) -> "ServiceServer":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        self.service.log(f"http: {self.address_string()} {fmt % args}")

    def _send_json(self, code: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True, indent=1).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ConfigError("request body must be a JSON job spec")
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}")
        return data

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        metrics.inc("http_requests", method="POST")
        if urlparse(self.path).path != "/jobs":
            return self._error(404, f"no such endpoint: POST {self.path}")
        if self.service.draining:
            return self._error(503, "service is draining; resubmit after "
                                    "restart")
        try:
            spec = self._read_body()
            # The optional trace context rides beside the spec in the
            # same body; pop it before validation so it can never enter
            # normalize_spec or the dedup key.
            trace = spec.pop("trace", None) if isinstance(spec, dict) \
                else None
            record, created = self.service.queue.submit(spec, trace=trace)
        except BackpressureError as exc:
            return self._error(429, str(exc))
        except ConfigError as exc:
            return self._error(400, str(exc))
        self._send_json(201 if created else 200,
                        {"job_id": record.job_id, "state": record.state,
                         "created": created, "submitted": record.submitted})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib name
        parts = urlparse(self.path).path.strip("/").split("/")
        if len(parts) != 2 or parts[0] != "jobs":
            return self._error(404, f"no such endpoint: DELETE {self.path}")
        try:
            state = self.service.queue.request_cancel(parts[1])
        except ServiceError as exc:
            return self._error(404, str(exc))
        self._send_json(200, {"job_id": parts[1], "state": state})

    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        url = urlparse(self.path)
        parts = url.path.strip("/").split("/")
        metrics.inc("http_requests", method="GET")
        if url.path == "/healthz":
            # Liveness: always 200 while the process serves (probes and
            # the client's health() rely on it never gating on workers).
            return self._send_json(200, self.service.health())
        if url.path == "/health":
            # Readiness: 503 until at least one worker is alive.
            payload = self.service.health()
            code = 200 if payload.get("workers_alive", 0) > 0 else 503
            return self._send_json(code, payload)
        if url.path == "/metrics":
            payload = self.service.metrics_payload()
            wants_json = parse_qs(url.query).get("format", [""])[0] == "json"
            if wants_json:
                return self._send_json(200, payload)
            body = render_prometheus(payload["metrics"]).encode()
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return None
        if parts[0] != "jobs":
            return self._error(404, f"no such endpoint: GET {self.path}")
        if len(parts) == 1:
            jobs = [r.summary() for r in self.service.queue.list_jobs()]
            return self._send_json(200, {"jobs": jobs})
        record = self.service.queue.get(parts[1])
        if record is None:
            return self._error(404, f"unknown job {parts[1]!r}")
        if len(parts) == 2:
            return self._send_json(200, record.as_dict())
        if len(parts) == 3 and parts[2] == "result":
            payload = self.service.queue.load_result(record)
            if payload is None:
                return self._error(
                    409, f"job {record.job_id} has no result "
                         f"(state: {record.state})")
            return self._send_json(200, payload)
        if len(parts) == 3 and parts[2] == "events":
            follow = parse_qs(url.query).get("follow", ["0"])[0] in \
                ("1", "true", "yes")
            return self._stream_events(parts[1], follow)
        return self._error(404, f"no such endpoint: GET {self.path}")

    def _stream_events(self, job_id: str, follow: bool) -> None:
        """JSONL over a close-delimited response; ``follow`` tails the
        stream until the job reaches a terminal state."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        path = self.service.queue.events_path(job_id)
        offset = 0
        try:
            while True:
                try:
                    with path.open("r") as fh:
                        fh.seek(offset)
                        chunk = fh.read()
                        offset = fh.tell()
                except OSError:
                    chunk = ""
                if chunk:
                    self.wfile.write(chunk.encode())
                    self.wfile.flush()
                if not follow:
                    return
                record = self.service.queue.get(job_id)
                if record is None or record.terminal:
                    # Flush whatever the terminal transition appended.
                    try:
                        with path.open("r") as fh:
                            fh.seek(offset)
                            tail = fh.read()
                    except OSError:
                        tail = ""
                    if tail:
                        self.wfile.write(tail.encode())
                    return
                if self.service.stopped.wait(0.2):
                    return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up


class _API(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class ServiceServer:
    """The ``hidisc serve`` daemon: queue + workers + reaper + HTTP."""

    def __init__(self, root, *, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, workers: int = 2,
                 lease_ttl: float = 30.0, max_depth: int = 64,
                 max_attempts: int = 3, retry_backoff: float = 0.5,
                 drain_grace: float = 30.0, stream=None) -> None:
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        self.queue = JobQueue(root, max_depth=max_depth,
                              lease_ttl=lease_ttl,
                              max_attempts=max_attempts,
                              retry_backoff=retry_backoff)
        self.host = host
        self.port = port
        self.workers = workers
        self.drain_grace = drain_grace
        self.stream = stream if stream is not None else sys.stderr
        self.stopped = threading.Event()
        self.draining = False
        self.restarts = 0
        self._procs: dict[str, subprocess.Popen] = {}
        self._httpd: _API | None = None
        self._http_thread: threading.Thread | None = None
        self._reaper: threading.Thread | None = None

    def log(self, message: str) -> None:
        try:
            self.stream.write(f"[serve] {message}\n")
            self.stream.flush()
        except OSError:  # pragma: no cover - stream gone during teardown
            pass

    # ------------------------------------------------------------------
    # Workers.

    def _spawn_worker(self, name: str) -> None:
        argv = [sys.executable, "-m", "repro.service.worker",
                "--root", str(self.queue.root), "--id", name,
                "--lease-ttl", str(self.queue.lease_ttl),
                "--max-attempts", str(self.queue.max_attempts),
                "--retry-backoff", str(self.queue.retry_backoff),
                # The spool lives at <cache>/service, so the cache root
                # is its parent — pinning it keeps worker results and
                # ledger entries in the same store the server accounts.
                "--cache-dir", str(self.queue.root.parent)]
        self._procs[name] = subprocess.Popen(argv)
        self.log(f"worker {name} up (pid {self._procs[name].pid})")

    def _supervise(self) -> None:
        """Respawn dead workers (crash recovery is the reaper's job)."""
        if self.draining:
            return
        for name, proc in list(self._procs.items()):
            code = proc.poll()
            if code is None:
                continue
            self.restarts += 1
            metrics.inc("worker_restarts")
            self.log(f"worker {name} died (exit {code}); respawning — "
                     f"its lease will expire and the job will requeue")
            self._spawn_worker(name)

    def worker_pids(self) -> dict[str, int | None]:
        return {name: (proc.pid if proc.poll() is None else None)
                for name, proc in self._procs.items()}

    # ------------------------------------------------------------------
    # Reaper.

    def _reap_loop(self) -> None:
        interval = max(self.queue.lease_ttl / 3.0, 0.1)
        while not self.stopped.wait(interval):
            try:
                acted = self.queue.expire_leases()
            except Exception as exc:  # pragma: no cover - defensive
                self.log(f"reaper error: {exc}")
                continue
            for job_id in acted:
                self.log(f"lease expired on {job_id}; recovered")

    # ------------------------------------------------------------------
    # Lifecycle.

    def start(self) -> None:
        """Bring everything up (non-blocking); pair with serve_forever."""
        self.queue.ensure_layout()
        recovered = self.queue.expire_leases()
        if recovered:
            self.log(f"startup recovery: requeued/quarantined "
                     f"{len(recovered)} stranded job(s)")
        self._httpd = _API((self.host, self.port), _Handler)
        self._httpd.service = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]  # resolve port 0
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="http", daemon=True)
        self._http_thread.start()
        self._reaper = threading.Thread(target=self._reap_loop,
                                        name="reaper", daemon=True)
        self._reaper.start()
        for n in range(self.workers):
            self._spawn_worker(f"w{n}")
        self.log(f"listening on http://{self.host}:{self.port} "
                 f"({self.workers} workers, lease_ttl "
                 f"{self.queue.lease_ttl}s, spool {self.queue.root})")

    def serve_forever(self, interrupt_ctx=None) -> int:
        """Supervise until SIGTERM/SIGINT (or ``stopped`` is set), then
        drain.  *interrupt_ctx* is an entered
        :class:`~repro.experiments.interrupt.GracefulInterrupt`; the CLI
        passes its own so the ledger can record the outcome.
        """
        while not self.stopped.is_set():
            if interrupt_ctx is not None and \
                    interrupt_ctx.triggered is not None:
                self.log(f"{interrupt_ctx.triggered} received; draining")
                break
            self._supervise()
            self.stopped.wait(POLL_SECONDS)
        return self.drain()

    def drain(self) -> int:
        """Graceful shutdown; returns the process exit code (0)."""
        self.draining = True
        deadline = time.monotonic() + self.drain_grace
        for name, proc in self._procs.items():
            if proc.poll() is None:
                proc.terminate()  # SIGTERM -> worker releases at next cell
        for name, proc in self._procs.items():
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                proc.wait(timeout=remaining)
                self.log(f"worker {name} drained (exit {proc.returncode})")
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.log(f"worker {name} did not drain in time; killed — "
                         f"its job recovers via lease expiry on restart")
        self.stopped.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
        counts = self.queue.counts()
        self.log(f"drained; queue now {counts}")
        return 0

    def health(self) -> dict:
        statuses = read_worker_statuses(self.queue)
        supervised = self.worker_pids()
        alive = sum(1 for pid in supervised.values() if pid is not None)
        # Externally-started workers (tests, manual `python -m ...`)
        # count through their published status files.
        alive = max(alive,
                    sum(1 for s in statuses if s.get("alive")))
        return {
            "version": __version__,
            "draining": self.draining,
            "counts": self.queue.counts(),
            "workers": supervised,
            "workers_alive": alive,
            "fleet": [{k: s.get(k) for k in
                       ("worker", "pid", "state", "job", "jobs_run",
                        "age", "alive")}
                      for s in statuses],
            "restarts": self.restarts,
            "spool": str(self.queue.root),
        }

    def metrics_payload(self) -> dict:
        """The ``GET /metrics`` document: the fleet-merged snapshot plus
        the context ``hidisc jobs top`` renders from (JSON format)."""
        statuses = read_worker_statuses(self.queue)
        snapshot = fleet_metrics(
            self.queue, base_snapshot=metrics.combined_snapshot(),
            statuses=statuses,
            extra_gauges={"service_draining": 1.0 if self.draining
                          else 0.0})
        return {
            "version": __version__,
            "metrics": snapshot,
            "counts": self.queue.counts(),
            "draining": self.draining,
            "workers": [{k: s.get(k) for k in
                         ("worker", "pid", "state", "job", "jobs_run",
                          "age", "alive")}
                        for s in statuses],
        }
