"""Thin stdlib HTTP client for the simulation service.

Backs ``hidisc submit | jobs | cancel`` and the tests; uses only
``urllib`` so the client is importable everywhere the package is.
Server-side error envelopes (``{"error": ...}``) are re-raised as
:class:`~repro.errors.ServiceError` — and HTTP 429 specifically as
:class:`~repro.errors.BackpressureError` so callers can implement
retry-after-drain without string matching.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from collections.abc import Iterator

from ..errors import BackpressureError, ServiceError
from .queue import POLL_SECONDS


class ServiceClient:
    """Client for one ``hidisc serve`` endpoint (``http://host:port``)."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None = None,
                 timeout: float | None = None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            return urllib.request.urlopen(
                request, timeout=timeout if timeout is not None
                else self.timeout)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                payload = json.loads(exc.read().decode())
                detail = payload.get("error", "")
            except Exception:
                pass
            if exc.code == 429:
                # Surface admission control as the typed error the local
                # queue raises, parsing nothing: depth/limit live in the
                # message already.
                raise _backpressure(detail or "job queue is full")
            raise ServiceError(
                f"{method} {path} -> HTTP {exc.code}"
                + (f": {detail}" if detail else ""))
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.url}: {exc.reason} — "
                f"is `hidisc serve` running?")

    def _json(self, method: str, path: str, body: dict | None = None):
        with self._request(method, path, body) as response:
            return json.loads(response.read().decode())

    # ------------------------------------------------------------------
    def submit(self, spec: dict, trace: dict | None = None) -> dict:
        """POST a job spec; returns ``{job_id, state, created, submitted}``.

        *trace* is an optional client trace context
        (``{"pid", "span", "t_ns"}``) that rides beside the spec and
        lets ``hidisc jobs trace`` draw the submitter's lane; it never
        affects dedup.
        """
        body = dict(spec)
        if trace is not None:
            body["trace"] = trace
        return self._json("POST", "/jobs", body)

    def job(self, job_id: str) -> dict:
        """The full job record (state, attempts, error, traceback, ...)."""
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._json("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._json("DELETE", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The completed suite payload (HTTP 409 until the job is done)."""
        return self._json("GET", f"/jobs/{job_id}/result")

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def fleet(self) -> dict:
        """``GET /health`` — readiness + per-worker fleet detail.

        Raises :class:`~repro.errors.ServiceError` (HTTP 503) when no
        worker is alive; use :meth:`health` for unconditional liveness.
        """
        return self._json("GET", "/health")

    def metrics(self) -> dict:
        """``GET /metrics?format=json`` — the fleet metrics payload
        (``{"metrics", "counts", "workers", ...}``)."""
        return self._json("GET", "/metrics?format=json")

    def metrics_text(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition."""
        with self._request("GET", "/metrics") as response:
            return response.read().decode()

    def events(self, job_id: str, follow: bool = False,
               timeout: float | None = None) -> Iterator[dict]:
        """Yield the job's JSONL events; ``follow=True`` tails the stream
        until the job reaches a terminal state (server closes it)."""
        suffix = "?follow=1" if follow else ""
        stream_timeout = timeout if timeout is not None else \
            (None if follow else self.timeout)
        with self._request("GET", f"/jobs/{job_id}/events{suffix}",
                           timeout=stream_timeout) as response:
            for line in response:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if isinstance(event, dict):
                    yield event

    # ------------------------------------------------------------------
    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Poll until the job is terminal; returns the final record."""
        import time
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record.get("state") in ("done", "failed", "quarantined"):
                return record
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for "
                    f"{job_id} (state: {record.get('state')})")
            time.sleep(POLL_SECONDS)


def _backpressure(detail: str) -> BackpressureError:
    error = BackpressureError(0, 0)
    error.args = (detail,)
    return error
