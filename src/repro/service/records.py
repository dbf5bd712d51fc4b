"""Job records and specs: the unit of work the simulation service moves
through its spool directories.

A **job spec** is the client-supplied description of a run — today one
kind, ``"suite"``: a grid of benchmarks x machine models at quick or
paper scale.  :func:`normalize_spec` canonicalizes and validates it
(sorted benchmarks, default modes, typed scalars) so that two clients
asking for the same grid in different key orders produce the **same
canonical spec** and therefore the same :func:`job_dedup_key` — which is
how N identical submissions share one execution.  The dedup key hashes
the canonical spec together with the machine-config fingerprint and the
package version, mirroring :func:`repro.experiments.cache.compile_key` /
:func:`repro.experiments.checkpoint.suite_key`: a code upgrade or config
change never aliases an old job's results.

A **job record** is one JSON file holding everything durable about a
job: identity, spec, state, attempt/lease bookkeeping, and the terminal
outcome (including the captured traceback for quarantined poison jobs).
The record is small and rewritten atomically on every transition; the
(potentially large) result payload lives in a separate file referenced
by ``result_path``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

from ..config import MachineConfig
from ..errors import ConfigError
from ..experiments.cache import code_digest, config_fingerprint
from ..experiments.models import MODEL_ORDER
from ..workloads import WORKLOADS_BY_NAME

#: Spool states a job moves through (one subdirectory per state).
STATES = ("pending", "leased", "done", "failed", "quarantined")

#: Job kinds the service knows how to execute.
KINDS = ("suite",)


def new_job_id() -> str:
    """Time-sortable, process-unique job identifier.

    Lexicographic order equals submission order (zero-padded
    nanosecond stamp), which gives the queue FIFO claiming for free.
    """
    return f"{time.time_ns():020d}-{os.getpid():x}"


def normalize_spec(spec: dict) -> dict:
    """Validate and canonicalize a job spec (raises ``ConfigError``).

    Canonical form — stable key set, typed values, sorted ``modes``
    subsequence of ``MODEL_ORDER`` — so byte equality of the canonical
    JSON is semantic equality of the request.  ``modes`` must include the
    ``superscalar`` baseline, since the result payload reports every
    speedup over it.  ``benchmarks`` order is preserved (it is the grid
    order and changes the payload layout) but names are only checked for
    *type* here, not existence: an unknown benchmark is a deterministic
    execution failure, which is exactly how poison jobs reach quarantine
    instead of being rejected at the door.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"job spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind", "suite")
    if kind not in KINDS:
        raise ConfigError(
            f"unknown job kind {kind!r} (supported: {', '.join(KINDS)})")
    unknown = set(spec) - {"kind", "benchmarks", "modes", "quick", "seed",
                           "verify", "cell_delay"}
    if unknown:
        raise ConfigError(
            f"unknown job spec field(s): {', '.join(sorted(map(str, unknown)))}")

    benchmarks = spec.get("benchmarks")
    if benchmarks is not None:
        if (not isinstance(benchmarks, list) or not benchmarks or
                not all(isinstance(b, str) for b in benchmarks)):
            raise ConfigError("benchmarks must be a non-empty list of names")
    modes = spec.get("modes")
    if modes is None:
        modes = list(MODEL_ORDER)
    else:
        if (not isinstance(modes, list) or not modes or
                not all(isinstance(m, str) for m in modes)):
            raise ConfigError("modes must be a non-empty list of model names")
        bad = [m for m in modes if m not in MODEL_ORDER]
        if bad:
            raise ConfigError(
                f"unknown model(s) {', '.join(bad)} "
                f"(have: {', '.join(MODEL_ORDER)})")
        if "superscalar" not in modes:
            raise ConfigError(
                "modes must include the 'superscalar' baseline: the "
                "result payload reports every speedup over it")
        # Canonical order = MODEL_ORDER subsequence; de-duplicated.
        modes = [m for m in MODEL_ORDER if m in modes]
    seed = spec.get("seed", 2003)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    cell_delay = spec.get("cell_delay", 0.0)
    if not isinstance(cell_delay, (int, float)) or isinstance(cell_delay, bool) \
            or cell_delay < 0 or cell_delay > 60:
        raise ConfigError("cell_delay must be a number of seconds in [0, 60]")
    return {
        "kind": kind,
        "benchmarks": list(benchmarks) if benchmarks is not None else None,
        "modes": modes,
        "quick": bool(spec.get("quick", True)),
        "seed": seed,
        "verify": bool(spec.get("verify", False)),
        "cell_delay": float(cell_delay),
    }


def job_dedup_key(spec: dict, config: MachineConfig) -> str:
    """Content-addressed identity of one job request.

    Two submissions with the same canonical spec, machine configuration
    and simulator code (:func:`~repro.experiments.cache.code_digest`)
    collapse onto one execution; anything else — a different seed, scale,
    mode set or code — is a different job.
    """
    text = "\x1f".join((
        "hidisc-job", code_digest(), config_fingerprint(config),
        json.dumps(spec, sort_keys=True, separators=(",", ":")),
    ))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def normalize_trace(trace) -> dict | None:
    """Sanitize a client-supplied trace context (never raises).

    The context carries only what the job-trace stitcher needs to draw
    the client's lane and link it as the root of the job's span tree:
    the submitting pid, its submit-span id, and the wall-clock submit
    stamp.  It is advisory telemetry, not part of the job's identity —
    callers pop it off the request body *before* :func:`normalize_spec`,
    so it can never perturb :func:`job_dedup_key`.  Malformed contexts
    degrade to ``None`` (an untraced submit) rather than rejecting the
    job.
    """
    if not isinstance(trace, dict):
        return None
    pid = trace.get("pid")
    span = trace.get("span")
    t_ns = trace.get("t_ns")
    if not isinstance(pid, int) or isinstance(pid, bool) or pid < 0:
        return None
    if not isinstance(span, str) or not span or len(span) > 64:
        return None
    if not isinstance(t_ns, int) or isinstance(t_ns, bool) or t_ns <= 0:
        return None
    return {"pid": pid, "span": span, "t_ns": t_ns}


def known_benchmarks() -> list[str]:
    """Registered benchmark names (for client-side hints, not gating)."""
    return sorted(WORKLOADS_BY_NAME)


@dataclass
class JobRecord:
    """Everything durable about one job (one JSON spool file)."""

    job_id: str
    spec: dict
    dedup_key: str
    state: str = "pending"
    created: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)
    #: executions charged against the retry budget (failed attempts and
    #: expired leases; a graceful drain requeue is attempt-neutral).
    attempts: int = 0
    max_attempts: int = 3
    #: earliest wall-clock second a worker may claim this job (retry
    #: backoff; 0 = immediately).
    not_before: float = 0.0
    #: how many submissions this record absorbed (1 + dedup hits).
    submitted: int = 1
    #: lease bookkeeping while ``state == "leased"``:
    #: {"worker", "pid", "deadline", "renewals"}.
    lease: dict | None = None
    #: terminal disposition: completed | failed | quarantined | cancelled.
    outcome: str | None = None
    error: str | None = None
    traceback: str | None = None
    result_path: str | None = None
    #: grid cells reported finished so far (events carry the detail).
    cells_done: int = 0
    #: client trace context ({"pid", "span", "t_ns"}) linking the
    #: submitter's span tree to the job's — see :func:`normalize_trace`.
    trace: dict | None = None

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        fields = {k: data[k] for k in cls.__dataclass_fields__ if k in data}
        return cls(**fields)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "JobRecord":
        data = json.loads(text)
        if not isinstance(data, dict) or "job_id" not in data:
            raise ValueError("not a job record")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def touch(self) -> None:
        self.updated = time.time()

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "quarantined")

    def summary(self) -> dict:
        """Compact view for listings (``GET /jobs``, ``hidisc jobs``)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "outcome": self.outcome,
            "kind": self.spec.get("kind"),
            "benchmarks": self.spec.get("benchmarks"),
            "modes": self.spec.get("modes"),
            "quick": self.spec.get("quick"),
            "attempts": self.attempts,
            "submitted": self.submitted,
            "cells_done": self.cells_done,
            "created": self.created,
            "updated": self.updated,
            "error": self.error,
        }
