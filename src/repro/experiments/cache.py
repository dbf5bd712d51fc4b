"""Persistent run cache: content-addressed store for compiled workloads.

``prepare()`` is the expensive, latency-independent half of every
experiment (functional execution, HiDISC compilation, decoupled trace
generation, queue/CMAS planning).  Its output depends only on the workload
identity, the machine configuration, and the simulator's code — so it can
be memoized on disk and shared between ``run_suite``, ``figure10``, the
single-run ``stats``/``trace`` commands, and repeated invocations.

Design:

* **Content-addressed keys.**  :func:`compile_key` hashes the workload's
  class and scalar construction parameters (name, seed, and the size
  parameters that distinguish ``--quick`` from paper-scale inputs), the
  full ``repr`` of the frozen :class:`~repro.config.MachineConfig` (so a
  changed CMAS trigger distance or latency point misses), and
  :func:`code_digest` — a sha256 of the simulation-relevant source — so
  any edit to the ISA, assembler, slicer, simulator, workloads or
  configuration code misses instead of replaying results computed by
  older code.  The suite-checkpoint and service-dedup keys use the same
  digest.
* **Entry format.**  An entry is a pickled
  :class:`~repro.experiments.runner.CompiledWorkload`, whose traces and
  CMAS plans are columnar (:class:`~repro.sim.trace.Trace`,
  :class:`~repro.sim.trace.CmasPlan`) and so pickle as a few flat int
  lists; loading one costs milliseconds, not a rebuild of per-instruction
  objects.  The digest covers the classes that define the format, so an
  entry written in an older layout is never unpickled by newer code.
* **Atomic writes, tolerant loads** (:mod:`repro.store`).  Concurrent
  runs sharing one cache directory and interrupted runs can never
  publish a half-written entry, and a load that fails to read, unpickle,
  or match its fingerprint is a miss: the bad file is deleted and the
  caller recomputes.  The cache is an accelerator, never a correctness
  dependency.

The CLI exposes the store as ``hidisc cache stats`` / ``hidisc cache
clear`` and every experiment command honours ``--no-cache`` and
``--cache-dir`` (default ``$HIDISC_CACHE_DIR``, falling back to
``~/.cache/hidisc``).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from ..config import MachineConfig
from ..store import CORRUPT, MISSING, dump_pickle, load_pickle
from ..telemetry import metrics, spans
from ..workloads import Workload

#: Environment variable overriding the default cache directory.
CACHE_ENV = "HIDISC_CACHE_DIR"

#: Suffix of cache entry files.
ENTRY_SUFFIX = ".pkl"

#: Subdirectory of the cache root holding suite checkpoints (see
#: :mod:`repro.experiments.checkpoint`).
SUITES_DIR = "suites"

#: Package-relative source paths whose content decides simulated results
#: (see :func:`code_digest`).
RESULT_SOURCES = ("isa", "asm", "slicer", "sim", "workloads", "config.py")

_code_digest: str | None = None

#: Subdirectory of the cache root holding the simulation service's spool
#: (job records, event streams, results, span files — see
#: :mod:`repro.service.queue`).  Defined here, beside the other cache
#: layout constants, so the cache can account the service footprint
#: without importing the service package.
SERVICE_DIR = "service"


def default_cache_dir() -> Path:
    """``$HIDISC_CACHE_DIR``, else ``$XDG_CACHE_HOME/hidisc``, else
    ``~/.cache/hidisc``."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hidisc"


def workload_fingerprint(workload: Workload) -> str:
    """Deterministic identity of one workload instance.

    Covers the class and every scalar constructor attribute — which
    includes ``seed`` and the size parameters, so quick and paper-scale
    instances of the same benchmark never collide.  (Generated data arrays
    are derived deterministically from these scalars and need not be
    hashed.)
    """
    cls = type(workload)
    params = {
        key: value
        for key, value in sorted(vars(workload).items())
        if isinstance(value, (bool, int, float, str))
    }
    return f"{cls.__module__}.{cls.__qualname__}:{workload.name}:{params!r}"


def config_fingerprint(config: MachineConfig) -> str:
    """Deterministic identity of a machine configuration.

    ``MachineConfig`` is a tree of frozen dataclasses, so ``repr`` is a
    complete, stable rendering of every field (cache geometry, latencies,
    CMAS trigger distance, per-core resources, ...).
    """
    return repr(config)


def code_digest() -> str:
    """sha256 of the simulation-relevant source (:data:`RESULT_SOURCES`).

    The code part of every result identity: compile, suite and job-dedup
    keys.  Computed on first use and memoized for the process — never at
    import, which would tax every command that does not need it.
    """
    global _code_digest
    if _code_digest is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for name in RESULT_SOURCES:
            path = root / name
            for source in [path] if path.is_file() else sorted(
                    path.rglob("*.py")):
                digest.update(source.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(source.read_bytes())
                digest.update(b"\0")
        _code_digest = digest.hexdigest()
    return _code_digest


def compile_key(workload: Workload, config: MachineConfig) -> str:
    """Content-addressed cache key for ``prepare(workload, config)``."""
    text = "\x1f".join(
        ("hidisc-compile", code_digest(),
         workload_fingerprint(workload), config_fingerprint(config))
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RunCache:
    """On-disk store of :class:`~repro.experiments.runner.CompiledWorkload`
    entries, keyed by :func:`compile_key`.

    Instances also count their own traffic (hits/misses/stores/corrupt
    evictions) for ``hidisc cache stats`` and tests.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{ENTRY_SUFFIX}"

    def load(self, key: str):
        """Return the cached object for *key*, or ``None`` on miss.

        Unreadable, unpicklable or wrongly-fingerprinted entries are
        deleted and reported as misses — the caller recomputes.
        """
        path = self.path_for(key)
        obj = MISSING
        if path.is_file():  # a miss is an instant, not a load span
            with spans.span("cache_load", cat="cache", key=key[:12]) as span:
                obj = load_pickle(
                    path, lambda o: getattr(o, "fingerprint", None) == key)
                if obj is CORRUPT:
                    self.corrupt += 1
                    metrics.inc("cache_corrupt")
                    span.set(hit=False, corrupt=True)
                elif obj is not MISSING:
                    span.set(hit=True)
        if obj is MISSING or obj is CORRUPT:
            self.misses += 1
            metrics.inc("cache_misses")
            if obj is MISSING:
                spans.instant("cache_miss", cat="cache", key=key[:12])
            return None
        self.hits += 1
        metrics.inc("cache_hits")
        return obj

    def store(self, key: str, obj) -> None:
        """Atomically persist *obj* under *key*.

        Best-effort: an unwritable cache directory degrades to a no-op
        rather than failing the experiment.
        """
        try:
            with spans.span("cache_store", cat="cache", key=key[:12]):
                dump_pickle(self.path_for(key), obj)
        except OSError:
            return
        self.stores += 1
        metrics.inc("cache_stores")

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """Entry files currently in the store (sorted for determinism)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*{ENTRY_SUFFIX}"))

    def suite_cells(self) -> list[Path]:
        """Checkpoint cell files under ``suites/`` (all suite keys)."""
        suites = self.root / SUITES_DIR
        if not suites.is_dir():
            return []
        return sorted(suites.rglob(f"*{ENTRY_SUFFIX}"))

    def service_files(self) -> list[Path]:
        """Files in the service spool under ``service/`` (job records,
        event streams, results, spans, worker status)."""
        service = self.root / SERVICE_DIR
        if not service.is_dir():
            return []
        return sorted(p for p in service.rglob("*") if p.is_file())

    def stats(self) -> dict:
        """Store contents + this instance's traffic counters.

        Accounts every part of the on-disk footprint: the compilation
        entries at the root, the per-cell suite checkpoints under
        ``suites/`` (which ``clear()`` also removes), and the service
        spool under ``service/`` (which ``clear()`` leaves alone — it is
        live queue state, not a cache).
        """
        entries = self.entries()
        cells = self.suite_cells()
        service = self.service_files()

        def safe_size(path: Path) -> int:
            try:
                return path.stat().st_size
            except OSError:
                return 0

        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(p.stat().st_size for p in entries),
            "suite_cells": len(cells),
            "suite_bytes": sum(p.stat().st_size for p in cells),
            "service_files": len(service),
            "service_bytes": sum(safe_size(p) for p in service),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }

    def clear(self) -> int:
        """Delete every entry (including suite checkpoint cells); return
        how many files were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for cell in self.suite_cells():
            try:
                cell.unlink()
                removed += 1
            except OSError:
                pass
        suites = self.root / SUITES_DIR
        if suites.is_dir():
            for directory in sorted(suites.iterdir()):
                if directory.is_dir():
                    try:
                        directory.rmdir()
                    except OSError:
                        pass
        return removed


def prepare_cached(workload: Workload, config: MachineConfig,
                   cache: RunCache | None = None):
    """:func:`~repro.experiments.runner.prepare`, memoized through *cache*.

    ``cache=None`` means no caching (plain ``prepare``).  On a hit the
    stored :class:`CompiledWorkload` is returned with ``prepare_seconds``
    reflecting the original compilation, so reports stay meaningful.
    """
    from .runner import prepare

    if cache is None:
        return prepare(workload, config)
    key = compile_key(workload, config)
    compiled = cache.load(key)
    if compiled is not None:
        return compiled
    compiled = prepare(workload, config)
    cache.store(key, compiled)
    return compiled
