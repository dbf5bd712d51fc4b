"""Pure helpers of the end-to-end benchmark: statistics, verdicts, spans.

Nothing here imports :mod:`repro`, so ``run.py`` can load it (and refuse
to run) in a directory that holds only the benchmark, and the self-tests
exercise it without simulating anything.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time
from contextlib import contextmanager
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper-full", "large-sampled-cold", "large-sampled-warm",
             "service-quick")

#: Operations one iteration attempts: grid cells for the in-process
#: suites, jobs for the service (closed loop, one in flight at a time).
SERVICE_JOBS = 5
OPERATIONS = {"paper-full": 36, "large-sampled-cold": 4,
              "large-sampled-warm": 4, "service-quick": SERVICE_JOBS}

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Which end-to-end metric each per-layer metric should move, and on which
#: workload — the prediction a layer change states before it is measured.
#: A layer absent from a workload reads 0 there: that is the "no change"
#: half of the prediction.
LAYER_MAP: dict[str, list[tuple[str, str]]] = {
    **{name: [("wall_s", "large-sampled-cold"),
              ("setup_s", "large-sampled-warm")]
       for name in ("sim.functional.seq_s", "sim.functional.dec_s",
                    "sim.functional.minstr_per_s")},
    **{name: [("wall_s", "large-sampled-cold"), ("wall_s", "paper-full")]
       for name in ("slicer.compile_s", "slicer.validate_s",
                    "workloads.build_s", "workloads.verify_s")},
    **{name: [("wall_s", "large-sampled-cold"),
              ("peak_rss_mb", "large-sampled-cold")]
       for name in ("experiments.runner.warmup_s", "sim.trace.queue_plan_s",
                    "sim.trace.cmas_plan_s", "experiments.runner.prepare_s")},
    **{name: [("wall_s", "large-sampled-cold"),
              ("disk_mb", "large-sampled-cold")]
       for name in ("experiments.cache.store_s", "experiments.cache.entry_mb",
                    "experiments.cache.misses")},
    **{name: [("wall_s", "large-sampled-warm")]
       for name in ("experiments.cache.load_s", "experiments.cache.hits")},
    "experiments.checkpoint.store_s": [("wall_s", "large-sampled-cold"),
                                       ("wall_s", "large-sampled-warm"),
                                       ("job_p50_s", "service-quick")],
    **{name: [("wall_s", "paper-full"), ("job_p50_s", "service-quick")]
       for name in ("sim.machine.run_s", "sim.machine.cycles",
                    "sim.machine.kcycles_per_s")},
    **{name: [("wall_s", "large-sampled-warm"),
              ("wall_s", "large-sampled-cold")]
       for name in ("sim.sampling.run_s", "sim.sampling.windows",
                    "sim.sampling.detail_frac", "sim.sampling.exact_cells")},
    **{name: [("job_p50_s", "service-quick")]
       for name in ("service.submit_s", "service.queue_wait_s",
                    "service.exec_s", "service.result_s")},
    "trace.overhead_frac": [("wall_s", workload) for workload in WORKLOADS],
}


def load_benchmark(path: Path = BENCHMARK_JSON) -> dict:
    return json.loads(path.read_text())


def schema_problems(spec: dict) -> list[str]:
    """What is wrong with a ``BENCHMARK.json`` document (empty if valid)."""
    problems = []
    workloads = [w["name"] for w in spec.get("workloads", [])]
    end_to_end = [m["name"] for m in spec.get("end_to_end", [])]
    per_layer = [m["name"] for m in spec.get("per_layer", [])]
    for label, names, limit in (("workloads", workloads, 8),
                                ("end_to_end", end_to_end, 16),
                                ("per_layer", per_layer, 128)):
        if not 1 <= len(names) <= limit:
            problems.append(f"{label}: {len(names)} entries, want 1..{limit}")
        problems += [f"{label}: bad name {n!r}" for n in names
                     if not NAME_RE.match(n) or len(n) > 64]
    every = workloads + end_to_end + per_layer
    problems += [f"name {n!r} used twice" for n in sorted(set(every))
                 if every.count(n) > 1]
    if sorted(workloads) != sorted(WORKLOADS):
        problems.append(f"workloads {workloads} != harness {list(WORKLOADS)}")
    bounds = {m["name"]: m.get("bound", 0) for m in spec.get("end_to_end", [])}
    problems += [f"{name}: bound outside (0, 0.25]"
                 for name, bound in bounds.items() if not 0 < bound <= 0.25]
    setup = [m for m in spec.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower") \
            or setup[0]["bound"] < max(bounds.values()):
        problems.append("setup_s must be in s, lower-is-better, with the "
                        "largest bound")
    if sorted(per_layer) != sorted(LAYER_MAP):
        problems.append("per_layer metrics differ from the harness LAYER_MAP")
    for name, pairs in LAYER_MAP.items():
        for metric, workload in pairs:
            if metric not in end_to_end or workload not in workloads:
                problems.append(f"{name} maps to unknown {metric}/{workload}")
    return problems


# ----------------------------------------------------------------------
# Statistics.

def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


def tail_percentile(n: int) -> float | None:
    """Highest of the usual reporting percentiles that has at least ten
    of *n* samples beyond it, or ``None`` when even the median has not."""
    best = None
    for p in (50.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _better(x: float, y: float, better: str) -> bool:
    """Does *y* read better than *x*?"""
    return y < x if better == "lower" else y > x


def win_fraction(a, b, better: str) -> float:
    """Share of all (a, b) pairs in which B reads better; ties count for
    neither side."""
    pairs = [(x, y) for x in a for y in b]
    return sum(_better(x, y, better) for x, y in pairs) / len(pairs)


def verdict(a, b, better: str, bound: float) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for B
    against A.

    A gain needs B to win nine tenths of the pairs and the medians to
    differ by more than A's own spread.  A regression is a median worse by
    more than *bound*.  When either side's spread exceeds the bound the
    verdict is unresolved, unless every run of one side beats every run of
    the other.
    """
    med_a, med_b = median(a), median(b)
    worse_by = (med_b - med_a) / med_a
    if better != "lower":
        worse_by = -worse_by
    wins = win_fraction(a, b, better)
    losses = win_fraction(b, a, better)
    noise_a = spread(a)
    if wins == 1.0 and -worse_by > noise_a:
        return "better"
    if losses == 1.0 and worse_by > bound:
        return "worse"
    if max(noise_a, spread(b)) > bound:
        return "unresolved"
    if wins >= 0.9 and -worse_by > noise_a:
        return "better"
    if worse_by > bound:
        return "worse"
    return "unchanged"


# ----------------------------------------------------------------------
# Benchmark-side spans.

class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Times are ``perf_counter_ns``; :attr:`epoch_ns` maps them onto the wall
    clock so spans derived from the service's event log (stamped with
    ``time.time()``) land on the same timeline.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = count(1)
        self.epoch_ns = time.time_ns() - time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, **args):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield sid
        finally:
            self._stack.pop()
            self.add(name, t0, time.perf_counter_ns() - t0, parent,
                     sid=sid, **args)

    def add(self, name: str, t0_ns: int, dur_ns: int, parent: int | None,
            sid: int | None = None, **args) -> int:
        """Record a span measured elsewhere (e.g. from an event log)."""
        sid = sid if sid is not None else next(self._ids)
        self.spans.append({"name": name, "sid": sid, "parent": parent,
                           "t0_ns": t0_ns, "dur_ns": max(dur_ns, 0),
                           "args": args})
        return sid


def totals(spans: list[dict]) -> dict[str, float]:
    """Inclusive seconds per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["dur_ns"] / 1e9
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name not covered by that span's children (child
    intervals are clipped to the parent and merged before subtracting)."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        lo, hi = s["t0_ns"], s["t0_ns"] + s["dur_ns"]
        covered, edge = 0, lo
        for c in sorted(children.get(s["sid"], []), key=lambda c: c["t0_ns"]):
            c_lo = max(c["t0_ns"], edge)
            c_hi = min(c["t0_ns"] + c["dur_ns"], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                edge = c_hi
        out[s["name"]] = out.get(s["name"], 0.0) + (s["dur_ns"] - covered) / 1e9
    return out


def write_chrome_trace(spans: list[dict], path: Path, pid: int,
                       epoch_ns: int) -> None:
    """Chrome trace-event JSON (complete events, microseconds)."""
    events = [{"name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
               "ts": (s["t0_ns"] + epoch_ns) / 1e3, "dur": s["dur_ns"] / 1e3,
               "pid": pid, "tid": 1,
               "args": {"sid": s["sid"], "parent": s["parent"], **s["args"]}}
              for s in sorted(spans, key=lambda s: s["t0_ns"])]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def child_env(cache: Path) -> dict:
    """Environment of a workload process: the checkout's ``src`` on the
    path and *cache* as the run cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["HIDISC_CACHE_DIR"] = str(cache)
    return env


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def tree_mb(path: Path) -> float:
    """Bytes of every regular file under *path* (0 if it does not
    exist), in MB."""
    if path.is_file():
        return path.stat().st_size / 1e6
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6
