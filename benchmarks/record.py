"""Performance snapshots of the simulator's own hot paths.

:func:`run_benchmarks` runs the pytest-benchmark suite
(``benchmarks/bench_simulator.py``) once; :func:`snapshot_from` turns the
run into one snapshot — commit, date, and per-scenario mean time plus the
derived simulation rates (cycles/sec, instr/sec) and peak resident set
size (``peak_rss_bytes``, a process high-water mark, so the lifecycle
layer's memory cost is tracked next to its speed) — and
:func:`append_snapshot` appends it to ``BENCH_<date>.json``.  The
accumulated files track the perf trajectory across PRs.
``benchmarks/check_regression.py`` gates on the same run and records the
snapshot with ``--out-dir DIR``::

    PYTHONPATH=src python benchmarks/check_regression.py [-k EXPR] --out-dir .

The snapshot file is a JSON array; re-running on the same day appends
another entry to the same file.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_benchmarks(keyword: str | None = None,
                   extra_args: list[str] | None = None) -> dict:
    """Run the pytest-benchmark suite; returns the parsed benchmark JSON."""
    with tempfile.TemporaryDirectory(prefix="hidisc-bench-") as tmp:
        json_path = Path(tmp) / "bench.json"
        cmd = [sys.executable, "-m", "pytest",
               str(BENCH_DIR / "bench_simulator.py"),
               "--benchmark-only", "-q", f"--benchmark-json={json_path}"]
        if keyword:
            cmd += ["-k", keyword]
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        proc = subprocess.run(cmd + (extra_args or []), cwd=REPO_ROOT,
                              env=env)
        if proc.returncode != 0:
            raise RuntimeError(
                f"benchmark run failed with exit code {proc.returncode}")
        return json.loads(json_path.read_text())


def snapshot_from(raw: dict, commit: str | None = None,
                  date: str | None = None) -> dict:
    """Convert a pytest-benchmark payload into one snapshot record.

    Scenario rates come from each benchmark's ``extra_info``: ``cycles``
    gives cycles/sec, ``instructions`` (or the replayed ``trace_length``)
    gives instr/sec.  Scenarios without that extra info just record times.
    """
    scenarios: dict[str, dict] = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        extra = bench.get("extra_info", {})
        mean = stats["mean"]
        entry: dict = {
            "mean_seconds": mean,
            "stddev_seconds": stats["stddev"],
            "rounds": stats["rounds"],
            "ops_per_second": 1.0 / mean if mean else 0.0,
        }
        cycles = extra.get("cycles")
        if cycles:
            entry["cycles"] = cycles
            entry["cycles_per_second"] = cycles / mean
        instructions = extra.get("instructions", extra.get("trace_length"))
        if instructions:
            entry["instructions"] = instructions
            entry["instr_per_second"] = instructions / mean
        peak_rss = extra.get("peak_rss_bytes")
        if peak_rss:
            entry["peak_rss_bytes"] = peak_rss
        scenarios[bench["name"]] = entry
    return {
        "date": date or datetime.date.today().isoformat(),
        "commit": commit if commit is not None else _git_commit(),
        "python": sys.version.split()[0],
        "scenarios": scenarios,
    }


def append_snapshot(snapshot: dict, out_dir: Path | None = None) -> Path:
    """Append *snapshot* to ``BENCH_<date>.json`` in *out_dir*; returns path."""
    out_dir = Path(out_dir) if out_dir is not None else REPO_ROOT
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{snapshot['date']}.json"
    history: list = []
    if path.exists():
        history = json.loads(path.read_text())
        if not isinstance(history, list):
            history = [history]
    history.append(snapshot)
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return path
