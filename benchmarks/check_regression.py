"""CI benchmark gate: fail on a large throughput regression.

Compares a fresh pytest-benchmark run against the checked-in baseline
(``benchmarks/baseline.json``, written by ``--update-baseline``) and exits
non-zero if any scenario's throughput dropped by more than the tolerance
(default 25%).  The compared statistic is each scenario's *minimum* round
time, not the mean: on a shared or frequency-scaled CI box the mean
wanders by tens of percent between consecutive runs, while the best round
is stable — and a structural slowdown (an accidentally quadratic loop, a
de-optimised hot path) moves the minimum just as surely as the mean.
Improvements pass; a mismatch in *either* direction between the baseline
and the run fails with a :class:`BaselineMismatch` naming the scenarios —
a scenario missing from the run would silently hide a regression forever,
and a scenario missing from the baseline is simply not gated yet (rebase
with ``--update-baseline`` after adding one).

``--out-dir DIR`` also appends the same run's snapshot (see
``benchmarks/record.py``) to ``DIR/BENCH_<date>.json``, so CI takes its
verdict and its snapshot artifact from one pass over the suite.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py                    # gate
    PYTHONPATH=src python benchmarks/check_regression.py --out-dir .        # gate + snapshot
    PYTHONPATH=src python benchmarks/check_regression.py --update-baseline  # rebase

"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from record import append_snapshot, run_benchmarks, snapshot_from

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_TOLERANCE = 0.25


class BaselineMismatch(Exception):
    """The run and ``baseline.json`` disagree about which scenarios exist.

    Raised (never a bare ``KeyError``) when a scenario ran that the
    baseline does not gate, or a gated scenario did not run; the message
    names every offender and the remediation.
    """

    def __init__(self, missing_from_baseline: list[str],
                 missing_from_run: list[str]):
        self.missing_from_baseline = sorted(missing_from_baseline)
        self.missing_from_run = sorted(missing_from_run)
        parts = []
        if self.missing_from_baseline:
            parts.append(
                f"scenario(s) not gated by {BASELINE_PATH.name}: "
                + ", ".join(self.missing_from_baseline)
                + " — record them with "
                  "'python benchmarks/check_regression.py --update-baseline'")
        if self.missing_from_run:
            parts.append(
                "baseline scenario(s) that did not run: "
                + ", ".join(self.missing_from_run)
                + " — a silently skipped benchmark would hide regressions")
        super().__init__("; ".join(parts))


def _mins(raw: dict) -> dict[str, float]:
    return {bench["name"]: bench["stats"]["min"]
            for bench in raw.get("benchmarks", [])}


def check(current: dict[str, float], baseline: dict[str, float],
          tolerance: float) -> list[str]:
    """Return a list of failure messages (empty = gate passes).

    Raises :class:`BaselineMismatch` when the two scenario sets differ —
    membership problems are configuration errors, not perf regressions,
    and get a named error instead of a tolerance line.
    """
    missing_from_baseline = [n for n in current if n not in baseline]
    missing_from_run = [n for n in baseline if n not in current]
    if missing_from_baseline or missing_from_run:
        raise BaselineMismatch(missing_from_baseline, missing_from_run)
    failures = []
    for name, base_min in sorted(baseline.items()):
        best = current[name]
        # Throughput ratio: < 1 means the scenario got slower.
        ratio = base_min / best
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: best round {best * 1e3:.2f} ms vs baseline "
                f"{base_min * 1e3:.2f} ms "
                f"({(1.0 - ratio) * 100.0:.0f}% slower, "
                f"tolerance {tolerance * 100.0:.0f}%)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate CI on benchmark throughput vs the checked-in "
                    "baseline.")
    parser.add_argument("--update-baseline", "--update", dest="update",
                        action="store_true",
                        help="rewrite benchmarks/baseline.json from a "
                             "fresh run instead of gating")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE, metavar="FRACTION",
                        help="allowed throughput drop (default 0.25)")
    parser.add_argument("-k", dest="keyword", default=None, metavar="EXPR",
                        help="pytest -k filter for a subset of scenarios")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="also append this run's snapshot to "
                             "DIR/BENCH_<date>.json")
    args = parser.parse_args(argv)

    raw = run_benchmarks(keyword=args.keyword)
    if args.out_dir:
        path = append_snapshot(snapshot_from(raw), Path(args.out_dir))
        print(f"snapshot appended to {path}")
    current = _mins(raw)
    if args.update:
        BASELINE_PATH.write_text(
            json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"baseline rewritten with {len(current)} scenarios at "
              f"{BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update-baseline "
              f"first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    if args.keyword:
        # A -k subset run only gates the scenarios it selected.
        baseline = {name: mean for name, mean in baseline.items()
                    if name in current}
    try:
        failures = check(current, baseline, args.tolerance)
    except BaselineMismatch as exc:
        print(f"benchmark regression gate: {exc}", file=sys.stderr)
        return 2
    for name in sorted(current):
        print(f"{name:40s} {current[name] * 1e3:9.2f} ms")
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nbenchmark regression gate passed "
          f"({len(baseline)} scenarios within "
          f"{args.tolerance * 100.0:.0f}% of baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
