"""End-to-end benchmark of the HiDISC reproduction.

Run every workload once (untraced), print each end-to-end metric, check
the outputs and write one JSON result per workload under ``--out``::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--out DIR] [--trace]

``--trace`` adds a traced pass per workload that records benchmark-side
spans around each layer call, writes a Chrome trace-event file and prints
the per-layer metrics with the tracing overhead.

One workload, measured for a fixed time (the form ``BENCHMARK.json``
names)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

repeats fresh-process iterations for about S seconds and prints, as its
last line, one JSON object with the medians (``--trace 0``: end-to-end
metrics) or the per-layer metrics of one traced iteration (``--trace 1``).

Compare two sets of result files (e.g. a parent and a change)::

    python3 benchmarks/e2e/run.py compare A_DIR B_DIR

See README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import harness
from harness import HERE, OPERATIONS, ROOT, WORKLOADS, child_env, median

#: Set-up samples per measured run (extra set-up-only iterations fill up
#: what the measured iterations did not provide).
MIN_SETUPS = 5
#: Longest one iteration (set-up plus pass) may take: about three times
#: the slowest normal iteration, so a run still ends in minutes.
ITERATION_TIMEOUT_S = 75.0
#: Cells of a quick-suite service job (9 benchmarks x 4 models).
QUICK_CELLS = 36
#: Share of a traced pass that its layer spans must account for.
MIN_COVERAGE = 0.9


class IterationFailed(RuntimeError):
    """A workload process failed or hung."""


#: What a failed iteration raises: a dead or hung process, a service that
#: would not start, unreadable result files.
FAILURES = (RuntimeError, OSError, ValueError, subprocess.SubprocessError)


# ----------------------------------------------------------------------
# One iteration: a fresh process (or server) over a fresh cache directory.

def _child_argv(workload: str, seed: int, work: Path, mode: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work), "--mode", mode]


@contextmanager
def run_space(out_dir: Path, workload: str, seed: int):
    """Work directory of one measured run, removed afterwards.

    Yields ``(path, prime_s)``.  For the warm workload the run cache under
    *path* is primed here, once per run, because priming costs as much as
    the cold pass; *prime_s* (``None`` for the other workloads) is added
    to every set-up sample of the run.
    """
    path = out_dir / "work" / f"{workload}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        prime_s = None
        if workload == "large-sampled-warm":
            start = time.perf_counter()
            primed = subprocess.run(
                _child_argv(workload, seed, path, "prime"),
                env=child_env(path / "cache"), stdin=subprocess.DEVNULL,
                timeout=ITERATION_TIMEOUT_S)
            if primed.returncode:
                raise IterationFailed(f"cache priming exited "
                                      f"{primed.returncode}")
            prime_s = time.perf_counter() - start
        yield path, prime_s
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _suite_iteration(workload: str, seed: int, work: Path, cache: Path,
                     mode: str, go: bool, trace_out: Path | None) -> dict:
    work.mkdir(parents=True)
    argv = _child_argv(workload, seed, work, mode)
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    start = time.perf_counter()
    deadline = start + ITERATION_TIMEOUT_S
    proc = subprocess.Popen(argv, env=child_env(cache), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        readable, _, _ = select.select([proc.stdout], [], [],
                                       ITERATION_TIMEOUT_S)
        ready = proc.stdout.readline() if readable else ""
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            raise IterationFailed(f"{workload} process never became ready")
        proc.stdin.write("go\n" if go else "stop\n")
        proc.stdin.close()
        proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise IterationFailed(f"{workload} pass exceeded "
                              f"{ITERATION_TIMEOUT_S:.0f}s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode:
        raise IterationFailed(f"{workload} process exited {proc.returncode}")
    if not go:
        return {"setup_s": setup}
    out = json.loads((work / "result.json").read_text())
    out["setup_s"] = setup
    out["payload"] = json.loads((work / "payload.json").read_text())
    return out


def iteration(workload: str, seed: int, run: tuple[Path, float | None],
              mode: str = "timed", go: bool = True,
              trace_out: Path | None = None) -> dict:
    """One iteration in a fresh directory under the run's work directory;
    ``go=False`` measures set-up only."""
    path, prime_s = run
    work = path / f"it-{time.time_ns()}"
    try:
        if workload == "service-quick":
            from service_workload import session

            return session(work, seed, go=go, trace_out=trace_out)
        cache = work / "cache" if prime_s is None else path / "cache"
        out = _suite_iteration(workload, seed, work, cache, mode, go,
                               trace_out)
        out["setup_s"] += prime_s or 0.0
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# Checks.

def _service_problems(seed: int, runs: list[dict]) -> list[str]:
    """Every job done with a valid payload; the first job's payload equals
    an in-process ``run_suite`` of the same quick grid."""
    from checks import cell_digests, diff_problems, payload_problems, \
        reference_problems
    from repro.experiments import run_suite

    problems = []
    for run in runs:
        for job in run["jobs"]:
            if not job["ok"]:
                problems.append(f"job seed {job['seed']}: state "
                                f"{job['state']}, {job.get('error')}")
            else:
                problems += payload_problems(job["payload"], QUICK_CELLS)
    first = runs[0]["jobs"][0]
    if first["ok"]:
        suite = run_suite(quick=True, seed=first["seed"])
        problems += diff_problems(suite.to_payload(), first["payload"],
                                  "first service job vs in-process run_suite")
        problems += reference_problems("service-quick", seed,
                                       cell_digests(suite))
    return problems


def _suite_problems(workload: str, seed: int, runs: list[dict]) -> list[str]:
    from checks import payload_problems, reference_problems

    problems = []
    for run in runs:
        problems += payload_problems(run["payload"], OPERATIONS[workload])
        if run["digests"] != runs[0]["digests"]:
            problems.append("passes of one seed disagree on per-cell "
                            "cycles, instructions or L1 misses")
    key = "paper-full" if workload == "paper-full" else "large-sampled"
    return problems + reference_problems(key, seed, runs[0]["digests"])


def _counts(workload: str, runs: list[dict], crashed: bool) -> dict:
    """Attempted and failed operations; a crashed iteration fails all of
    its operations, and a service job not completed (or never submitted
    after an earlier failure) is failed."""
    failed = OPERATIONS[workload] if crashed else 0
    if workload == "service-quick":
        failed += sum(OPERATIONS[workload] - sum(job["ok"] for job in run["jobs"])
                      for run in runs)
    return {"attempted": OPERATIONS[workload] * (len(runs) + crashed),
            "failed": failed}


# ----------------------------------------------------------------------
# Measurement.

def measure(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Untraced iterations for about *seconds*; end-to-end medians."""
    runs: list[dict] = []
    setups: list[float] = []
    record = {"workload": workload, "seed": seed, "trace": 0, "problems": []}
    try:
        with run_space(out_dir, workload, seed) as run:
            start = time.perf_counter()
            while True:
                runs.append(iteration(workload, seed, run))
                setups.append(runs[-1]["setup_s"])
                elapsed = time.perf_counter() - start
                # Stop at the iteration that ends closest to the budget.
                if elapsed + 0.5 * elapsed / len(runs) >= seconds:
                    break
            while len(setups) < MIN_SETUPS:
                setups.append(iteration(workload, seed, run,
                                        go=False)["setup_s"])
    except FAILURES as exc:
        record["problems"].append(f"iteration failed: {exc}")
    record.update(_counts(workload, runs, crashed=bool(record["problems"])))
    if not runs:
        return record
    walls = [run["wall_s"] for run in runs]
    if workload == "service-quick":
        jobs = [job["latency_s"] for run in runs for job in run["jobs"]
                if job["ok"]]
        record["problems"] += _service_problems(seed, runs)
    else:
        # An in-process job is one whole suite run.
        jobs = walls
        record["problems"] += _suite_problems(workload, seed, runs)
        record["payload"] = runs[0]["payload"]
        record["digests"] = runs[0]["digests"]
    record["values"] = {
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        "disk_mb": [run["disk_mb"] for run in runs],
        "job_p50_s": jobs,
    }
    record["metrics"] = {name: median(values)
                         for name, values in record["values"].items() if values}
    return record


def measure_traced(workload: str, seed: int, out_dir: Path,
                   untraced_wall: float | None = None) -> dict:
    """One traced iteration (plus one untraced one for the overhead
    unless its wall time is given); per-layer metrics."""
    record = {"workload": workload, "seed": seed, "trace": 1, "problems": []}
    trace_path = out_dir / "traces" / f"{workload}-seed{seed}.json"
    try:
        with run_space(out_dir, workload, seed) as run:
            plain = iteration(workload, seed, run) \
                if untraced_wall is None else None
            traced = iteration(workload, seed, run, mode="traced",
                               trace_out=trace_path)
    except FAILURES as exc:
        record["problems"].append(f"iteration failed: {exc}")
        record.update(_counts(workload, [], crashed=True))
        return record
    runs = [traced] + ([plain] if plain else [])
    record.update(_counts(workload, runs, crashed=False))
    base = untraced_wall if plain is None else plain["wall_s"]
    layers = traced["layers"]
    layers["trace.overhead_frac"] = traced["wall_s"] / base - 1.0
    record["metrics"] = {name: layers.get(name, 0.0) for name in
                         harness.LAYER_MAP}
    coverage = 1.0 - traced["unattributed_s"] / traced["wall_s"]
    record.update(coverage=coverage, trace_file=str(trace_path))
    if coverage < MIN_COVERAGE:
        record["problems"].append(f"layer spans cover {coverage:.1%} of the "
                                  f"traced pass, under {MIN_COVERAGE:.0%}")
    if not json.loads(trace_path.read_text())["traceEvents"]:
        record["problems"].append(f"{trace_path} holds no trace events")
    if workload == "service-quick":
        record["problems"] += _service_problems(seed, runs)
        if plain is not None:
            from checks import diff_problems

            for a, b in zip(plain["jobs"], traced["jobs"]):
                if a["ok"] and b["ok"]:
                    record["problems"] += diff_problems(
                        a["payload"], b["payload"], "traced vs untraced job")
    else:
        record["problems"] += _suite_problems(workload, seed, runs)
    return record


# ----------------------------------------------------------------------
# Reporting.

def _units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _print_record(record: dict, units: dict[str, str]) -> None:
    label = f"{record['workload']} (seed {record['seed']}"
    label += ", traced)" if record["trace"] else ")"
    print(label)
    for name, value in record.get("metrics", {}).items():
        note = ""
        values = record.get("values", {}).get(name)
        if values:
            note = f"  median of {len(values)}"
            tail = harness.tail_percentile(len(values))
            if tail is not None and tail > 50:
                note += (f", p{tail:g} "
                         f"{harness.percentile(values, tail):.4f}")
        print(f"  {name:32s} {value:14.4f} {units.get(name, '')}{note}")
    frac = record["failed"] / record["attempted"]
    print(f"  {'failed_frac':32s} {frac:14.4f} ratio  "
          f"({record['failed']} of {record['attempted']})")
    if "coverage" in record:
        print(f"  layer spans cover {record['coverage']:.1%} of the traced "
              f"pass; trace in {record['trace_file']}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def _write_record(record: dict, out_dir: Path) -> Path:
    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / (f"{record['workload']}-seed{record['seed']}-trace"
                   f"{record['trace']}-{time.time_ns()}.json")
    kept = {k: v for k, v in record.items() if k != "payload"}
    path.write_text(json.dumps(kept, indent=1, sort_keys=True))
    return path


def _result_line(records: list[dict], units: dict[str, str],
                 prefix: bool) -> dict:
    metrics = {}
    for record in records:
        for name, value in record.get("metrics", {}).items():
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return {"correct": all(not r["problems"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


# ----------------------------------------------------------------------
# compare A_DIR B_DIR

def _load_results(directory: Path) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("trace") == 0 \
                and "metrics" in record and "workload" in record:
            out.setdefault(record["workload"], []).append(record["metrics"])
    return out


def compare(dir_a: Path, dir_b: Path) -> int:
    """Per workload and end-to-end metric: medians, quartiles, B's win
    fraction and the verdict against the metric's bound.  Exits 1 when
    any verdict is ``worse``."""
    spec = harness.load_benchmark()
    a_runs, b_runs = _load_results(dir_a), _load_results(dir_b)
    print(f"{'workload':20s} {'metric':12s} {'A median [q1, q3] (n)':34s} "
          f"{'B median [q1, q3] (n)':34s} {'B wins':>6s}  verdict")
    worse = False
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [m[name] for m in a_runs.get(workload, []) if name in m]
            b = [m[name] for m in b_runs.get(workload, []) if name in m]
            if not a or not b:
                continue
            cells = []
            for values in (a, b):
                q1, mid, q3 = harness.quartiles(values)
                cells.append(f"{mid:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})")
            result = harness.verdict(a, b, metric["better"], metric["bound"])
            worse |= result == "worse"
            print(f"{workload:20s} {name:12s} {cells[0]:34s} {cells[1]:34s} "
                  f"{harness.win_fraction(a, b, metric['better']):6.2f}  "
                  f"{result}")
    return 1 if worse else 0


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("dir_a", type=Path)
        parser.add_argument("dir_b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.dir_a, args.dir_b)
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the HiDISC reproduction.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="measure one workload (default: all, once)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget for repeated iterations "
                             "(default 0: one iteration)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="with --workload: report the per-layer metrics "
                             "of a traced iteration; alone: add a traced "
                             "pass after the untraced one")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result files, traces and "
                             "work directories (default benchmarks/e2e/out)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no HiDISC sources under {ROOT / 'src'}; run the "
              f"benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = harness.load_benchmark()
    units = _units(spec)
    out_dir = args.out.resolve()

    if args.workload is not None:
        if args.trace:
            record = measure_traced(args.workload, args.seed, out_dir)
        else:
            record = measure(args.workload, args.seed, args.seconds, out_dir)
        records = [record]
    else:
        records = [measure(w, args.seed, args.seconds, out_dir)
                   for w in WORKLOADS]
        cold, warm = records[1], records[2]
        if "payload" in cold and "payload" in warm:
            from checks import diff_problems

            warm["problems"] += diff_problems(cold["payload"],
                                              warm["payload"],
                                              "warm vs cold payload")
        if args.trace:
            records += [measure_traced(r["workload"], args.seed, out_dir,
                                       untraced_wall=r["metrics"]["wall_s"])
                        for r in records[:len(WORKLOADS)] if "metrics" in r]
    for record in records:
        _print_record(record, units)
        _write_record(record, out_dir)
    line = _result_line(records, units, prefix=args.workload is None)
    print(json.dumps(line))
    return 0 if line["correct"] and not line["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
