"""Command-line interface: regenerate any table or figure of the paper,
or profile a single run with the telemetry subsystem.

Installed as the ``hidisc`` console script::

    hidisc table1
    hidisc figure8 --quick
    hidisc all --json results.json --jobs 4
    hidisc suite --quick --jobs 2
    hidisc suite --quick --verify          # co-simulation oracle on
    hidisc suite --resume                  # replay only missing cells
    hidisc faults --quick --fault-seed 7   # seeded fault campaign
    hidisc stats --quick --bench pointer --model hidisc
    hidisc trace --quick --bench pointer --out trace.json
    hidisc lifecycle --quick --bench pointer --out run.kanata
    hidisc diff run_a.json run_b.json      # first divergent commit + values
    hidisc cache stats
    hidisc cache clear
    hidisc runs list                       # recent runs from the ledger
    hidisc runs report                     # latest run + regression check
    hidisc bench                           # perf snapshot -> BENCH_<date>.json
    hidisc serve --workers 2               # durable simulation service
    hidisc submit --quick --wait           # queue a suite job, await it
    hidisc jobs                            # list jobs; 'jobs <id>' inspects
    hidisc jobs top                        # live fleet status (Ctrl-C quits)
    hidisc jobs trace <id>                 # stitch one job's Perfetto trace
    hidisc cancel <job_id>                 # request cancellation

Suite-family commands and ``faults`` stop gracefully on SIGINT/SIGTERM:
the first signal finishes and checkpoints the in-flight grid cell, the
ledger records ``outcome: "interrupted"``, and the process exits 130;
``--resume`` then continues without recomputing (a second signal aborts
hard).  ``hidisc serve`` extends the same discipline to a daemon — see
:mod:`repro.service` and DESIGN §9.

Experiment commands run compilations through a persistent on-disk cache
(``--cache-dir``, default ``$HIDISC_CACHE_DIR`` or ``~/.cache/hidisc``;
``--no-cache`` disables it) and fan the simulation grid out over worker
processes with ``--jobs N`` (0 = all CPUs).  Suite runs checkpoint every
completed grid cell into the cache, so an interrupted run continues with
``--resume``.

Every experiment run appends one record to the ledger
(``<cache-dir>/ledger.jsonl``; see :mod:`repro.experiments.ledger`) —
``hidisc runs list|show|report`` renders it.  ``--orch-trace PATH``
additionally records the host orchestration (compilation, pool rounds,
cache and checkpoint traffic) as a Perfetto-loadable timeline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from ..config import MachineConfig, SamplingPlan, TelemetryConfig
from ..errors import ConfigError, InterruptedRun
from ..telemetry import (
    ChromeTraceSink,
    Heartbeat,
    LifecycleCollector,
    Telemetry,
    critical_path_by_pc,
    diff_payloads,
    lifecycle_to_chrome,
    load_payload,
    metrics,
    render_critical_path,
    render_diff,
    spans,
    write_konata,
)
from ..workloads import WORKLOADS_BY_NAME, get_workload
from . import interrupt as interrupt_mod
from .cache import RunCache, prepare_cached
from .interrupt import GracefulInterrupt
from .figure8 import figure8
from .figure9 import figure9
from .figure10 import figure10
from .ledger import (
    RunLedger,
    build_record,
    ledger_path,
    new_run_id,
    render_regressions,
    render_run_report,
    render_runs_list,
)
from .models import MODEL_ORDER, sampling_label
from .reporting import render_run_stats, write_json
from .runner import run_model
from .suite import run_suite
from .table1 import table1
from .table2 import table2

_COMMANDS = ("table1", "table2", "figure8", "figure9", "figure10", "all",
             "suite", "stats", "trace", "lifecycle", "diff", "cache",
             "faults", "bench", "runs", "fuzz", "serve", "submit", "jobs",
             "cancel")

_CACHE_ACTIONS = ("stats", "clear")

_RUNS_ACTIONS = ("list", "show", "report")

#: Commands that append a ledger record (experiment runs — not the
#: bookkeeping commands that merely inspect caches/ledgers/payloads).
_LEDGER_COMMANDS = frozenset(
    {"table2", "figure8", "figure9", "figure10", "all", "suite",
     "stats", "trace", "lifecycle", "faults", "fuzz", "serve"}
)

#: Commands whose long-running grids get graceful SIGINT/SIGTERM
#: handling: first signal stops at the next cell boundary (everything
#: completed so far is checkpointed; the ledger records
#: ``outcome: "interrupted"``), second signal aborts hard.  ``serve``
#: manages its own interrupt context (it must drain workers first).
_INTERRUPTIBLE = frozenset(
    {"table2", "figure8", "figure9", "figure10", "all", "suite", "faults"}
)

#: lifecycle output defaults per format (when --out is not given).
_LIFECYCLE_OUT = {"kanata": "hidisc.kanata",
                  "jsonl": "hidisc_lifecycle.jsonl",
                  "chrome": "hidisc_lifecycle.json"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidisc",
        description="Reproduce the evaluation of 'HiDISC: A Decoupled "
                    "Architecture for Data-Intensive Applications' "
                    "(IPDPS 2003).",
    )
    parser.add_argument("command", choices=_COMMANDS,
                        help="which table/figure to regenerate, 'suite' for "
                             "the raw benchmark grid, 'stats'/'trace'/"
                             "'lifecycle' to profile one run, 'diff' to "
                             "compare two result payloads, 'cache' to "
                             "manage the run cache, or 'faults' to run a "
                             "seeded fault-injection campaign")
    parser.add_argument("cache_action", nargs="?",
                        help="for 'hidisc cache': 'stats' (default) or "
                             "'clear'; for 'hidisc runs': 'list' "
                             "(default), 'show' or 'report'; for "
                             "'hidisc diff': the first payload path; for "
                             "'hidisc jobs': a job id, 'top' or 'trace'; "
                             "for 'hidisc cancel': a job id")
    parser.add_argument("diff_b", nargs="?", metavar="payload_b",
                        help="for 'hidisc diff': the second payload path; "
                             "for 'hidisc runs show|report': a run-id "
                             "prefix (default: the newest run); for "
                             "'hidisc jobs trace': the job id (prefixes "
                             "accepted)")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down inputs (seconds instead of minutes)")
    parser.add_argument("--seed", type=int, default=2003,
                        help="workload generator seed (default 2003)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump raw results as JSON")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress progress messages on stderr")
    parser.add_argument("--jobs", type=_non_negative, default=1,
                        metavar="N",
                        help="worker processes for the experiment grid "
                             "(default 1 = serial, 0 = all CPUs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent compilation cache")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="run-cache directory (default $HIDISC_CACHE_DIR "
                             "or ~/.cache/hidisc)")
    parser.add_argument("--verify", action="store_true",
                        help="referee every timing run with the "
                             "co-simulation oracle (commit-stream "
                             "integrity + functional state diff)")
    parser.add_argument("--resume", action="store_true",
                        help="for 'suite'-family commands: load the "
                             "checkpointed cells of an interrupted run "
                             "and simulate only the missing ones")
    parser.add_argument("--max-cycles", type=_positive, default=None,
                        metavar="N",
                        help="cycle budget per timing run (default "
                             f"{MachineConfig().max_cycles}; a run "
                             "exceeding it raises CycleLimitError)")
    parser.add_argument("--orch-trace", metavar="PATH", default=None,
                        help="record host orchestration spans (prepare, "
                             "pool rounds, cache/checkpoint traffic, "
                             "per-worker lanes) and write a "
                             "Perfetto-loadable trace_event JSON here")
    parser.add_argument("--limit", type=_positive, default=20, metavar="N",
                        help="for 'hidisc runs list': newest N ledger "
                             "entries to show (default 20)")
    injection = parser.add_argument_group(
        "faults options", "seeded fault-injection campaigns "
                          "(repro.resilience)")
    injection.add_argument("--fault-seed", type=int, default=2003,
                           metavar="SEED",
                           help="FaultPlan seed (default 2003); the same "
                                "seed always injects the same faults")
    injection.add_argument("--fault-count", type=_non_negative, default=8,
                           metavar="N",
                           help="number of fault sites to draw "
                                "(default 8)")
    injection.add_argument("--fault-benches", metavar="NAMES", default=None,
                           help="comma-separated benchmark names to "
                                "campaign over (default: every suite "
                                "benchmark)")
    profiling = parser.add_argument_group(
        "stats/trace/lifecycle options",
        "single-run telemetry (repro.telemetry)")
    profiling.add_argument("--bench", default="pointer",
                           choices=sorted(WORKLOADS_BY_NAME),
                           help="benchmark to profile (default pointer)")
    profiling.add_argument("--model", default="hidisc", choices=MODEL_ORDER,
                           help="machine model to profile (default hidisc)")
    profiling.add_argument("--out", metavar="PATH", default=None,
                           help="output file (default hidisc_trace.json for "
                                "'trace'; for 'lifecycle' it follows the "
                                "format: hidisc.kanata / "
                                "hidisc_lifecycle.jsonl / "
                                "hidisc_lifecycle.json)")
    profiling.add_argument("--format", dest="trace_format", default=None,
                           choices=("chrome", "jsonl", "kanata"),
                           help="output format: Chrome/Perfetto trace_event "
                                "JSON, JSONL, or (lifecycle only) a Konata "
                                "pipeline-viewer log (default: chrome for "
                                "'trace', kanata for 'lifecycle')")
    profiling.add_argument("--occupancy-interval", type=_non_negative,
                           default=128, metavar="CYCLES",
                           help="occupancy sampling period in cycles, "
                                "0 disables (default 128)")
    profiling.add_argument("--heartbeat", type=_non_negative, default=0,
                           metavar="CYCLES",
                           help="emit a live status line (cycle, IPC, queue "
                                "depths, host cycles/s) on stderr every N "
                                "simulated cycles; 0 disables (default)")
    profiling.add_argument("--lifecycle-limit", type=_non_negative,
                           default=0, metavar="N",
                           help="keep only the newest N lifecycle records "
                                "(ring buffer); 0 keeps all (default)")
    profiling.add_argument("--top", type=_positive, default=12, metavar="N",
                           help="rows in the critical-path table "
                                "(default 12)")
    defaults = SamplingPlan()
    sampling = parser.add_argument_group(
        "sampling options",
        "SMARTS-style sampled simulation (repro.sim.sampling): "
        "fast-forward by functional warming, simulate short detailed "
        "windows, extrapolate cycles with a measured confidence "
        "interval.  Valid for suite-family commands and 'stats'; "
        "mutually exclusive with --verify and 'faults'.")
    sampling.add_argument("--sample", action="store_true",
                          help="run every timing simulation through the "
                               "sampled-interval driver (results carry "
                               "sampled=True plus the exact schedule and "
                               "error bars)")
    sampling.add_argument("--sample-interval", type=_positive, default=None,
                          metavar="N",
                          help="sampling period in trace positions "
                               f"(default {defaults.interval_length})")
    sampling.add_argument("--sample-detail", type=_positive, default=None,
                          metavar="N",
                          help="detailed-window length per period "
                               f"(default {defaults.detail_length})")
    sampling.add_argument("--sample-warmup", type=_positive, default=None,
                          metavar="N",
                          help="detailed warm-up positions before each "
                               f"window (default {defaults.warmup_length})")
    sampling.add_argument("--sample-error-budget", type=float, default=None,
                          metavar="FRAC",
                          help="relative 95%% CI target on cycles; the "
                               "driver densifies the schedule (or degrades "
                               "to exact simulation) until it is met "
                               f"(default {defaults.error_budget})")
    sampling.add_argument("--sample-seed", type=int, default=None,
                          metavar="SEED",
                          help="schedule-offset RNG seed "
                               f"(default {defaults.seed})")
    fuzzing = parser.add_argument_group(
        "fuzz options", "differential program fuzzing (repro.fuzz)")
    fuzzing.add_argument("--runs", type=_positive, default=50, metavar="N",
                         help="number of seeded random programs to draw "
                              "(default 50); --seed selects the first")
    fuzzing.add_argument("--fuzz-size", type=_positive, default=24,
                         metavar="N",
                         help="approximate top-level statements per "
                              "generated program (default 24)")
    fuzzing.add_argument("--shrink", action="store_true",
                         help="delta-debug each failing program to a "
                              "minimal repro before reporting it")
    fuzzing.add_argument("--corpus", metavar="DIR", default=None,
                         help="write each (shrunk) failing program as a "
                              "replayable JSON repro into this directory")
    fuzzing.add_argument("--inject-fault", metavar="NAME", default=None,
                         help="self-test: deliberately perturb one step "
                              "of the compiled interpreter table, an ALU "
                              "op or an annotation step (see repro.fuzz."
                              "harness.FAULTS); the campaign must then "
                              "FIND divergences — exit 0 iff it does")
    service = parser.add_argument_group(
        "service options", "durable simulation service (repro.service): "
                           "'hidisc serve' runs the daemon, "
                           "'submit'/'jobs'/'cancel' are its clients")
    service.add_argument("--host", default="127.0.0.1",
                         help="serve: interface to bind (default 127.0.0.1)")
    service.add_argument("--port", type=_non_negative, default=8203,
                         help="serve: TCP port (default 8203; 0 picks a "
                              "free port and prints it)")
    service.add_argument("--url", default=None, metavar="URL",
                         help="submit/jobs/cancel: service endpoint "
                              "(default $HIDISC_SERVICE_URL or "
                              "http://127.0.0.1:8203)")
    service.add_argument("--workers", type=_non_negative, default=2,
                         metavar="N",
                         help="serve: worker processes to supervise "
                              "(default 2)")
    service.add_argument("--lease-ttl", type=float, default=30.0,
                         metavar="SECONDS",
                         help="serve: job lease time-to-live; a worker "
                              "silent this long loses its job to the "
                              "reaper (default 30)")
    service.add_argument("--max-depth", type=_positive, default=64,
                         metavar="N",
                         help="serve: admission control — reject new jobs "
                              "(HTTP 429) past this many pending "
                              "(default 64)")
    service.add_argument("--job-attempts", type=_positive, default=3,
                         metavar="N",
                         help="serve: executions (failures + expired "
                              "leases) before a job is quarantined as "
                              "poison (default 3)")
    service.add_argument("--retry-backoff", type=float, default=0.5,
                         metavar="SECONDS",
                         help="serve: base delay before retrying a failed "
                              "job, doubling per attempt (default 0.5)")
    service.add_argument("--drain-grace", type=float, default=30.0,
                         metavar="SECONDS",
                         help="serve: how long a SIGTERM'd worker may take "
                              "to checkpoint and release its job before "
                              "being killed (default 30)")
    service.add_argument("--benchmarks", metavar="NAMES", default=None,
                         help="submit: comma-separated benchmark names "
                              "(default: the full suite for the chosen "
                              "scale)")
    service.add_argument("--modes", metavar="MODELS", default=None,
                         help="submit: comma-separated machine models "
                              f"(default: all of {', '.join(MODEL_ORDER)})")
    service.add_argument("--cell-delay", type=float, default=0.0,
                         metavar="SECONDS",
                         help="submit: sleep after each freshly computed "
                              "grid cell (testing hook for kill-timing; "
                              "default 0)")
    service.add_argument("--follow", action="store_true",
                         help="submit/jobs <id>: stream the job's JSONL "
                              "events until it reaches a terminal state")
    service.add_argument("--wait", action="store_true",
                         help="submit: block until the job is terminal; "
                              "exit 0 iff it completed")
    service.add_argument("--interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="jobs top: refresh period (default 2.0)")
    service.add_argument("--iterations", type=_non_negative, default=0,
                         metavar="N",
                         help="jobs top: stop after N refreshes "
                              "(default 0 = until Ctrl-C)")
    bench = parser.add_argument_group(
        "bench options", "simulator performance snapshots "
                         "(benchmarks/record.py)")
    bench.add_argument("--bench-filter", metavar="EXPR", default=None,
                       help="pytest -k filter selecting benchmark "
                            "scenarios (default: all)")
    bench.add_argument("--bench-dir", metavar="DIR", default=None,
                       help="directory for the BENCH_<date>.json snapshot "
                            "(default: repository root)")
    return parser


def _run_bench(args, payload: dict) -> int:
    """The 'bench' command: run the pytest-benchmark suite and append a
    BENCH_<date>.json snapshot (see benchmarks/record.py)."""
    import importlib.util
    from pathlib import Path

    record_py = (Path(__file__).resolve().parents[3]
                 / "benchmarks" / "record.py")
    if not record_py.exists():
        print(f"hidisc bench: {record_py} not found (the benchmark "
              f"harness ships with the repository, not the installed "
              f"package)", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("_hidisc_bench_record",
                                                  record_py)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)

    raw = record.run_benchmarks(keyword=args.bench_filter)
    snapshot = record.snapshot_from(raw)
    out_dir = Path(args.bench_dir) if args.bench_dir else None
    path = record.append_snapshot(snapshot, out_dir)
    for name, entry in sorted(snapshot["scenarios"].items()):
        rate = entry.get("cycles_per_second")
        rate_text = f"  {rate:>12,.0f} cycles/s" if rate else ""
        print(f"{name:40s} {entry['mean_seconds'] * 1e3:9.2f} ms{rate_text}")
    print(f"snapshot ({len(snapshot['scenarios'])} scenarios, commit "
          f"{snapshot['commit']}) appended to {path}")
    payload["bench"] = snapshot
    return 0


#: Commands that accept --sample (grid/sweep runs plus single-run stats).
_SAMPLED_COMMANDS = frozenset(
    {"table2", "figure8", "figure9", "figure10", "all", "suite", "stats"}
)

#: The --sample-* tuning flags and the SamplingPlan fields they override.
_SAMPLE_TUNING = (
    ("sample_interval", "interval_length"),
    ("sample_detail", "detail_length"),
    ("sample_warmup", "warmup_length"),
    ("sample_error_budget", "error_budget"),
    ("sample_seed", "seed"),
)


def _sampling_plan(args) -> SamplingPlan | None:
    """The SamplingPlan the flags describe, or None when --sample is off.

    ``SamplingPlan.__post_init__`` validates the combination (positive
    lengths, detail + warmup fitting inside the interval, budget in
    (0, 1)), so nonsense flag combinations fail at parse time, not three
    benchmarks into a grid.
    """
    if not args.sample:
        return None
    overrides = {field: getattr(args, attr)
                 for attr, field in _SAMPLE_TUNING
                 if getattr(args, attr) is not None}
    return SamplingPlan(**overrides)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _profile_single(args, config: MachineConfig, progress,
                    telemetry: Telemetry, cache: RunCache | None):
    """Shared stats/trace path: compile one benchmark, run one model."""
    workload = get_workload(args.bench, quick=args.quick, seed=args.seed)
    if progress:
        progress(f"preparing {workload.name} ...")
    compiled = prepare_cached(workload, config, cache)
    if progress:
        progress(f"  compiled in {compiled.prepare_seconds:.1f}s "
                 f"({compiled.work} dynamic instructions); "
                 f"simulating {args.model} ...")
    return run_model(compiled, config, args.model, telemetry=telemetry,
                     verify=args.verify, sampling=_sampling_plan(args))


def _run_faults(args, config: MachineConfig, progress,
                cache: RunCache | None, payload: dict) -> int:
    """The 'faults' command: a seeded campaign over benchmarks x models.

    Returns the process exit code: 0 when every run degraded gracefully
    (completed with a passing oracle diff, or raised a typed error),
    1 otherwise.
    """
    from ..resilience import FaultPlan, run_fault_campaign
    from ..workloads import all_workloads, quick_workloads

    workloads = (quick_workloads(args.seed) if args.quick
                 else all_workloads(args.seed))
    if args.fault_benches is not None:
        wanted = [name.strip() for name in args.fault_benches.split(",")
                  if name.strip()]
        by_name = {w.name: w for w in workloads}
        unknown = [name for name in wanted if name not in by_name]
        if unknown:
            raise SystemExit(
                f"hidisc faults: unknown benchmark(s) "
                f"{', '.join(unknown)} (have: {', '.join(sorted(by_name))})"
            )
        workloads = [by_name[name] for name in wanted]

    plan = FaultPlan.random(args.fault_seed, count=args.fault_count)
    print(plan.describe())
    outcomes = []
    for workload in workloads:
        interrupt_mod.poll()
        if progress:
            progress(f"preparing {workload.name} ...")
        compiled = prepare_cached(workload, config, cache)
        for mode in MODEL_ORDER:
            interrupt_mod.poll()
            outcome = run_fault_campaign(compiled, config, mode, plan,
                                         max_cycles=args.max_cycles)
            print(outcome.summary())
            outcomes.append(outcome)
    graceful = all(outcome.graceful for outcome in outcomes)
    payload["faults"] = {
        "plan_seed": plan.seed,
        "sites": len(plan.sites),
        "graceful": graceful,
        "outcomes": [outcome.as_dict() for outcome in outcomes],
    }
    completed = sum(1 for o in outcomes if o.outcome == "completed")
    raised = len(outcomes) - completed
    print(f"\nfault campaign: {len(outcomes)} runs, {completed} completed "
          f"under the oracle, {raised} raised typed errors — "
          f"{'all graceful' if graceful else 'GRACEFUL-DEGRADATION FAILURE'}")
    return 0 if graceful else 1


def _run_fuzz(args, config: MachineConfig, progress, payload: dict) -> int:
    """The 'fuzz' command: a differential fuzzing campaign.

    Exit code semantics flip with --inject-fault: a clean toolchain run
    passes when *zero* divergences are found, while a deliberately
    perturbed run passes when the harness *does* find them (the
    detection self-test).
    """
    from ..fuzz import FAULTS, run_fuzz_campaign

    if args.inject_fault is not None and args.inject_fault not in FAULTS:
        raise SystemExit(
            f"hidisc fuzz: unknown fault {args.inject_fault!r} "
            f"(have: {', '.join(sorted(FAULTS))})"
        )
    report = run_fuzz_campaign(
        seed=args.seed, runs=args.runs, config=config, size=args.fuzz_size,
        shrink=args.shrink, corpus_dir=args.corpus,
        fault=args.inject_fault, progress=progress,
    )
    payload["fuzz"] = report
    found = report["divergences"]
    for entry in found:
        stmts = (f"{entry['statements_original']} -> {entry['statements']}"
                 if entry["statements"] != entry["statements_original"]
                 else str(entry["statements"]))
        print(f"[{entry['kind']}] seed={entry['seed']} "
              f"({stmts} statements): {entry['detail']}")
        if entry.get("first_divergent"):
            print(f"  first divergent commit: {entry['first_divergent']}")
    mode = (f"fault {args.inject_fault!r} injected"
            if args.inject_fault else "clean toolchain")
    print(f"\nfuzz campaign ({mode}): {report['runs']} programs, "
          f"{len(found)} divergence(s) in "
          f"{report['elapsed_seconds']:.1f}s"
          + (f"; {len(report['corpus'])} repro(s) in {args.corpus}"
             if args.corpus else ""))
    if args.inject_fault is not None:
        ok = bool(found)
        print("detection self-test " + ("PASSED" if ok else
                                        "FAILED: fault went unnoticed"))
        return 0 if ok else 1
    return 0 if not found else 1


def _run_lifecycle(args, config: MachineConfig, progress,
                   cache: RunCache | None, payload: dict) -> int:
    """The 'lifecycle' command: per-instruction stage tracing + export.

    Runs one benchmark/model with a :class:`LifecycleCollector`, writes
    the records in the requested format (Konata pipeline log, Chrome
    per-instruction spans, or raw JSONL) and prints the critical-path
    attribution table.
    """
    fmt = args.trace_format or "kanata"
    out = args.out or _LIFECYCLE_OUT[fmt]
    lifecycle = LifecycleCollector(
        max_records=args.lifecycle_limit or None,
        jsonl_path=out if fmt == "jsonl" else None,
    )
    heartbeat = Heartbeat(args.heartbeat) if args.heartbeat else None
    telemetry = Telemetry(cpi=True, sample_interval=args.occupancy_interval,
                          lifecycle=lifecycle, heartbeat=heartbeat)
    result = _profile_single(args, config, progress, telemetry, cache)
    telemetry.close()

    rows = lifecycle.rows()
    if fmt == "kanata":
        write_konata(rows, out)
        hint = " — open in Konata (https://github.com/shioyadan/Konata)"
    elif fmt == "chrome":
        sink = ChromeTraceSink(out)
        lifecycle_to_chrome(rows, sink)
        sink.close()
        hint = " — open in https://ui.perfetto.dev or chrome://tracing"
    else:  # jsonl — already streamed by the collector at commit time
        hint = ""

    summary = critical_path_by_pc(rows)
    print(render_run_stats(result))
    print(f"\nCritical-path attribution (top {args.top} static "
          f"instructions by total commit latency):")
    print(render_critical_path(summary, limit=args.top))
    dropped = (f", {lifecycle.dropped} dropped by --lifecycle-limit"
               if lifecycle.dropped else "")
    print(f"\n{lifecycle.committed} instructions captured{dropped}; "
          f"{len(rows)} written to {out} ({fmt}){hint}")
    payload["lifecycle"] = {
        "benchmark": result.benchmark,
        "model": result.machine,
        "cycles": result.cycles,
        "captured": lifecycle.committed,
        "dropped": lifecycle.dropped,
        "format": fmt,
        "records": rows,
        "critical_path": summary[:args.top],
    }
    payload["stats"] = _stats_payload(result, telemetry)
    return 0


def _run_diff(args, payload: dict) -> int:
    """The 'diff' command: compare two run/suite JSON payloads.

    Returns 0 when the payloads are identical (modulo wall-clock keys),
    1 when they diverge — so CI can gate on it directly.
    """
    path_a, path_b = args.cache_action, args.diff_b
    a = load_payload(path_a)
    b = load_payload(path_b)
    report = diff_payloads(a, b)
    print(f"diff {path_a} vs {path_b}:")
    print(render_diff(report, name_a=path_a, name_b=path_b))
    payload["diff"] = report
    return 0 if report["identical"] else 1


def _run_runs(args, payload: dict) -> int:
    """The 'runs' command: render the persistent run ledger.

    ``list`` shows the newest entries, ``show`` dumps one record as JSON,
    ``report`` renders its metrics/span digest plus a regression check
    against the most recent earlier run of the same command.
    """
    ledger = RunLedger(ledger_path(RunCache(args.cache_dir).root))
    action = args.cache_action or "list"
    if action == "list":
        entries = ledger.entries(limit=args.limit)
        print(f"ledger at {ledger.path}:")
        print(render_runs_list(entries))
        payload["runs"] = entries
        return 0
    if args.diff_b:
        entry = ledger.find(args.diff_b)
        if entry is None:
            print(f"hidisc runs {action}: no ledger entry matching "
                  f"{args.diff_b!r} in {ledger.path}", file=sys.stderr)
            return 2
    else:
        newest = ledger.entries(limit=1)
        if not newest:
            print(f"hidisc runs {action}: ledger at {ledger.path} is "
                  f"empty — run any experiment command first",
                  file=sys.stderr)
            return 2
        entry = newest[-1]
    if action == "show":
        print(json.dumps(entry, indent=2, sort_keys=True))
        payload["runs"] = [entry]
        return 0
    print(render_run_report(entry))
    baseline = ledger.baseline_for(entry)
    print()
    if baseline is not None:
        print(render_regressions(entry, baseline))
    else:
        print("no earlier run of the same command to compare against")
    payload["runs"] = [entry]
    payload["baseline"] = baseline
    return 0


def _service_url(args) -> str:
    return (args.url or os.environ.get("HIDISC_SERVICE_URL")
            or "http://127.0.0.1:8203")


def _split_names(text: str | None) -> list[str] | None:
    if text is None:
        return None
    names = [name.strip() for name in text.split(",") if name.strip()]
    return names or None


def _submit_spec(args) -> dict:
    spec: dict = {"kind": "suite", "quick": args.quick, "seed": args.seed,
                  "verify": args.verify}
    benchmarks = _split_names(args.benchmarks)
    if benchmarks is not None:
        spec["benchmarks"] = benchmarks
    modes = _split_names(args.modes)
    if modes is not None:
        spec["modes"] = modes
    if args.cell_delay:
        spec["cell_delay"] = args.cell_delay
    return spec


def _run_serve(args, progress, payload: dict) -> int:
    """The 'serve' command: run the durable simulation service daemon.

    SIGTERM/SIGINT drains gracefully: workers finish/checkpoint their
    in-flight cell, release their jobs back to pending, and the daemon
    exits 0; nothing is left in ``leased/``.  A later ``hidisc serve``
    resumes released jobs from their suite checkpoints.
    """
    from ..service import SERVICE_DIR, ServiceServer

    root = RunCache(args.cache_dir).root / SERVICE_DIR
    server = ServiceServer(
        root, host=args.host, port=args.port, workers=args.workers,
        lease_ttl=args.lease_ttl, max_depth=args.max_depth,
        max_attempts=args.job_attempts, retry_backoff=args.retry_backoff,
        drain_grace=args.drain_grace)
    server.start()
    with GracefulInterrupt() as interrupt_ctx:
        code = server.serve_forever(interrupt_ctx=interrupt_ctx)
    payload["serve"] = server.health()
    return code


def _event_line(event: dict) -> str:
    kind = event.get("kind", "?")
    rest = {k: v for k, v in event.items() if k not in ("kind", "t")}
    detail = " ".join(f"{k}={v}" for k, v in sorted(rest.items()))
    return f"[{event.get('t', 0):.3f}] {kind}" + (f" {detail}" if detail
                                                  else "")


def _run_jobs_trace(args, payload: dict) -> int:
    """'jobs trace <id>': stitch one job's cross-process Perfetto trace.

    Reads the spool directly (job traces are about durable history, so
    no running daemon is required — the same cache dir the service used
    is enough) and writes a single trace with client, queue and worker
    lanes, plus a span digest on stdout.
    """
    from ..errors import ServiceError
    from ..service import SERVICE_DIR, JobQueue, resolve_job_id, \
        stitch_job_trace

    queue = JobQueue(RunCache(args.cache_dir).root / SERVICE_DIR)
    out = args.out or "hidisc_job_trace.json"
    try:
        job_id = resolve_job_id(queue, args.diff_b)
        records, lane_names = stitch_job_trace(queue, job_id)
    except ServiceError as exc:
        print(f"hidisc jobs trace: {exc}", file=sys.stderr)
        return 2
    count = spans.write_orchestration_trace(records, out,
                                            lane_names=lane_names)
    digest = spans.summarize(records)
    lanes = len(lane_names)
    print(f"job {job_id}: {count} events across {lanes} lanes "
          f"written to {out} — open in https://ui.perfetto.dev")
    for cat in sorted(digest["by_category"]):
        entry = digest["by_category"][cat]
        print(f"  {cat:12s} {entry['count']:5d} spans "
              f"{entry['ms']:10.1f} ms total")
    payload["job_trace"] = {"job_id": job_id, "path": out,
                            "events": count, "lanes": lanes,
                            "summary": digest}
    return 0


def _run_service_client(args, payload: dict) -> int:
    """'submit', 'jobs' and 'cancel': thin clients for a running daemon."""
    from ..errors import BackpressureError, ServiceError
    from ..service import ServiceClient, run_top

    client = ServiceClient(_service_url(args))
    try:
        if args.command == "cancel":
            response = client.cancel(args.cache_action)
            print(f"job {response['job_id']}: cancellation requested "
                  f"(state: {response['state']})")
            payload["cancel"] = response
            return 0
        if args.command == "jobs":
            if args.cache_action == "top":
                return run_top(client, interval=args.interval,
                               iterations=args.iterations)
            if args.cache_action is None:
                jobs = client.jobs()
                payload["jobs"] = jobs
                if not jobs:
                    print("no jobs")
                    return 0
                for job in jobs:
                    grid = (",".join(job["benchmarks"])
                            if job.get("benchmarks") else "suite")
                    state = job["state"] + (f"/{job['outcome']}"
                                            if job.get("outcome") else "")
                    print(f"{job['job_id']}  {state:22s} "
                          f"attempts={job['attempts']} "
                          f"cells={job['cells_done']}  {grid} "
                          f"x {','.join(job.get('modes') or [])}"
                          + ("  [quick]" if job.get("quick") else ""))
                return 0
            if args.follow:
                for event in client.events(args.cache_action, follow=True):
                    print(_event_line(event))
            record = client.job(args.cache_action)
            payload["job"] = record
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0
        # submit — send a trace context beside the spec so the stitched
        # job trace gets a client lane; it never affects dedup.
        trace = {"pid": os.getpid(), "span": f"{os.getpid():x}.submit",
                 "t_ns": time.time_ns()}
        response = client.submit(_submit_spec(args), trace=trace)
        job_id = response["job_id"]
        payload["submit"] = response
        if response.get("created"):
            print(f"job {job_id}: submitted")
        else:
            print(f"job {job_id}: joined an identical in-flight job "
                  f"({response.get('submitted')} submissions share it)")
        if not (args.follow or args.wait):
            return 0
        if args.follow:
            for event in client.events(job_id, follow=True):
                print(_event_line(event))
            record = client.job(job_id)
        else:
            record = client.wait(job_id)
        payload["job"] = record
        state, job_outcome = record.get("state"), record.get("outcome")
        print(f"job {job_id}: {state}"
              + (f" ({job_outcome})" if job_outcome else ""))
        if record.get("error"):
            print(f"  error: {record['error']}", file=sys.stderr)
        if state == "done":
            payload["result"] = client.result(job_id)
            return 0
        return 1
    except BackpressureError as exc:
        print(f"hidisc {args.command}: {exc}", file=sys.stderr)
        return 75  # EX_TEMPFAIL: retry after the backlog drains
    except ServiceError as exc:
        print(f"hidisc {args.command}: {exc}", file=sys.stderr)
        return 2


def _stats_payload(result, telemetry: Telemetry) -> dict:
    return {
        "machine": result.machine,
        "benchmark": result.benchmark,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "work_instructions": result.work_instructions,
        "committed": dict(result.committed),
        "cpi_stacks": result.cpi_stacks,
        "lod_cycles": result.loss_of_decoupling_cycles(),
        "lod_breakdown": result.stall_breakdown(),
        "l1": result.l1.as_dict(),
        "l2": result.l2.as_dict(),
        "cmas_threads_forked": result.cmas_threads_forked,
        "cmas_threads_dropped": result.cmas_threads_dropped,
        "samples": [s.as_dict() for s in telemetry.samples],
    }


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "cache":
        if (args.cache_action is not None
                and args.cache_action not in _CACHE_ACTIONS):
            parser.error(f"unknown cache action {args.cache_action!r} "
                         f"(expected {' or '.join(_CACHE_ACTIONS)})")
        if args.diff_b is not None:
            parser.error(f"unexpected argument {args.diff_b!r} after "
                         f"'cache {args.cache_action}'")
    elif args.command == "runs":
        if (args.cache_action is not None
                and args.cache_action not in _RUNS_ACTIONS):
            parser.error(f"unknown runs action {args.cache_action!r} "
                         f"(expected {', '.join(_RUNS_ACTIONS)})")
        if args.diff_b is not None and (args.cache_action or "list") == "list":
            parser.error(f"unexpected argument {args.diff_b!r} after "
                         f"'runs list' (run ids select 'show'/'report')")
    elif args.command == "diff":
        if args.cache_action is None or args.diff_b is None:
            parser.error("diff needs two payload paths: "
                         "hidisc diff <payload_a> <payload_b>")
    elif args.command == "jobs":
        if args.cache_action == "trace":
            if args.diff_b is None:
                parser.error("jobs trace needs a job id: "
                             "hidisc jobs trace <job_id>")
        elif args.diff_b is not None:
            parser.error(f"unexpected argument {args.diff_b!r} after "
                         f"'jobs {args.cache_action}'")
    elif args.command == "cancel":
        if args.cache_action is None:
            parser.error("cancel needs a job id: hidisc cancel <job_id>")
        if args.diff_b is not None:
            parser.error(f"unexpected argument {args.diff_b!r} after "
                         f"'cancel {args.cache_action}'")
    elif args.cache_action is not None:
        parser.error(f"'{args.cache_action}' is only valid after 'cache', "
                     f"'runs', 'jobs' or 'cancel'")
    if args.command == "serve" and args.no_cache:
        parser.error("the service spool lives in the run cache — "
                     "'hidisc serve' cannot run with --no-cache")
    if args.trace_format == "kanata" and args.command != "lifecycle":
        parser.error("--format kanata is only valid for 'hidisc lifecycle'")
    tuning = [f"--{attr.replace('_', '-')}" for attr, _ in _SAMPLE_TUNING
              if getattr(args, attr) is not None]
    if tuning and not args.sample:
        noun = "makes" if len(tuning) == 1 else "make"
        parser.error(f"{', '.join(tuning)} only {noun} sense together "
                     f"with --sample")
    if args.sample:
        if args.command not in _SAMPLED_COMMANDS:
            parser.error(f"--sample is not valid for '{args.command}' "
                         f"(sampled runs work for "
                         f"{', '.join(sorted(_SAMPLED_COMMANDS))}; "
                         f"'trace'/'lifecycle'/'faults' need every cycle "
                         f"simulated in detail)")
        if args.verify:
            parser.error("--sample and --verify are mutually exclusive: "
                         "the co-simulation oracle needs the full commit "
                         "stream")
        try:
            _sampling_plan(args)
        except ConfigError as exc:
            parser.error(f"invalid sampling plan: {exc}")


def _finalize(args, argv, config: MachineConfig, cache: RunCache | None,
              tracer, run_id: str, outcome: str, code: int,
              elapsed: float, progress) -> None:
    """Post-run bookkeeping: flush the orchestration trace and append the
    ledger record (both best-effort; never raises into the exit path)."""
    metrics.record_peak_rss()
    snapshot = metrics.snapshot()
    span_summary = None
    if tracer is not None:
        spans.disable()
        count = spans.write_orchestration_trace(
            tracer.records, args.orch_trace, main_pid=os.getpid())
        span_summary = spans.summarize(tracer.records)
        if progress:
            progress(f"orchestration trace written to {args.orch_trace} "
                     f"({count} events) — open in https://ui.perfetto.dev")
    if cache is None or args.command not in _LEDGER_COMMANDS:
        return
    record = build_record(
        run_id=run_id,
        command=args.command,
        argv=list(argv) if argv is not None else sys.argv[1:],
        outcome=outcome,
        exit_code=code,
        elapsed_seconds=elapsed,
        config=config,
        metrics_snapshot=snapshot,
        spans_summary=span_summary,
        extra={"quick": args.quick, "jobs": args.jobs},
    )
    RunLedger(ledger_path(cache.root)).append(record)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    config = MachineConfig()
    if args.max_cycles is not None:
        config = replace(config, max_cycles=args.max_cycles)
    progress = None if args.no_progress else (
        lambda msg: print(msg, file=sys.stderr, flush=True)
    )
    cache = None if args.no_cache else RunCache(args.cache_dir)

    metrics.reset()
    tracer = spans.enable() if args.orch_trace else None
    run_id = new_run_id()
    start = time.perf_counter()
    outcome, code = "ok", 0
    try:
        with GracefulInterrupt(enabled=args.command in _INTERRUPTIBLE):
            code = _dispatch(args, config, progress, cache)
        if code:
            outcome = f"exit:{code}"
        return code
    except InterruptedRun as exc:
        outcome = "interrupted"
        code = 130
        print(f"\nhidisc {args.command}: {exc}", file=sys.stderr)
        return code
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        outcome = f"exit:{code}"
        raise
    except BaseException as exc:
        outcome = f"error:{type(exc).__name__}"
        code = 1
        raise
    finally:
        _finalize(args, argv, config, cache, tracer, run_id, outcome, code,
                  time.perf_counter() - start, progress)


def _dispatch(args, config: MachineConfig, progress,
              cache: RunCache | None) -> int:
    payload: dict = {}
    if args.command == "cache":
        cache = RunCache(args.cache_dir)
        if args.cache_action == "clear":
            removed = cache.clear()
            print(f"cache cleared: {removed} entries removed from "
                  f"{cache.root}")
            payload["cache"] = {"cleared": removed, "root": str(cache.root)}
        else:
            stats = cache.stats()
            print(f"cache at {stats['root']}: {stats['entries']} entries, "
                  f"{stats['total_bytes']} bytes; suite checkpoints: "
                  f"{stats['suite_cells']} cells, "
                  f"{stats['suite_bytes']} bytes; service spool: "
                  f"{stats['service_files']} files, "
                  f"{stats['service_bytes']} bytes")
            payload["cache"] = stats

    if args.command == "runs":
        code = _run_runs(args, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command == "serve":
        code = _run_serve(args, progress, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command == "jobs" and args.cache_action == "trace":
        code = _run_jobs_trace(args, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command in ("submit", "jobs", "cancel"):
        code = _run_service_client(args, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command == "table1":
        print("Table 1: Simulation parameters")
        print(table1(config))
        payload["table1"] = [list(row) for row in config.describe()]

    if args.command == "stats":
        telemetry = Telemetry.from_config(
            TelemetryConfig(cpi=True, sample_interval=args.occupancy_interval,
                            heartbeat_interval=args.heartbeat)
        )
        result = _profile_single(args, config, progress, telemetry, cache)
        print(render_run_stats(result))
        payload["stats"] = _stats_payload(result, telemetry)

    if args.command == "trace":
        fmt = args.trace_format or "chrome"
        out = args.out or "hidisc_trace.json"
        telemetry = Telemetry.from_config(
            TelemetryConfig(cpi=True, sample_interval=args.occupancy_interval,
                            trace_format=fmt,
                            heartbeat_interval=args.heartbeat),
            trace_path=out,
        )
        result = _profile_single(args, config, progress, telemetry, cache)
        telemetry.close()
        print(render_run_stats(result))
        count = getattr(telemetry.sink, "event_count", None)
        suffix = f" ({count} events)" if count is not None else ""
        hint = (" — open in https://ui.perfetto.dev or chrome://tracing"
                if fmt == "chrome" else "")
        print(f"\ntrace written to {out}{suffix}{hint}")
        payload["trace"] = {"path": str(out),
                            "format": fmt,
                            "events": count}
        payload["stats"] = _stats_payload(result, telemetry)

    if args.command == "lifecycle":
        code = _run_lifecycle(args, config, progress, cache, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command == "diff":
        code = _run_diff(args, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command == "faults":
        code = _run_faults(args, config, progress, cache, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command == "fuzz":
        code = _run_fuzz(args, config, progress, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command == "bench":
        code = _run_bench(args, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        return code

    if args.command in ("table2", "figure8", "figure9", "all", "suite"):
        suite = run_suite(config, quick=args.quick, seed=args.seed,
                          progress=progress, jobs=args.jobs, cache=cache,
                          verify=args.verify, resume=args.resume,
                          sampling=_sampling_plan(args))
        payload["suite"] = suite.to_payload()
        if args.command == "suite":
            for bench in suite.benchmarks.values():
                for result in bench.results.values():
                    label = sampling_label(result)
                    suffix = f"  [{label}]" if label != "full" else ""
                    print(result.summary() + suffix)
            print(f"\nsuite of {len(suite.benchmarks)} benchmarks in "
                  f"{suite.elapsed_seconds:.1f}s "
                  f"(mean HiDISC speedup "
                  f"{suite.mean_speedup('hidisc'):.3f})")
        if args.command in ("figure8", "all"):
            print(figure8(suite).render())
            print()
        if args.command in ("table2", "all"):
            print(table2(suite).render())
            print()
        if args.command in ("figure9", "all"):
            print(figure9(suite).render())
            print()
        compiled = {name: bench.compiled
                    for name, bench in suite.benchmarks.items()}
    else:
        compiled = None

    if args.command in ("figure10", "all"):
        fig10 = figure10(config, quick=args.quick, seed=args.seed,
                         progress=progress, compiled=compiled,
                         jobs=args.jobs, cache=cache,
                         sampling=_sampling_plan(args))
        payload["figure10"] = {
            "latencies": list(fig10.latencies),
            "ipc": fig10.ipc,
        }
        print(fig10.render())

    if args.command == "all":
        print("\nTable 1: Simulation parameters")
        print(table1(config))

    if args.json:
        path = write_json(args.json, payload)
        print(f"\nraw results written to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
