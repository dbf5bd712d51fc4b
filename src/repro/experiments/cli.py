"""Command-line interface: regenerate any table or figure of the paper,
or profile a single run with the telemetry subsystem.

Installed as the ``hidisc`` console script::

    hidisc table1
    hidisc figure8 --quick
    hidisc all --json results.json         # grid on every usable CPU
    hidisc suite --quick --jobs 1          # serial
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
    hidisc serve --workers 2               # durable simulation service
    hidisc submit --quick --wait           # queue a suite job, await it
    hidisc jobs                            # list jobs; 'jobs <id>' inspects
    hidisc jobs top                        # live fleet status (Ctrl-C quits)
    hidisc jobs trace <id>                 # stitch one job's Perfetto trace
    hidisc cancel <job_id>                 # request cancellation

Each command owns its flags, positionals and handler: it is an argparse
subparser (``hidisc <command> --help`` lists its flags; any other flag is
a usage error) whose defaults also say whether the run appends a ledger
record and stops gracefully on a signal.  :func:`main` is the one exit
path: handler, ``--json``, then ledger record and orchestration trace.

Suite-family commands and ``faults`` stop gracefully on SIGINT/SIGTERM:
the first signal finishes and checkpoints the in-flight grid cell, the
ledger records ``outcome: "interrupted"``, and the process exits 130;
``--resume`` then continues without recomputing (a second signal aborts
hard).  ``hidisc serve`` extends the same discipline to a daemon — see
:mod:`repro.service` and DESIGN §9.

Experiment commands run compilations through a persistent on-disk cache
(``--cache-dir``, default ``$HIDISC_CACHE_DIR`` or ``~/.cache/hidisc``;
``--no-cache`` disables it) and fan the simulation grid out over worker
processes: ``--jobs N``, by default 0 = every usable CPU, 1 = serial.
Suite runs checkpoint every completed grid cell into the cache, so an
interrupted run continues with ``--resume``.

Every experiment run appends one record to the ledger
(``<cache-dir>/ledger.jsonl``; see :mod:`repro.experiments.ledger`) —
``hidisc runs list|show|report`` renders it.  ``--orch-trace PATH``
additionally records the host orchestration (compilation, pool rounds,
cache and checkpoint traffic) as a Perfetto-loadable timeline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import replace
from typing import Callable

from ..config import MachineConfig, SamplingPlan
from ..errors import BackpressureError, ConfigError, InterruptedRun, \
    ServiceError
from ..telemetry import (
    ChromeTraceSink,
    Heartbeat,
    JsonlSink,
    LifecycleCollector,
    Telemetry,
    critical_path_by_pc,
    diff_payloads,
    lifecycle_events,
    load_payload,
    metrics,
    render_critical_path,
    render_diff,
    spans,
    write_konata,
    write_perfetto,
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
from .parallel import resolve_jobs
from .reporting import render_run_stats, write_json
from .runner import run_model
from .suite import ProgressFn, run_suite
from .table1 import table1
from .table2 import table2

#: lifecycle output defaults per format (when --out is not given).
_LIFECYCLE_OUT = {"kanata": "hidisc.kanata",
                  "jsonl": "hidisc_lifecycle.jsonl",
                  "chrome": "hidisc_lifecycle.json"}

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


# ----------------------------------------------------------------------
#: One command's handler: (parsed flags, their MachineConfig, progress
#: callback or None, RunCache or None, the dict --json writes) -> exit code.
_Handler = Callable[[argparse.Namespace, MachineConfig, ProgressFn | None,
                     RunCache | None, dict], int]


def _run_table1(args, config, progress, cache, payload) -> int:
    """The 'table1' command: the simulation parameters of *config*."""
    print("Table 1: Simulation parameters")
    print(table1(config))
    payload["table1"] = [list(row) for row in config.describe()]
    return 0


def _run_grid(args, config, progress, cache, payload) -> int:
    """'suite', 'table2', 'figure8', 'figure9' and 'all': run the grid and
    render what the command names from it.  'all' adds Figure 10, replaying
    the grid's compilations, and Table 1."""
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
    if args.command == "all":
        compiled = {name: bench.compiled
                    for name, bench in suite.benchmarks.items()}
        _run_figure10(args, config, progress, cache, payload, compiled)
        print("\nTable 1: Simulation parameters")
        print(table1(config))
    return 0


def _run_figure10(args, config, progress, cache, payload,
                  compiled: dict | None = None) -> int:
    """The 'figure10' command: the latency sweep.  *compiled* hands over
    the preparations of a grid that already ran ('hidisc all')."""
    fig10 = figure10(config, quick=args.quick, seed=args.seed,
                     progress=progress, compiled=compiled,
                     jobs=args.jobs, cache=cache, verify=args.verify,
                     sampling=_sampling_plan(args))
    payload["figure10"] = {"latencies": list(fig10.latencies),
                           "ipc": fig10.ipc}
    print(fig10.render())
    return 0


def _profile_single(args, config: MachineConfig, progress,
                    telemetry: Telemetry, cache: RunCache | None):
    """Shared stats/trace/lifecycle path: compile one benchmark, run one
    model."""
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


def _stats_payload(result, telemetry: Telemetry) -> dict:
    payload = {
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
    if result.sampled:
        payload["sampled"] = True
        payload["sampling"] = result.sampling
    return payload


def _heartbeat(args) -> Heartbeat | None:
    """The --heartbeat status line, or None when it is off (0)."""
    return Heartbeat(args.heartbeat) if args.heartbeat else None


def _run_stats(args, config, progress, cache, payload) -> int:
    """The 'stats' command: one run's CPI stacks, loss-of-decoupling
    breakdown and occupancy samples."""
    telemetry = Telemetry(cpi=True, sample_interval=args.occupancy_interval,
                          heartbeat=_heartbeat(args))
    result = _profile_single(args, config, progress, telemetry, cache)
    print(render_run_stats(result))
    label = sampling_label(result)
    if label != "full":
        print(f"\n[{label}]")
    payload["stats"] = _stats_payload(result, telemetry)
    return 0


def _run_trace(args, config, progress, cache, payload) -> int:
    """The 'trace' command: one run's event stream as a Chrome/Perfetto
    trace or JSONL."""
    fmt, out = args.trace_format, args.out
    sink = JsonlSink(out) if fmt == "jsonl" else ChromeTraceSink(out)
    telemetry = Telemetry(sink=sink, cpi=True,
                          sample_interval=args.occupancy_interval,
                          heartbeat=_heartbeat(args))
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
    return 0


def _run_lifecycle(args, config, progress, cache, payload) -> int:
    """The 'lifecycle' command: per-instruction stage tracing + export.

    Runs one benchmark/model with a :class:`LifecycleCollector`, writes
    the records in the requested format (Konata pipeline log, Chrome
    per-instruction spans, or raw JSONL) and prints the critical-path
    attribution table.
    """
    fmt = args.trace_format
    out = args.out or _LIFECYCLE_OUT[fmt]
    lifecycle = LifecycleCollector(
        max_records=args.lifecycle_limit or None,
        jsonl_path=out if fmt == "jsonl" else None,
    )
    telemetry = Telemetry(cpi=True, sample_interval=args.occupancy_interval,
                          lifecycle=lifecycle, heartbeat=_heartbeat(args))
    result = _profile_single(args, config, progress, telemetry, cache)
    telemetry.close()

    rows = lifecycle.rows()
    if fmt == "kanata":
        write_konata(rows, out)
        hint = " — open in Konata (https://github.com/shioyadan/Konata)"
    elif fmt == "chrome":
        write_perfetto(lifecycle_events(rows), out)
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


def _run_faults(args, config, progress, cache, payload) -> int:
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
            outcome = run_fault_campaign(compiled, config, mode, plan)
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


def _run_fuzz(args, config, progress, cache, payload) -> int:
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


def _run_diff(args, config, progress, cache, payload) -> int:
    """The 'diff' command: compare two run/suite JSON payloads.

    Returns 0 when the payloads are identical (modulo wall-clock keys),
    1 when they diverge — so CI can gate on it directly — and 2 when a
    payload is missing, unreadable or not JSON.
    """
    path_a, path_b = args.payload_a, args.payload_b
    loaded = []
    for path in (path_a, path_b):
        try:
            loaded.append(load_payload(path))
        except (OSError, ValueError) as exc:
            print(f"hidisc diff: cannot load {path}: {exc}", file=sys.stderr)
            return 2
    report = diff_payloads(*loaded)
    print(f"diff {path_a} vs {path_b}:")
    print(render_diff(report, name_a=path_a, name_b=path_b))
    payload["diff"] = report
    return 0 if report["identical"] else 1


def _run_cache(args, config, progress, cache, payload) -> int:
    """The 'cache' command: show the run cache's size, or clear it."""
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache cleared: {removed} entries removed from "
              f"{cache.root}")
        payload["cache"] = {"cleared": removed, "root": str(cache.root)}
        return 0
    stats = cache.stats()
    print(f"cache at {stats['root']}: {stats['entries']} entries, "
          f"{stats['total_bytes']} bytes; suite checkpoints: "
          f"{stats['suite_cells']} cells, "
          f"{stats['suite_bytes']} bytes; service spool: "
          f"{stats['service_files']} files, "
          f"{stats['service_bytes']} bytes")
    payload["cache"] = stats
    return 0


def _run_runs(args, config, progress, cache, payload) -> int:
    """The 'runs' command: render the persistent run ledger.

    ``list`` shows the newest entries, ``show`` dumps one record as JSON,
    ``report`` renders its metrics/span digest plus a regression check
    against the most recent earlier run of the same command.
    """
    ledger = RunLedger(ledger_path(cache.root))
    if args.action == "list":
        entries = ledger.entries(limit=args.limit)
        print(f"ledger at {ledger.path}:")
        print(render_runs_list(entries))
        payload["runs"] = entries
        return 0
    if args.run_id:
        entry = ledger.find(args.run_id)
        if entry is None:
            print(f"hidisc runs {args.action}: no ledger entry matching "
                  f"{args.run_id!r} in {ledger.path}", file=sys.stderr)
            return 2
    else:
        newest = ledger.entries(limit=1)
        if not newest:
            print(f"hidisc runs {args.action}: ledger at {ledger.path} is "
                  f"empty — run any experiment command first",
                  file=sys.stderr)
            return 2
        entry = newest[-1]
    if args.action == "show":
        print(json.dumps(entry, indent=2, sort_keys=True))
        payload["runs"] = [entry]
        return 0
    print(render_run_report(entry))
    baseline = ledger.baseline_for(entry)
    print()
    if baseline is not None:
        print(render_regressions(entry, baseline))
    else:
        print("no earlier run of the same command and worker count to "
              "compare against")
    payload["runs"] = [entry]
    payload["baseline"] = baseline
    return 0


def _run_serve(args, config, progress, cache, payload) -> int:
    """The 'serve' command: run the durable simulation service daemon.

    SIGTERM/SIGINT drains gracefully: workers finish/checkpoint their
    in-flight cell, release their jobs back to pending, and the daemon
    exits 0; nothing is left in ``leased/``.  A later ``hidisc serve``
    resumes released jobs from their suite checkpoints.
    """
    from ..service import SERVICE_DIR, ServiceServer

    server = ServiceServer(
        cache.root / SERVICE_DIR, host=args.host, port=args.port,
        workers=args.workers, lease_ttl=args.lease_ttl,
        max_depth=args.max_depth, max_attempts=args.job_attempts,
        retry_backoff=args.retry_backoff, drain_grace=args.drain_grace)
    server.start()
    with GracefulInterrupt() as interrupt_ctx:
        code = server.serve_forever(interrupt_ctx=interrupt_ctx)
    payload["serve"] = server.health()
    return code


# The service clients ('submit', 'jobs', 'cancel') raise ServiceError on
# any refusal; main() maps it onto the exit code in one place.

def _client(args):
    from ..service import ServiceClient

    return ServiceClient(args.url or os.environ.get("HIDISC_SERVICE_URL")
                         or "http://127.0.0.1:8203")


def _event_line(event: dict) -> str:
    kind = event.get("kind", "?")
    rest = {k: v for k, v in event.items() if k not in ("kind", "t")}
    detail = " ".join(f"{k}={v}" for k, v in sorted(rest.items()))
    return f"[{event.get('t', 0):.3f}] {kind}" + (f" {detail}" if detail
                                                  else "")


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


def _run_submit(args, config, progress, cache, payload) -> int:
    """The 'submit' command: queue a suite job; with --follow or --wait,
    see it through and exit 0 iff it completed."""
    client = _client(args)
    # Send a trace context beside the spec so the stitched job trace gets
    # a client lane; it never affects dedup.
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


def _run_jobs(args, config, progress, cache, payload) -> int:
    """The 'jobs' command: list every job, inspect one ('jobs <id>'),
    watch the fleet ('jobs top') or stitch one job's trace ('jobs trace
    <id>')."""
    if args.target == "trace":
        return _run_jobs_trace(args, cache, payload)
    client = _client(args)
    if args.target == "top":
        from ..service import run_top

        return run_top(client, interval=args.interval,
                       iterations=args.iterations)
    if args.target is None:
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
        for event in client.events(args.target, follow=True):
            print(_event_line(event))
    record = client.job(args.target)
    payload["job"] = record
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _run_jobs_trace(args, cache: RunCache, payload: dict) -> int:
    """'jobs trace <id>': stitch one job's cross-process Perfetto trace.

    Reads the spool directly (job traces are about durable history, so
    no running daemon is required — the same cache dir the service used
    is enough) and writes a single trace with client, queue and worker
    lanes, plus a span digest on stdout.
    """
    from ..service import SERVICE_DIR, JobQueue, resolve_job_id, \
        stitch_job_trace

    queue = JobQueue(cache.root / SERVICE_DIR)
    job_id = resolve_job_id(queue, args.job_id)
    records, lane_names = stitch_job_trace(queue, job_id)
    count = write_perfetto(spans.lane_events(records, lane_names), args.out)
    digest = spans.summarize(records)
    lanes = len(lane_names)
    print(f"job {job_id}: {count} events across {lanes} lanes "
          f"written to {args.out} — open in https://ui.perfetto.dev")
    for cat in sorted(digest["by_category"]):
        entry = digest["by_category"][cat]
        print(f"  {cat:12s} {entry['count']:5d} spans "
              f"{entry['ms']:10.1f} ms total")
    payload["job_trace"] = {"job_id": job_id, "path": args.out,
                            "events": count, "lanes": lanes,
                            "summary": digest}
    return 0


def _run_cancel(args, config, progress, cache, payload) -> int:
    """The 'cancel' command: request cancellation of one job."""
    response = _client(args).cancel(args.job_id)
    print(f"job {response['job_id']}: cancellation requested "
          f"(state: {response['state']})")
    payload["cancel"] = response
    return 0


# ----------------------------------------------------------------------
# The command table.

def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A flag set shared by several commands: an argparse parent parser."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidisc",
        description="Reproduce the evaluation of 'HiDISC: A Decoupled "
                    "Architecture for Data-Intensive Applications' "
                    "(IPDPS 2003).",
    )
    # main(), _validate and the ledger read these on every command; a
    # command without the flag gets the value that leaves it off.
    parser.set_defaults(cache_dir=None, no_cache=False, max_cycles=None,
                        orch_trace=None, quick=False, jobs=1, sample=False,
                        **{attr: None for attr, _ in _SAMPLE_TUNING})
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="command",
        help="'hidisc <command> --help' lists the flags of one command")

    common = _flags()
    common.add_argument("--json", metavar="PATH", default=None,
                        help="also dump raw results as JSON")
    common.add_argument("--no-progress", action="store_true",
                        help="suppress progress messages on stderr")
    cache_dir = _flags()
    cache_dir.add_argument("--cache-dir", metavar="PATH", default=None,
                           help="run-cache directory (default "
                                "$HIDISC_CACHE_DIR or ~/.cache/hidisc)")
    seed = _flags()
    seed.add_argument("--seed", type=int, default=2003,
                      help="workload generator seed (default 2003)")
    quick = _flags()
    quick.add_argument("--quick", action="store_true",
                       help="scaled-down inputs (seconds instead of minutes)")
    verify = _flags()
    verify.add_argument("--verify", action="store_true",
                        help="check every timing run's commit stream "
                             "with the co-simulation oracle (every "
                             "compilation is refereed functionally when "
                             "it is prepared, with or without this flag)")
    run = _flags(cache_dir, seed)
    run.add_argument("--no-cache", action="store_true",
                     help="disable the persistent compilation cache")
    run.add_argument("--max-cycles", type=_positive, default=None,
                     metavar="N",
                     help="cycle budget per timing run (default "
                          f"{MachineConfig().max_cycles}; a run "
                          "exceeding it raises CycleLimitError)")
    run.add_argument("--orch-trace", metavar="PATH", default=None,
                     help="record host orchestration spans (prepare, "
                          "pool rounds, cache/checkpoint traffic, "
                          "per-worker lanes) and write a "
                          "Perfetto-loadable trace_event JSON here")
    sweep = _flags(run, quick, verify)
    sweep.add_argument("--jobs", type=_non_negative, default=0, metavar="N",
                       help="worker processes for the experiment grid "
                            "(default 0 = every usable CPU, 1 = serial)")
    defaults = SamplingPlan()
    sampled = _flags()
    sampling = sampled.add_argument_group(
        "sampling options",
        "SMARTS-style sampled simulation (repro.sim.sampling): "
        "fast-forward by functional warming, simulate short detailed "
        "windows, extrapolate cycles with a measured confidence "
        "interval.  Mutually exclusive with --verify.")
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
    profile = _flags(run, quick, verify)
    profile.add_argument("--bench", default="pointer",
                         choices=sorted(WORKLOADS_BY_NAME),
                         help="benchmark to profile (default pointer)")
    profile.add_argument("--model", default="hidisc", choices=MODEL_ORDER,
                         help="machine model to profile (default hidisc)")
    profile.add_argument("--occupancy-interval", type=_non_negative,
                         default=128, metavar="CYCLES",
                         help="occupancy sampling period in cycles, "
                              "0 disables (default 128)")
    profile.add_argument("--heartbeat", type=_non_negative, default=0,
                         metavar="CYCLES",
                         help="emit a live status line (cycle, IPC, queue "
                              "depths, host cycles/s) on stderr every N "
                              "simulated cycles; 0 disables (default)")
    url = _flags()
    url.add_argument("--url", default=None, metavar="URL",
                     help="service endpoint (default $HIDISC_SERVICE_URL "
                          "or http://127.0.0.1:8203)")
    follow = _flags()
    follow.add_argument("--follow", action="store_true",
                        help="stream the job's JSONL events until it "
                             "reaches a terminal state")

    def command(name: str, handler: _Handler, help: str, *parents,
                ledger=False, interruptible=False):
        sub = commands.add_parser(name, parents=[common, *parents],
                                  help=help, description=help)
        sub.set_defaults(handler=handler, ledger=ledger,
                         interruptible=interruptible)
        return sub

    command("table1", _run_table1, "Table 1: simulation parameters")
    for name, help in (("table2", "Table 2: mean speed-up per model"),
                       ("figure8", "Figure 8: speed-up over the baseline"),
                       ("figure9", "Figure 9: L1 miss rate vs. the baseline"),
                       ("all", "every table and figure"),
                       ("suite", "the raw benchmark x model grid")):
        sub = command(name, _run_grid, help, sweep, sampled, ledger=True,
                      interruptible=True)
        sub.add_argument("--resume", action="store_true",
                         help="load the checkpointed cells of an "
                              "interrupted run and simulate only the "
                              "missing ones")
    command("figure10", _run_figure10,
            "Figure 10: IPC versus L2/memory latency", sweep, sampled,
            ledger=True, interruptible=True)
    command("stats", _run_stats,
            "profile one run: CPI stacks and occupancy samples",
            profile, sampled, ledger=True)
    sub = command("trace", _run_trace,
                  "profile one run into a Chrome/Perfetto or JSONL trace",
                  profile, ledger=True)
    sub.add_argument("--out", metavar="PATH", default="hidisc_trace.json",
                     help="output file (default hidisc_trace.json)")
    sub.add_argument("--format", dest="trace_format", default="chrome",
                     choices=("chrome", "jsonl"),
                     help="output format: Chrome/Perfetto trace_event "
                          "JSON or JSONL (default chrome)")
    sub = command("lifecycle", _run_lifecycle,
                  "trace every instruction's pipeline stages in one run",
                  profile, ledger=True)
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="output file (default follows the format: "
                          "hidisc.kanata / hidisc_lifecycle.jsonl / "
                          "hidisc_lifecycle.json)")
    sub.add_argument("--format", dest="trace_format", default="kanata",
                     choices=("kanata", "chrome", "jsonl"),
                     help="output format: a Konata pipeline-viewer log, "
                          "Chrome/Perfetto per-instruction spans, or "
                          "JSONL (default kanata)")
    sub.add_argument("--lifecycle-limit", type=_non_negative, default=0,
                     metavar="N",
                     help="keep only the newest N lifecycle records "
                          "(ring buffer); 0 keeps all (default)")
    sub.add_argument("--top", type=_positive, default=12, metavar="N",
                     help="rows in the critical-path table (default 12)")
    sub = command("faults", _run_faults, "seeded fault-injection campaigns "
                  "(repro.resilience)", run, quick, ledger=True,
                  interruptible=True)
    sub.add_argument("--fault-seed", type=int, default=2003, metavar="SEED",
                     help="FaultPlan seed (default 2003); the same seed "
                          "always injects the same faults")
    sub.add_argument("--fault-count", type=_non_negative, default=8,
                     metavar="N",
                     help="number of fault sites to draw (default 8)")
    sub.add_argument("--fault-benches", metavar="NAMES", default=None,
                     help="comma-separated benchmark names to campaign "
                          "over (default: every suite benchmark)")
    sub = command("fuzz", _run_fuzz,
                  "differential program fuzzing (repro.fuzz)", run,
                  ledger=True)
    sub.add_argument("--runs", type=_positive, default=50, metavar="N",
                     help="number of seeded random programs to draw "
                          "(default 50); --seed selects the first")
    sub.add_argument("--fuzz-size", type=_positive, default=24, metavar="N",
                     help="approximate top-level statements per "
                          "generated program (default 24)")
    sub.add_argument("--shrink", action="store_true",
                     help="delta-debug each failing program to a minimal "
                          "repro before reporting it")
    sub.add_argument("--corpus", metavar="DIR", default=None,
                     help="write each (shrunk) failing program as a "
                          "replayable JSON repro into this directory")
    sub.add_argument("--inject-fault", metavar="NAME", default=None,
                     help="self-test: deliberately perturb one step of "
                          "the compiled interpreter table, an ALU op or "
                          "an annotation step (see repro.fuzz.harness."
                          "FAULTS); the campaign must then FIND "
                          "divergences — exit 0 iff it does")
    sub = command("serve", _run_serve, "run the durable simulation service "
                  "daemon (repro.service)", cache_dir, ledger=True)
    sub.add_argument("--host", default="127.0.0.1",
                     help="interface to bind (default 127.0.0.1)")
    sub.add_argument("--port", type=_non_negative, default=8203,
                     help="TCP port (default 8203; 0 picks a free port "
                          "and prints it)")
    sub.add_argument("--workers", type=_non_negative, default=2,
                     metavar="N",
                     help="worker processes to supervise (default 2)")
    sub.add_argument("--lease-ttl", type=float, default=30.0,
                     metavar="SECONDS",
                     help="job lease time-to-live; a worker silent this "
                          "long loses its job to the reaper (default 30)")
    sub.add_argument("--max-depth", type=_positive, default=64, metavar="N",
                     help="admission control — reject new jobs (HTTP 429) "
                          "past this many pending (default 64)")
    sub.add_argument("--job-attempts", type=_positive, default=3,
                     metavar="N",
                     help="executions (failures + expired leases) before a "
                          "job is quarantined as poison (default 3)")
    sub.add_argument("--retry-backoff", type=float, default=0.5,
                     metavar="SECONDS",
                     help="base delay before retrying a failed job, "
                          "doubling per attempt (default 0.5)")
    sub.add_argument("--drain-grace", type=float, default=30.0,
                     metavar="SECONDS",
                     help="how long a SIGTERM'd worker may take to "
                          "checkpoint and release its job before being "
                          "killed (default 30)")
    sub = command("submit", _run_submit, "queue a suite job on a 'hidisc "
                  "serve' daemon", url, seed, quick, verify, follow)
    sub.add_argument("--wait", action="store_true",
                     help="block until the job is terminal; exit 0 iff it "
                          "completed")
    sub.add_argument("--benchmarks", metavar="NAMES", default=None,
                     help="comma-separated benchmark names (default: the "
                          "full suite for the chosen scale)")
    sub.add_argument("--modes", metavar="MODELS", default=None,
                     help="comma-separated machine models "
                          f"(default: all of {', '.join(MODEL_ORDER)})")
    sub.add_argument("--cell-delay", type=float, default=0.0,
                     metavar="SECONDS",
                     help="sleep after each freshly computed grid cell "
                          "(testing hook for kill-timing; default 0)")
    sub = command("jobs", _run_jobs, "list, inspect, watch or trace the "
                  "service's jobs", url, follow, cache_dir)
    sub.add_argument("target", nargs="?",
                     help="a job id to inspect, 'top' for live fleet "
                          "status, or 'trace' (default: list every job)")
    sub.add_argument("job_id", nargs="?",
                     help="for 'jobs trace': the job id (prefixes accepted)")
    sub.add_argument("--out", metavar="PATH", default="hidisc_job_trace.json",
                     help="'jobs trace' output file (default "
                          "hidisc_job_trace.json)")
    sub.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="'jobs top' refresh period (default 2.0)")
    sub.add_argument("--iterations", type=_non_negative, default=0,
                     metavar="N",
                     help="'jobs top': stop after N refreshes (default 0 "
                          "= until Ctrl-C)")
    sub = command("cancel", _run_cancel, "cancel a service job", url)
    sub.add_argument("job_id", help="the job to cancel")
    sub = command("diff", _run_diff, "compare two result payloads: first "
                  "divergent commit and values")
    sub.add_argument("payload_a", help="the first payload path")
    sub.add_argument("payload_b", help="the second payload path")
    sub = command("cache", _run_cache, "inspect or clear the run cache",
                  cache_dir)
    sub.add_argument("action", nargs="?", default="stats",
                     choices=("stats", "clear"),
                     help="'stats' (default) or 'clear'")
    sub = command("runs", _run_runs,
                  "render the run ledger: recent runs, one record, or a "
                  "regression report", cache_dir)
    sub.add_argument("action", nargs="?", default="list",
                     choices=("list", "show", "report"),
                     help="'list' (default), 'show' or 'report'")
    sub.add_argument("run_id", nargs="?",
                     help="for 'show'/'report': a run-id prefix (default: "
                          "the newest run)")
    sub.add_argument("--limit", type=_positive, default=20, metavar="N",
                     help="newest N ledger entries to list (default 20)")
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """The checks argparse cannot express; every flag or positional a
    command does not declare is already a usage error."""
    tuning = [f"--{attr.replace('_', '-')}" for attr, _ in _SAMPLE_TUNING
              if getattr(args, attr) is not None]
    if tuning and not args.sample:
        noun = "makes" if len(tuning) == 1 else "make"
        parser.error(f"{', '.join(tuning)} only {noun} sense together "
                     f"with --sample")
    if args.sample and args.verify:
        parser.error("--sample and --verify are mutually exclusive: "
                     "the co-simulation oracle needs the full commit "
                     "stream")
    try:
        _sampling_plan(args)
    except ConfigError as exc:
        parser.error(f"invalid sampling plan: {exc}")
    if args.command == "jobs":
        if args.target == "trace" and args.job_id is None:
            parser.error("jobs trace needs a job id: "
                         "hidisc jobs trace <job_id>")
        if args.target != "trace" and args.job_id is not None:
            parser.error(f"unexpected argument {args.job_id!r} after "
                         f"'jobs {args.target}'")
    if (args.command == "runs" and args.action == "list"
            and args.run_id is not None):
        parser.error(f"unexpected argument {args.run_id!r} after "
                     f"'runs list' (run ids select 'show'/'report')")


def _finalize(args, argv, config: MachineConfig, cache: RunCache | None,
              tracer, run_id: str, outcome: str, code: int,
              elapsed: float, progress) -> None:
    """Post-run bookkeeping: flush the orchestration trace and append the
    ledger record (both best-effort; never raises into the exit path)."""
    metrics.record_peak_rss()
    snapshot = metrics.snapshot()
    span_summary = None
    if tracer is not None:
        lanes = {r.pid: f"hidisc worker {r.pid}" for r in tracer.records}
        lanes[os.getpid()] = "hidisc orchestrator"
        count = write_perfetto(spans.lane_events(tracer.records, lanes),
                               args.orch_trace)
        span_summary = spans.summarize(tracer.records)
        if progress:
            progress(f"orchestration trace written to {args.orch_trace} "
                     f"({count} events) — open in https://ui.perfetto.dev")
    if cache is None or not args.ledger:
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
        extra={"quick": args.quick, "jobs": resolve_jobs(args.jobs)},
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
    tracing = spans.tracing() if args.orch_trace else contextlib.nullcontext()
    tracer = None
    run_id = new_run_id()
    start = time.perf_counter()
    payload: dict = {}
    outcome, code = "ok", 0
    try:
        with tracing as tracer, GracefulInterrupt(enabled=args.interruptible):
            code = args.handler(args, config, progress, cache, payload)
        if args.json:
            path = write_json(args.json, payload)
            print(f"\nraw results written to {path}", file=sys.stderr)
        if code:
            outcome = f"exit:{code}"
        return code
    except InterruptedRun as exc:
        outcome = "interrupted"
        code = 130
        print(f"\nhidisc {args.command}: {exc}", file=sys.stderr)
        return code
    except ServiceError as exc:  # 75 = EX_TEMPFAIL: shed load, retry later
        code = 75 if isinstance(exc, BackpressureError) else 2
        outcome = f"exit:{code}"
        print(f"hidisc {args.command}: {exc}", file=sys.stderr)
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
