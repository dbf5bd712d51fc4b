"""CLI tests (argument handling plus one end-to-end table)."""

import ast
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.errors import BackpressureError, ServiceError
from repro.experiments import RunLedger, ledger_path
from repro.experiments.cli import _validate, build_parser, main
from repro.experiments.models import MODEL_ORDER
from repro.telemetry import diff_payloads

from .conftest import read_perfetto_trace

ROOT = Path(__file__).resolve().parents[1]


def documented_invocations() -> list[str]:
    """Every ``hidisc ...`` command line in the README/EXPERIMENTS bash
    blocks and the CI workflow, with continuations joined, shell plumbing
    (comments, pipes, redirects, ``&``) cut and ``<job-id>``-style
    placeholders filled."""
    sources = [block for name in ("README.md", "EXPERIMENTS.md")
               for block in re.findall(r"```bash\n(.*?)```",
                                       (ROOT / name).read_text(), re.S)]
    sources.append((ROOT / ".github" / "workflows" / "ci.yml").read_text())
    lines = []
    for text in sources:
        text = re.sub(r"<[\w-]+>", "18c2f", re.sub(r"\\\n\s*", " ", text))
        for line in text.splitlines():
            line = re.split(r" #|\||&|2>|>", line, maxsplit=1)[0].strip()
            line = line.removeprefix("run: ")
            if line.startswith("hidisc "):
                lines.append(line)
    return lines


def documented_imports() -> list[str]:
    """Every ``import`` and ``from ... import`` statement in the README's
    python blocks and in ``examples/*.py``, rendered back to source."""
    sources = re.findall(r"```python\n(.*?)```",
                         (ROOT / "README.md").read_text(), re.S)
    sources += [path.read_text()
                for path in sorted((ROOT / "examples").glob("*.py"))]
    return [ast.unparse(node) for text in sources
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


class TestParser:
    def test_commands_accepted(self):
        parser = build_parser()
        for argv in (["table1"], ["table2"], ["figure8"], ["figure9"],
                     ["figure10"], ["all"], ["suite"], ["stats"], ["trace"],
                     ["lifecycle"], ["diff", "a.json", "b.json"], ["cache"],
                     ["runs"], ["faults"], ["fuzz"], ["serve"], ["submit"],
                     ["jobs"], ["cancel", "18c2f"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0] and callable(args.handler)

    def test_documented_invocations_parse(self):
        lines = documented_invocations()
        # 68 from the docs plus CI's 2 fuzz soaks
        assert len(lines) > 60, "the doc scan found too few command lines"
        parser = build_parser()
        rejected = []
        for line in lines:
            try:
                _validate(parser, parser.parse_args(shlex.split(line)[1:]))
            except SystemExit:
                rejected.append(line)
        assert not rejected

    def test_documented_imports_resolve(self):
        statements = documented_imports()
        assert len(statements) > 10, "the doc scan found too few imports"
        failed = []
        for statement in statements:
            try:
                exec(statement, {})
            except ImportError as exc:
                failed.append(f"{statement}: {exc}")
        assert not failed

    @pytest.mark.parametrize("argv", [
        "table1 --jobs 2", "stats --jobs 2", "figure10 --resume",
        "cache --no-cache", "runs --no-cache", "submit --no-cache",
        "fuzz --quick", "diff a b --resume", "cancel j --limit 3",
    ])
    def test_flags_a_command_ignores_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure11"])

    def test_flags(self):
        args = build_parser().parse_args(
            ["figure8", "--quick", "--seed", "9", "--json", "x.json"]
        )
        assert args.quick and args.seed == 9 and args.json == "x.json"

    def test_profiling_flags(self):
        args = build_parser().parse_args(
            ["trace", "--bench", "field", "--model", "cp_ap",
             "--out", "t.json", "--format", "jsonl",
             "--occupancy-interval", "64"]
        )
        assert args.bench == "field" and args.model == "cp_ap"
        assert args.out == "t.json" and args.trace_format == "jsonl"
        assert args.occupancy_interval == 64

    def test_sampling_flags(self):
        args = build_parser().parse_args(
            ["suite", "--sample", "--sample-interval", "40000",
             "--sample-detail", "2000", "--sample-warmup", "500",
             "--sample-error-budget", "0.05", "--sample-seed", "7"]
        )
        assert args.sample and args.sample_interval == 40000
        assert args.sample_detail == 2000 and args.sample_warmup == 500
        assert args.sample_error_budget == 0.05 and args.sample_seed == 7
        defaults = build_parser().parse_args(["suite"])
        assert not defaults.sample and defaults.sample_interval is None

    def test_sampling_plan_built_from_flags(self):
        from repro.experiments.cli import _sampling_plan

        args = build_parser().parse_args(
            ["suite", "--sample", "--sample-interval", "40000"])
        plan = _sampling_plan(args)
        assert plan.interval_length == 40000
        assert plan.detail_length == 2000  # SamplingPlan default preserved
        assert _sampling_plan(build_parser().parse_args(["suite"])) is None

    def test_sample_tuning_requires_sample(self):
        with pytest.raises(SystemExit):
            main(["suite", "--sample-interval", "40000"])

    def test_sample_conflicts_rejected(self):
        with pytest.raises(SystemExit):
            main(["suite", "--sample", "--verify"])
        with pytest.raises(SystemExit):
            main(["faults", "--sample"])
        with pytest.raises(SystemExit):
            main(["lifecycle", "--sample"])

    def test_invalid_sampling_plan_rejected(self):
        # detail longer than the interval violates SamplingPlan validation
        with pytest.raises(SystemExit):
            main(["suite", "--sample", "--sample-interval", "100",
                  "--sample-detail", "2000"])

    def test_bad_bench_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--bench", "nosuch"])

    def test_parallel_and_cache_flags(self):
        args = build_parser().parse_args(
            ["suite", "--quick", "--jobs", "4", "--no-cache",
             "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4 and args.no_cache
        assert args.cache_dir == "/tmp/c"
        assert build_parser().parse_args(["suite"]).jobs == 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--jobs", "-1"])

    def test_cache_subcommands(self):
        for action in ("stats", "clear"):
            args = build_parser().parse_args(["cache", action])
            assert args.command == "cache" and args.action == action
        assert build_parser().parse_args(["cache"]).action == "stats"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "frobnicate"])

    def test_cache_action_only_valid_after_cache(self):
        with pytest.raises(SystemExit):
            main(["table1", "clear"])

    def test_lifecycle_flags(self):
        args = build_parser().parse_args(
            ["lifecycle", "--bench", "field", "--model", "hidisc",
             "--format", "kanata", "--out", "run.kanata",
             "--heartbeat", "5000", "--lifecycle-limit", "256",
             "--top", "5"]
        )
        assert args.command == "lifecycle" and args.trace_format == "kanata"
        assert args.out == "run.kanata" and args.heartbeat == 5000
        assert args.lifecycle_limit == 256 and args.top == 5
        # defaults: kanata for lifecycle (chrome for trace), heartbeat and
        # limit off, --out derived from the format later
        args = build_parser().parse_args(["lifecycle"])
        assert args.trace_format == "kanata" and args.out is None
        assert args.heartbeat == 0
        assert args.lifecycle_limit == 0 and args.top == 12
        assert build_parser().parse_args(["trace"]).trace_format == "chrome"

    def test_negative_heartbeat_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifecycle", "--heartbeat", "-1"])

    def test_kanata_format_only_for_lifecycle(self):
        with pytest.raises(SystemExit):
            main(["trace", "--format", "kanata"])

    def test_diff_positional_paths(self):
        args = build_parser().parse_args(["diff", "a.json", "b.json"])
        assert args.payload_a == "a.json" and args.payload_b == "b.json"

    def test_diff_requires_both_paths(self):
        for argv in (["diff"], ["diff", "a.json"]):
            with pytest.raises(SystemExit):
                main(argv)

    def test_runs_subcommands(self):
        for action in ("list", "show", "report"):
            args = build_parser().parse_args(["runs", action])
            assert args.command == "runs" and args.action == action
        # show/report take an optional run-id prefix
        args = build_parser().parse_args(["runs", "show", "18c2f"])
        assert args.action == "show" and args.run_id == "18c2f"
        assert build_parser().parse_args(["runs"]).action == "list"

    def test_runs_action_validated_in_main(self):
        with pytest.raises(SystemExit):
            main(["runs", "frobnicate"])
        with pytest.raises(SystemExit):
            main(["runs", "list", "someid"])

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["suite", "--orch-trace", "orch.json"])
        assert args.orch_trace == "orch.json"
        args = build_parser().parse_args(["runs", "list", "--limit", "5"])
        assert args.limit == 5
        assert build_parser().parse_args(["suite"]).orch_trace is None
        assert build_parser().parse_args(["runs"]).limit == 20

    def test_bad_limit_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "list", "--limit", "0"])


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "bimodal" in out

    def test_table1_json(self, capsys, tmp_path):
        # regression: --json used to be silently ignored for table1
        json_path = tmp_path / "t1.json"
        assert main(["table1", "--json", str(json_path)]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        rows = payload["table1"]
        assert rows and all(len(row) == 2 for row in rows)
        assert any("bimodal" in str(v) for row in rows for v in row)

    def test_stats_quick(self, capsys, tmp_path):
        json_path = tmp_path / "stats.json"
        assert main(["stats", "--quick", "--no-progress", "--bench", "field",
                     "--model", "hidisc", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "CPI stack" in out and "components sum to cycles" in out
        payload = json.loads(json_path.read_text())["stats"]
        cycles = payload["cycles"]
        stacks = payload["cpi_stacks"]
        assert set(stacks) == {"CP", "AP", "CMP"}
        for stack in stacks.values():
            assert sum(stack.values()) == cycles
        assert payload["samples"], "sampler timeseries missing"

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_trace_quick(self, fmt, capsys, tmp_path):
        out_path = tmp_path / f"trace.{fmt}"
        json_path = tmp_path / "payload.json"
        assert main(["trace", "--quick", "--no-progress", "--bench", "field",
                     "--model", "superscalar", "--format", fmt,
                     "--out", str(out_path), "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert ("perfetto" in out) == (fmt == "chrome")
        payload = json.loads(json_path.read_text())["trace"]
        assert payload["format"] == fmt
        if fmt == "chrome":
            events, lanes = read_perfetto_trace(out_path)
            assert lanes == {0: "hidisc-sim"}
            assert {"X", "C"} <= {e["ph"] for e in events}
        else:
            records = [json.loads(line)
                       for line in out_path.read_text().splitlines()]
            assert payload["events"] == len(records)
            assert {"duration", "counter"} <= {r["ev"] for r in records}

    @pytest.mark.parametrize("command, count, digest, threads", [
        ("trace", 14244,
         "13303acb23898d38c9941c36c8d89d2913afd5357cfa6ea1f0dbb5eb8f598754",
         ["CMP", "CP", "AP", "frontend", "memory"]),
        ("lifecycle", 11219,
         "ecf7820d50602b1f0b47bb5cdf5ead75f5624e7f50d3a87b3691c6e07eb3a9bc",
         ["CP pipeline", "AP pipeline", "CMP pipeline"]),
    ])
    def test_chrome_trace_events_are_pinned(self, command, count, digest,
                                            threads, capsys, tmp_path):
        """The quick pointer/hidisc ``trace`` and ``lifecycle --format
        chrome`` files, sampler off: the same non-metadata events in the
        same order (by digest), on the same named lanes."""
        out_path = tmp_path / "trace.json"
        assert main([command, "--quick", "--no-progress", "--no-cache",
                     "--bench", "pointer", "--model", "hidisc",
                     "--format", "chrome", "--occupancy-interval", "0",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        events, lanes = read_perfetto_trace(out_path)
        body = [e for e in events if e["ph"] != "M"]
        text = "\n".join(json.dumps(e, sort_keys=True) for e in body)
        assert len(body) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert lanes == {0: "hidisc-sim"}
        named = {e["tid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert named == dict(enumerate(threads, start=1))

    def test_sampler_adds_only_its_own_counters(self, capsys, tmp_path):
        """Turning the occupancy sampler on adds ``occupancy/*`` and
        ``memory/*`` counter points and nothing else: the queue counters
        already carry every LDQ/SDQ/SAQ change."""
        bodies = []
        for interval in ("0", "128"):
            out_path = tmp_path / f"trace{interval}.json"
            assert main(["trace", "--quick", "--no-progress", "--no-cache",
                         "--bench", "pointer", "--model", "hidisc",
                         "--occupancy-interval", interval,
                         "--out", str(out_path)]) == 0
            events, _ = read_perfetto_trace(out_path)
            bodies.append([e for e in events if e["ph"] != "M"])
        capsys.readouterr()
        off, on = bodies
        added = [e for e in on if e["ph"] == "C"
                 and e["name"].split("/")[0] in ("occupancy", "memory")]
        assert added
        assert [e for e in on if e not in added] == off

    def test_lifecycle_quick_kanata(self, capsys, tmp_path):
        out_path = tmp_path / "run.kanata"
        json_path = tmp_path / "life.json"
        assert main(["lifecycle", "--quick", "--no-progress",
                     "--bench", "field", "--model", "superscalar",
                     "--out", str(out_path), "--json", str(json_path),
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Konata" in out and "Critical-path attribution" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "Kanata\t0004"
        assert all(l.split("\t", 1)[0] in
                   {"Kanata", "C=", "C", "I", "L", "S", "E", "R"}
                   for l in lines)
        payload = json.loads(json_path.read_text())["lifecycle"]
        assert payload["benchmark"] == "field"
        assert payload["captured"] == len(payload["records"])
        assert payload["dropped"] == 0
        assert len(payload["critical_path"]) <= 3

    def test_lifecycle_quick_jsonl_with_limit(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        assert main(["lifecycle", "--quick", "--no-progress",
                     "--bench", "field", "--model", "superscalar",
                     "--format", "jsonl", "--out", str(out_path),
                     "--lifecycle-limit", "64"]) == 0
        capsys.readouterr()
        rows = [json.loads(l) for l in
                out_path.read_text().splitlines() if l]
        assert rows, "JSONL stream is empty"
        # the stream got every commit even though the ring kept only 64
        assert len(rows) > 64
        assert all(r["fetch"] <= r["commit"] for r in rows)

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out

        # a cached compile shows up in stats, and clear removes it
        assert main(["stats", "--quick", "--no-progress", "--bench", "field",
                     "--model", "superscalar",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        json_path = tmp_path / "cache.json"
        assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--json", str(json_path)]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert json.loads(json_path.read_text())["cache"]["entries"] == 1
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_stats_sample_is_tagged_and_reproducible(self, capsys, tmp_path):
        """A sampled paper-scale run says it is extrapolated, in its
        output and its payload, and repeats byte for byte."""
        argv = ["stats", "--bench", "raytrace", "--model", "hidisc",
                "--sample", "--sample-interval", "4000", "--sample-detail",
                "1000", "--sample-warmup", "1000", "--no-progress"]
        payloads = []
        for name in ("a", "b"):
            json_path = tmp_path / f"{name}.json"
            assert main([*argv, "--json", str(json_path)]) == 0
            assert "[sampled (" in capsys.readouterr().out
            payloads.append(json.loads(json_path.read_text()))
        stats = payloads[0]["stats"]
        assert stats["sampled"] and not stats["sampling"]["exact"]
        assert stats["sampling"]["cycles_rel_ci95"] <= 0.03
        assert diff_payloads(*payloads)["identical"]

    def test_suite_cold_verified_then_warm_sampled(self, capsys, tmp_path):
        """Two traced quick suites at --jobs 2 over one cache: a verified
        cold run, then a sampled warm run whose every cell fits one
        sampling period and so reports the cold run's exact cycles."""
        cache_dir = tmp_path / "cache"
        payloads = {}
        for name, flag in (("cold", "--verify"), ("warm", "--sample")):
            json_path = tmp_path / f"{name}.json"
            trace_path = tmp_path / f"{name}.trace.json"
            assert main(["suite", "--quick", "--no-progress", "--jobs", "2",
                         flag, "--cache-dir", str(cache_dir),
                         "--json", str(json_path),
                         "--orch-trace", str(trace_path)]) == 0
            payloads[name] = json.loads(json_path.read_text())["suite"]
            events, lanes = read_perfetto_trace(trace_path)
            assert {"run_suite", "run_tasks", "run_model"} <= \
                {e["name"] for e in events}
            assert len(lanes) >= 2, "expected parent + worker lanes"
        cold = payloads["cold"]["benchmarks"]
        warm = payloads["warm"]["benchmarks"]
        assert len(cold) == len(warm) == 9
        for name, bench in warm.items():
            for mode, cell in bench["models"].items():
                assert cell["sampled"] and cell["sampling"]["exact"]
                assert cell["cycles"] == cold[name]["models"][mode]["cycles"]

        entries = RunLedger(ledger_path(cache_dir)).entries()
        assert [(e["command"], e["outcome"]) for e in entries] == \
            [("suite", "ok")] * 2
        assert entries[0]["run_id"] != entries[1]["run_id"]
        assert all(entry["spans"]["count"] > 0 for entry in entries)
        assert entries[1]["metrics"]["counters"]["cache_hits"] == 9
        capsys.readouterr()
        assert main(["runs", "report", "--cache-dir", str(cache_dir)]) == 0
        assert "vs run" in capsys.readouterr().out

    def test_faults_campaign_degrades_gracefully(self, capsys, tmp_path):
        json_path = tmp_path / "faults.json"
        assert main(["faults", "--quick", "--no-progress", "--fault-benches",
                     "dm,field", "--json", str(json_path)]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())["faults"]
        assert payload["graceful"]
        assert len(payload["outcomes"]) == 2 * len(MODEL_ORDER)
        assert all(outcome["graceful"] for outcome in payload["outcomes"])

    def test_stats_reuses_cached_compile(self, capsys, tmp_path,
                                         monkeypatch):
        cache_dir = tmp_path / "cache"
        common = ["stats", "--quick", "--no-progress", "--bench", "field",
                  "--model", "superscalar", "--cache-dir", str(cache_dir)]
        assert main(common) == 0
        capsys.readouterr()

        import repro.experiments.runner as runner_mod

        def forbidden(workload, config):
            raise AssertionError("prepare() called despite a warm cache")

        monkeypatch.setattr(runner_mod, "prepare", forbidden)
        assert main(common) == 0
        assert "CPI stack" in capsys.readouterr().out

    def test_figure10_quick_with_json(self, capsys, tmp_path, monkeypatch):
        # restrict the sweep via monkeypatching to keep this test fast
        import repro.experiments.cli as cli_mod

        original = cli_mod.figure10

        def tiny_figure10(config, quick, seed, progress, compiled=None,
                          **kwargs):
            return original(config, quick=quick, seed=seed,
                            benchmarks=("field",),
                            latencies=((12, 120),), progress=progress,
                            compiled=compiled, **kwargs)

        monkeypatch.setattr(cli_mod, "figure10", tiny_figure10)
        json_path = tmp_path / "out.json"
        assert main(["figure10", "--quick", "--no-progress",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        payload = json.loads(json_path.read_text())
        assert "figure10" in payload
        assert payload["figure10"]["ipc"]["field"]["hidisc"][0] > 0

    def test_figure10_verify_reaches_every_cell(self, capsys, monkeypatch):
        import repro.experiments.cli as cli_mod
        import repro.experiments.parallel as parallel

        original = cli_mod.figure10

        def tiny_figure10(config, quick, seed, progress, compiled=None,
                          **kwargs):
            return original(config, quick=quick, seed=seed,
                            benchmarks=("field",),
                            latencies=((12, 120),), progress=progress,
                            compiled=compiled, **kwargs)

        cells = []
        run_model_task = parallel.run_model_task

        def spy(compiled, config, mode, cpi, verify=False, sampling=None):
            cells.append((mode, verify))
            return run_model_task(compiled, config, mode, cpi, verify,
                                  sampling)

        monkeypatch.setattr(cli_mod, "figure10", tiny_figure10)
        monkeypatch.setattr(parallel, "run_model_task", spy)
        assert main(["figure10", "--quick", "--verify", "--no-progress",
                     "--no-cache"]) == 0
        assert "Figure 10" in capsys.readouterr().out
        assert sorted(mode for mode, _ in cells) == sorted(MODEL_ORDER)
        assert all(verify for _, verify in cells), cells

    @pytest.mark.parametrize("content", [None, "{not json"],
                             ids=["missing", "malformed"])
    def test_diff_unreadable_payload_exits_2(self, content, capsys,
                                             tmp_path):
        good = tmp_path / "good.json"
        good.write_text("{}")
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        assert main(["diff", str(bad), str(good)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("hidisc diff: ") and str(bad) in err

    @pytest.mark.parametrize("refusal, code", [
        (BackpressureError(64, 64), 75),  # EX_TEMPFAIL: retry later
        (ServiceError("unknown job 'j'"), 2),
    ], ids=["backpressure", "service-error"])
    def test_service_refusal_exit_codes(self, refusal, code, capsys,
                                        monkeypatch):
        import repro.service as service

        class RefusingClient:
            def __init__(self, url):
                pass

            def cancel(self, job_id):
                raise refusal

        monkeypatch.setattr(service, "ServiceClient", RefusingClient)
        assert main(["cancel", "j"]) == code
        assert capsys.readouterr().err == f"hidisc cancel: {refusal}\n"

    def test_jobs_trace_of_unknown_job_exits_2(self, capsys, tmp_path):
        assert main(["jobs", "trace", "nosuch",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "unknown job" in capsys.readouterr().err
