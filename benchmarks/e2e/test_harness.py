"""Self-tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import statistics

import pytest

import harness
import run
from harness import LAYER_MAP, ROOT, Tracer, quartiles, self_times, \
    tail_percentile, verdict, win_fraction


# ----------------------------------------------------------------------
# Statistics.

def test_median_and_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, mid, q3 = quartiles(values)
    assert (q1, mid, q3) == tuple(statistics.quantiles(values, n=4))
    assert mid == harness.median(values) == 4.0
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert harness.spread([2.5]) == 0.0
    assert harness.spread([1.0, 1.0, 1.0, 1.0]) == 0.0


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 50) == 50
    assert harness.percentile([3.0], 99) == 3.0


# ----------------------------------------------------------------------
# compare verdicts.

def test_win_fraction_counts_ties_for_neither_side():
    assert win_fraction([2.0], [1.0], "lower") == 1.0
    assert win_fraction([1.0], [1.0], "lower") == 0.0
    assert win_fraction([1.0], [1.0], "higher") == 0.0
    assert win_fraction([1.0, 3.0], [2.0], "lower") == 0.5


TIGHT = [10.0, 10.1, 9.9, 10.05, 9.95]


def test_verdict_unchanged_for_the_same_distribution():
    assert verdict(TIGHT, list(reversed(TIGHT)), "lower", 0.1) == "unchanged"


def test_verdict_better_when_every_run_wins_beyond_the_spread():
    faster = [x * 0.8 for x in TIGHT]
    assert verdict(TIGHT, faster, "lower", 0.1) == "better"
    assert verdict(TIGHT, faster, "higher", 0.1) == "worse"


def test_verdict_worse_only_beyond_the_bound():
    assert verdict(TIGHT, [x * 1.2 for x in TIGHT], "lower", 0.1) == "worse"
    # 5% slower with a 10% bound: within the bound, so not a regression.
    assert verdict(TIGHT, [x * 1.05 for x in TIGHT], "lower", 0.1) \
        == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert harness.spread(noisy) > 0.1
    assert verdict(noisy, [x * 1.02 for x in noisy], "lower", 0.1) \
        == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.1) == "better"


def _write_runs(directory, workload, walls):
    directory.mkdir()
    for i, wall in enumerate(walls):
        (directory / f"{i}.json").write_text(json.dumps(
            {"workload": workload, "trace": 0,
             "metrics": {"wall_s": wall, "setup_s": 1.0}}))


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    _write_runs(tmp_path / "a", "paper-full", TIGHT)
    _write_runs(tmp_path / "b", "paper-full", [x * 1.3 for x in TIGHT])
    assert run.compare(tmp_path / "a", tmp_path / "b") == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == [["paper-full", "wall_s"],
                                                  ["paper-full", "setup_s"]]
    assert rows[0].endswith("worse") and rows[1].endswith("unchanged")


# ----------------------------------------------------------------------
# Spans.

def test_self_time_subtracts_clipped_merged_children():
    tracer = Tracer()
    root = tracer.add("root", 0, 100, None)
    tracer.add("a", 10, 30, root)          # 10..40
    tracer.add("b", 30, 20, root)          # 30..50, overlaps a
    tracer.add("c", 90, 50, root)          # clipped at the root's end
    own = self_times(tracer.spans)
    assert own["root"] == pytest.approx((100 - 40 - 10) / 1e9)
    assert own["a"] == pytest.approx(30 / 1e9)


def test_tracer_nests_spans_and_writes_chrome_trace(tmp_path):
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", cell="x"):
            pass
    inner = next(s for s in tracer.spans if s["name"] == "inner")
    assert inner["parent"] == outer
    path = tmp_path / "t.json"
    harness.write_chrome_trace(tracer.spans, path, pid=1,
                               epoch_ns=tracer.epoch_ns)
    events = json.loads(path.read_text())["traceEvents"]
    assert sorted(e["name"] for e in events) == ["inner", "outer"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# ----------------------------------------------------------------------
# BENCHMARK.json and the committed references.

def test_benchmark_json_is_valid():
    assert harness.schema_problems(harness.load_benchmark()) == []


def test_schema_rejects_bad_names_and_unmapped_layers():
    spec = harness.load_benchmark()
    spec["workloads"] = spec["workloads"] + [
        {"name": f"w{i}", "why": "x"} for i in range(5)]
    spec["end_to_end"] = spec["end_to_end"] + [
        {"name": "bad name", "unit": "s", "better": "lower", "bound": 0.5}]
    spec["per_layer"] = spec["per_layer"][1:]
    problems = "\n".join(harness.schema_problems(spec))
    assert "workloads: 9 entries" in problems
    assert "bad name 'bad name'" in problems
    assert "bound outside" in problems
    assert "per_layer metrics differ" in problems


def test_every_layer_maps_to_an_end_to_end_metric_and_workload():
    spec = harness.load_benchmark()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, pairs in LAYER_MAP.items():
        assert pairs, name
        for metric, workload in pairs:
            assert metric in end_to_end and workload in harness.WORKLOADS


def test_paper_full_reference_matches_paper_scale_results():
    paper = ROOT / "results" / "paper_scale.json"
    if not paper.exists():
        pytest.skip("results/paper_scale.json is not in this checkout")
    from checks import REFERENCE

    reference = json.loads(REFERENCE.read_text())["paper-full"]
    cells = json.loads(paper.read_text())["suite"]["benchmarks"]
    compared = 0
    for name, entry in cells.items():
        for mode, cell in entry["models"].items():
            assert reference[f"{name}/{mode}"][0] == cell["cycles"]
            compared += 1
    assert compared == 28


# ----------------------------------------------------------------------
# Service smoke test: one job against a real `hidisc serve`.

def test_service_quick_one_job_smoke(tmp_path):
    from checks import payload_problems
    from service_workload import Server, _group_pids, run_job

    server = Server(tmp_path)
    try:
        assert server.start() > 0
        job = run_job(server.client, 700)
        assert server.peak_rss_mb() > 0
    finally:
        server.stop()
    assert job["ok"], job.get("error")
    assert job["state"] == "done" and job["failed_calls"] == 0
    assert payload_problems(job["payload"], 36) == []
    assert _group_pids(server.proc.pid) == []
