"""Differential run analysis: ``repro.telemetry.diff`` and ``hidisc diff``.

Covers the structural walker (paths, ignored noise keys, length
mismatches), the commit-stream bisection helper (the acceptance
criterion: a perturbed run's **first divergent gid** is pinpointed), and
the CLI end-to-end contract — two identical-config lifecycle runs diff
clean (exit 0), a perturbed payload does not (exit 1).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main
from repro.telemetry import (
    diff_payloads,
    first_divergent_commit,
    load_payload,
    render_diff,
)
from repro.telemetry.diff import IGNORED_KEYS, walk_diff


def _rows(n, *, gid0=0):
    return [{"gid": gid0 + i, "commit": 10 + 3 * i, "pc": i % 4,
             "asm": f"op{i % 4}"} for i in range(n)]


class TestWalkDiff:
    def test_identical_nested_payloads(self):
        a = {"stats": {"cycles": 100, "stacks": {"CP": [1, 2]}}}
        divergences, leaves = walk_diff(a, json.loads(json.dumps(a)))
        assert divergences == []
        assert leaves == 3

    def test_scalar_divergence_reports_path(self):
        a = {"stats": {"cycles": 100}}
        b = {"stats": {"cycles": 105}}
        divergences, _ = walk_diff(a, b)
        assert divergences == [{"path": "stats/cycles", "a": 100, "b": 105}]

    def test_noise_keys_ignored(self):
        a = {"cycles": 7, "elapsed_seconds": 1.2, "date": "2026-08-01",
             "python": "3.11.1", "path": "/tmp/a", "out": "a.json",
             "prepare_seconds": 0.3}
        b = {"cycles": 7, "elapsed_seconds": 9.9, "date": "2026-08-06",
             "python": "3.12.0", "path": "/tmp/b", "out": "b.json",
             "prepare_seconds": 4.5}
        assert set(a) - {"cycles"} <= IGNORED_KEYS
        divergences, leaves = walk_diff(a, b)
        assert divergences == [] and leaves == 1

    def test_missing_key_is_divergence(self):
        divergences, _ = walk_diff({"x": 1, "y": 2}, {"x": 1})
        assert divergences == [{"path": "y", "a": 2, "b": None}]

    def test_list_length_mismatch(self):
        divergences, _ = walk_diff({"r": [1, 2, 3]}, {"r": [1, 2]})
        assert {"path": "r/length", "a": 3, "b": 2} in divergences

    def test_divergence_list_is_capped_but_counting_continues(self):
        a = {str(i): 0 for i in range(40)}
        b = {str(i): 1 for i in range(40)}
        divergences, leaves = walk_diff(a, b, limit=5)
        assert len(divergences) == 5 and leaves == 40

    def test_int_float_equality_not_reported(self):
        divergences, _ = walk_diff({"v": 2}, {"v": 2.0})
        assert divergences == []


class TestFirstDivergentCommit:
    def test_identical_streams(self):
        assert first_divergent_commit(_rows(8), _rows(8)) is None

    def test_perturbed_commit_cycle_pinpointed(self):
        a, b = _rows(8), _rows(8)
        b[5] = dict(b[5], commit=b[5]["commit"] + 3)
        first = first_divergent_commit(a, b)
        assert first["index"] == 5
        assert first["a"]["gid"] == first["b"]["gid"] == 5
        assert first["b"]["commit"] == first["a"]["commit"] + 3

    def test_perturbed_gid_pinpointed(self):
        a, b = _rows(8), _rows(8)
        b[3] = dict(b[3], gid=99)
        first = first_divergent_commit(a, b)
        assert first["index"] == 3
        assert first["a"]["gid"] == 3 and first["b"]["gid"] == 99

    def test_length_mismatch_names_first_extra_commit(self):
        a, b = _rows(8), _rows(6)
        first = first_divergent_commit(a, b)
        assert first["index"] == 6
        assert first["length_a"] == 8 and first["length_b"] == 6
        assert first["a"]["gid"] == 6 and "b" not in first


class TestDiffPayloads:
    def test_identical_report(self):
        payload = {"lifecycle": {"records": _rows(6)}, "stats": {"c": 1}}
        report = diff_payloads(payload, json.loads(json.dumps(payload)))
        assert report["identical"]
        assert report["divergences"] == []
        assert report["first_divergent_commit"] is None
        assert "payloads identical" in render_diff(report)

    def test_perturbed_lifecycle_payload(self):
        a = {"lifecycle": {"records": _rows(6)}}
        b = json.loads(json.dumps(a))
        b["lifecycle"]["records"][4]["commit"] += 2
        report = diff_payloads(a, b)
        assert not report["identical"]
        first = report["first_divergent_commit"]
        assert first["index"] == 4 and first["a"]["gid"] == 4
        text = render_diff(report, "good.json", "bad.json")
        assert "first divergent committed instruction" in text
        assert "gid=4" in text and "bad.json" in text

    def test_raw_jsonl_row_lists_are_bisected(self):
        a, b = _rows(5), _rows(5)
        b[2] = dict(b[2], commit=0)
        report = diff_payloads(a, b)
        assert report["first_divergent_commit"]["index"] == 2

    def test_payload_without_lifecycle_records(self):
        report = diff_payloads({"stats": {"cycles": 5}},
                               {"stats": {"cycles": 6}})
        assert report["first_divergent_commit"] is None
        assert not report["identical"]


class TestLoadPayload:
    def test_json_document(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"stats": {"cycles": 9}}')
        assert load_payload(path) == {"stats": {"cycles": 9}}

    def test_jsonl_stream(self, tmp_path):
        path = tmp_path / "life.jsonl"
        rows = _rows(3)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert load_payload(path) == rows


class TestCliDiff:
    @pytest.fixture(scope="class")
    def payloads(self, tmp_path_factory):
        """Two identical-config quick lifecycle runs, as --json payloads."""
        tmp = tmp_path_factory.mktemp("diff")
        paths = []
        for name in ("a", "b"):
            json_path = tmp / f"{name}.json"
            assert main(["lifecycle", "--quick", "--no-progress",
                         "--bench", "field", "--model", "hidisc",
                         "--out", str(tmp / f"{name}.kanata"),
                         "--json", str(json_path)]) == 0
            paths.append(json_path)
        return paths

    def test_identical_runs_diff_clean(self, payloads, capsys):
        a, b = payloads
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        assert "payloads identical" in capsys.readouterr().out

    def test_perturbed_run_fails_with_first_gid(self, payloads, tmp_path,
                                                capsys):
        a, b = payloads
        doc = json.loads(b.read_text())
        victim = doc["lifecycle"]["records"][40]
        victim["commit"] += 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        json_path = tmp_path / "report.json"
        assert main(["diff", str(a), str(bad),
                     "--json", str(json_path)]) == 1
        out = capsys.readouterr().out
        assert "first divergent committed instruction" in out
        assert f"gid={victim['gid']}" in out
        report = json.loads(json_path.read_text())["diff"]
        assert report["first_divergent_commit"]["index"] == 40
        assert report["first_divergent_commit"]["b"]["gid"] == victim["gid"]

    def test_diff_requires_two_paths(self):
        with pytest.raises(SystemExit):
            main(["diff", "only_one.json"])

    def test_konata_log_parses_line_by_line(self, payloads):
        """The fixture's Konata log: cycles only move forward, every stage
        an ``S`` opens an ``E`` closes, and the run retires >1000
        instructions."""
        lines = payloads[0].with_suffix(".kanata").read_text().splitlines()
        assert lines[0] == "Kanata\t0004"
        stages, retired, cycle = {}, 0, 0
        for line in lines[1:]:
            kind, *fields = line.split("\t")
            if kind == "C=":
                assert int(fields[0]) >= cycle, line
                cycle = int(fields[0])
            elif kind == "C":
                assert int(fields[0]) > 0, line
                cycle += int(fields[0])
            elif kind == "S":
                stages[(fields[0], fields[2])] = cycle
            elif kind == "E":
                assert stages.pop((fields[0], fields[2])) <= cycle, line
            elif kind == "R":
                retired += 1
            else:
                assert kind in ("I", "L"), line
        assert not stages, "unclosed pipeline stages"
        assert retired > 1000, f"only {retired} instructions retired"
