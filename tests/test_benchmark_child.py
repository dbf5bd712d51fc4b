"""The end-to-end benchmark's child still works against the package.

``benchmarks/e2e/child.py`` imports package names at module level (the
benchmark runs it once per measured iteration).  Its ``--help`` exits 0
only if every one of those imports resolves, so a rename or deletion in
the package that the benchmark depends on fails here, not in the
benchmark run.  Its traced pass replays ``prepare`` call by call through
the list-trace seam (``run(trace=[])``, list traces into the warm-up and
plan builders, ``CompiledWorkload`` converting them), so that replica
must still build the compilation ``prepare`` builds.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import MachineConfig
from repro.experiments.runner import prepare
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"


def test_child_imports_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "child.py"),
         "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "--workload" in done.stdout


@pytest.fixture
def child(monkeypatch):
    """``child.py`` imported in process; its sibling modules resolve from
    its own directory, and leave ``sys.modules`` afterwards."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(E2E))
    spec = importlib.util.spec_from_file_location("e2e_child",
                                                  E2E / "child.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    yield module
    for name in ("checks", "harness"):
        if name not in before:
            sys.modules.pop(name, None)


def test_traced_prepare_builds_what_prepare_builds(child):
    workload = get_workload("pointer", quick=True)
    counts = {"functional_instr": 0}
    traced = child.traced_prepare(workload, child.Tracer(), counts)
    built = prepare(workload, MachineConfig())
    assert counts["functional_instr"] == \
        len(built.trace) + len(built.decoupled_trace)
    assert traced.trace == built.trace
    assert traced.decoupled_trace == built.decoupled_trace
    assert traced.queue_plan == built.queue_plan
    assert traced.cmas_plan_original == built.cmas_plan_original
    assert traced.cmas_plan_decoupled == built.cmas_plan_decoupled
    assert (traced.warmup_pos_original, traced.warmup_pos_decoupled) == \
        (built.warmup_pos_original, built.warmup_pos_decoupled) != (0, 0)
    assert traced.fingerprint == built.fingerprint
