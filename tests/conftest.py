"""Shared fixtures: configurations and small reference programs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.asm.builder import ProgramBuilder
from repro.config import MachineConfig


@pytest.fixture
def config() -> MachineConfig:
    """Table-1 default machine configuration."""
    return MachineConfig()


@pytest.fixture(scope="session")
def quick_suite():
    """One shared, uncached quick-suite run (the expensive fixture: the
    experiment shape tests and the kill-and-resume test both read it)."""
    from repro.experiments import run_suite

    return run_suite(MachineConfig(), quick=True)


@pytest.fixture(autouse=True)
def _isolated_run_cache(tmp_path_factory, monkeypatch):
    """Point the persistent run cache at a per-test directory so tests
    never read or write ``~/.cache/hidisc``."""
    monkeypatch.setenv(
        "HIDISC_CACHE_DIR", str(tmp_path_factory.mktemp("hidisc-cache"))
    )


def read_perfetto_trace(path) -> tuple[list[dict], dict]:
    """Parse a Chrome/Perfetto trace file and return its events plus the
    lane names by pid.

    Asserts the file is one JSON document *and* one event per line inside
    the ``traceEvents`` array, and that every event's pid is a named lane.
    """
    text = Path(path).read_text()
    events = json.loads(text)["traceEvents"]
    lines = text.splitlines()
    assert lines[0] == '{"traceEvents": [' and lines[-1] == "]}"
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == events
    lanes = {e["pid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert events and {e["pid"] for e in events} <= set(lanes), lanes
    return events, lanes


def referee(program, decoupled):
    """Run *program* sequentially and *decoupled* on split CP/AP register
    files, then referee the pair as ``prepare`` does
    (:func:`repro.resilience.check_equivalence` raises on any mismatch).
    Returns the two finished simulators."""
    from repro.resilience import check_equivalence
    from repro.sim.functional import (
        DecoupledFunctionalSimulator,
        FunctionalSimulator,
    )
    from repro.sim.trace import Trace

    seq = FunctionalSimulator(program)
    dec = DecoupledFunctionalSimulator(decoupled)
    trace, dtrace = Trace(), Trace()
    seq.run(trace=trace)
    dec.run(trace=dtrace)
    check_equivalence(seq, trace, dec, dtrace)
    return seq, dec


def build_counting_loop(iterations: int = 10) -> "Program":
    """sum = 0 + 1 + ... + (iterations-1), stored to `out`."""
    b = ProgramBuilder("counting")
    b.data_i64("out", [0])
    b.li("t0", 0)            # i
    b.li("t1", iterations)
    b.li("t2", 0)            # sum
    b.label("loop")
    b.add("t2", "t2", "t0")
    b.addi("t0", "t0", 1)
    b.blt("t0", "t1", "loop")
    b.la("a0", "out")
    b.sd("t2", 0, "a0")
    b.halt()
    return b.build()


def build_store_loop(iterations: int = 8) -> "Program":
    """arr[i] = i * 3 for each i — exercises stores + SDQ separation."""
    b = ProgramBuilder("stores")
    b.data_space("arr", iterations * 8)
    b.la("t0", "arr")
    b.li("t1", iterations)
    b.li("t2", 0)
    b.li("t3", 3)
    b.label("loop")
    b.mul("t4", "t2", "t3")
    b.sd("t4", 0, "t0")
    b.addi("t0", "t0", 8)
    b.addi("t2", "t2", 1)
    b.blt("t2", "t1", "loop")
    b.halt()
    return b.build()


def build_load_compute_store(n: int = 8) -> "Program":
    """out[i] = in[i] * in[i] + 1 — loads crossing to the CS and back."""
    b = ProgramBuilder("lcs")
    b.data_i64("in", list(range(1, n + 1)))
    b.data_space("outv", n * 8)
    b.la("t0", "in")
    b.la("t1", "outv")
    b.li("t2", n)
    b.li("t3", 0)
    b.label("loop")
    b.ld("t4", 0, "t0")
    b.mul("t5", "t4", "t4")
    b.addi("t5", "t5", 1)
    b.sd("t5", 0, "t1")
    b.addi("t0", "t0", 8)
    b.addi("t1", "t1", 8)
    b.addi("t3", "t3", 1)
    b.blt("t3", "t2", "loop")
    b.halt()
    return b.build()


def build_fp_kernel(n: int = 6) -> "Program":
    """out[i] = a[i] * b[i] + 0.5 — FP loads, CS FP pipeline, FP store."""
    b = ProgramBuilder("fpk")
    b.data_f64("a", [0.5 * i for i in range(n)])
    b.data_f64("bv", [1.5 * i + 1.0 for i in range(n)])
    b.data_f64("half", [0.5])
    b.data_space("outv", n * 8)
    b.la("t0", "a")
    b.la("t1", "bv")
    b.la("t2", "outv")
    b.la("t9", "half")
    b.fld("f10", 0, "t9")
    b.li("t3", n)
    b.li("t4", 0)
    b.label("loop")
    b.fld("f0", 0, "t0")
    b.fld("f1", 0, "t1")
    b.fmul("f2", "f0", "f1")
    b.fadd("f2", "f2", "f10")
    b.fsd("f2", 0, "t2")
    b.addi("t0", "t0", 8)
    b.addi("t1", "t1", 8)
    b.addi("t2", "t2", 8)
    b.addi("t4", "t4", 1)
    b.blt("t4", "t3", "loop")
    b.halt()
    return b.build()


@pytest.fixture
def counting_loop():
    return build_counting_loop()


@pytest.fixture
def store_loop():
    return build_store_loop()


@pytest.fixture
def load_compute_store():
    return build_load_compute_store()


@pytest.fixture
def fp_kernel():
    return build_fp_kernel()
