"""Every ReproError subclass is reachable through a public entry point and
carries an actionable message.

Each test drives the real API (no hand-constructed exceptions except the
hierarchy checks) and asserts on message *content* — an error that names
neither the offending object nor the fix is a regression.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.asm import ProgramBuilder, assemble
from repro.config import MachineConfig
from repro.errors import (
    AssemblyError,
    ConfigError,
    CycleLimitError,
    DeadlockError,
    MemoryFault,
    QueueProtocolError,
    ReproError,
    SimulationError,
    SlicingError,
    ValidationError,
    VerificationError,
    WorkloadError,
)
from repro.experiments import prepare
from repro.experiments.runner import build_machine
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSite,
    check_equivalence,
    oracle,
    verified_run,
)
from repro.sim import (
    ArchQueue,
    DecoupledFunctionalSimulator,
    FunctionalSimulator,
    MainMemory,
    Trace,
)
from repro.slicer import extract_cmas, separate, validate_decoupled_static
from repro.workloads import FieldWorkload
from tests.conftest import build_counting_loop


@pytest.fixture(scope="module")
def field_cw():
    return prepare(FieldWorkload(n=500), MachineConfig())


def test_hierarchy_every_subclass_is_a_repro_error():
    for cls in (AssemblyError, ConfigError, CycleLimitError, DeadlockError,
                MemoryFault, QueueProtocolError,
                SimulationError, SlicingError, ValidationError,
                VerificationError, WorkloadError):
        assert issubclass(cls, ReproError)
    # The simulation family is catchable as one group.
    for cls in (CycleLimitError, DeadlockError, VerificationError,
                MemoryFault, QueueProtocolError):
        assert issubclass(cls, SimulationError)
    assert issubclass(ValidationError, SlicingError)


def test_assembly_error_duplicate_label():
    b = ProgramBuilder("dup")
    b.label("loop")
    with pytest.raises(AssemblyError, match="duplicate label 'loop'"):
        b.label("loop")


def test_assembly_error_carries_source_line():
    with pytest.raises(AssemblyError) as exc_info:
        assemble("addi r1, r0, 1\n???")
    assert exc_info.value.line == 2
    assert "line 2" in str(exc_info.value)


def test_simulation_error_names_unknown_model(field_cw, config):
    with pytest.raises(SimulationError, match="unknown model 'warp'"):
        build_machine(field_cw, config, "warp")


def test_cycle_limit_error_names_benchmark_and_both_knobs(field_cw, config):
    machine = build_machine(field_cw, replace(config, max_cycles=10),
                            "hidisc")
    with pytest.raises(CycleLimitError) as exc_info:
        machine.run()
    err = exc_info.value
    assert err.benchmark == "field"
    assert err.mode == "hidisc"
    assert err.max_cycles == 10
    message = str(err)
    # The message must name both ways to raise the budget.
    assert "MachineConfig.max_cycles" in message
    assert "--max-cycles" in message


def test_deadlock_error_carries_forensic_dump(field_cw, config):
    plan = FaultPlan(seed=0, sites=(FaultSite("drop_transfer", at=0),))
    machine = build_machine(field_cw, config, "hidisc",
                            faults=FaultInjector(plan))
    with pytest.raises(DeadlockError) as exc_info:
        machine.run()
    err = exc_info.value
    assert err.dump["benchmark"] == "field"
    assert err.dump["reason"]
    assert "deadlocked at cycle" in str(err)


def test_verification_error_lists_mismatches(field_cw, config, monkeypatch):
    """A decoupled trace whose stores reorder must fail the functional
    referee with the diverging store named in the message; --verify
    raises the same type for a commit-stream violation."""
    comp = field_cw.compilation
    seq = FunctionalSimulator(comp.original)
    dec = DecoupledFunctionalSimulator(comp.decoupled)
    seq.run()
    dec.run()
    dtrace = Trace(list(field_cw.decoupled_trace.pc),
                   list(field_cw.decoupled_trace.addr))
    addr = dtrace.addr
    text = comp.decoupled.text
    stores = [i for i, pc in enumerate(dtrace.pc) if text[pc].is_store]
    a = stores[0]
    b = next(i for i in stores[1:] if addr[i] != addr[a])
    addr[a], addr[b] = addr[b], addr[a]
    with pytest.raises(VerificationError) as exc_info:
        check_equivalence(seq, field_cw.trace, dec, dtrace)
    err = exc_info.value
    assert err.mismatches
    assert any("store" in m for m in err.mismatches)
    assert "diverged from the sequential run" in str(err)

    monkeypatch.setattr(oracle, "check_commit_stream",
                        lambda machine: ["position 3 committed twice"])
    with pytest.raises(VerificationError) as exc_info:
        verified_run(field_cw, config, "superscalar")
    assert exc_info.value.mismatches == ["position 3 committed twice"]
    assert "diverged from the functional oracle" in str(exc_info.value)


def test_memory_fault_out_of_range_and_misaligned():
    memory = MainMemory(1024)
    with pytest.raises(MemoryFault, match="out of range"):
        memory.load(4096, 8)
    with pytest.raises(MemoryFault) as exc_info:
        memory.load(4, 8)
    assert "misaligned 8-byte access" in str(exc_info.value)
    assert exc_info.value.address == 4


def test_queue_protocol_error_names_the_queue():
    queue = ArchQueue("LDQ")
    with pytest.raises(QueueProtocolError, match="pop on empty queue LDQ"):
        queue.pop()


def test_slicing_error_rejects_non_load_miss_seed():
    sep = separate(build_counting_loop())
    with pytest.raises(SlicingError, match="pc 0 is not a load"):
        extract_cmas(sep, {0})


def test_validation_error_flags_unannotated_program():
    with pytest.raises(ValidationError, match="missing stream annotation"):
        validate_decoupled_static(build_counting_loop())


def test_config_error_names_the_field():
    with pytest.raises(ConfigError, match="max_cycles must be >= 1"):
        MachineConfig(max_cycles=0)
    with pytest.raises(ConfigError, match="watchdog_window must be >= 1"):
        MachineConfig(watchdog_window=-5)
    with pytest.raises(ConfigError, match="fetch_width"):
        MachineConfig(fetch_width=0)


def test_workload_error_reports_symbol_and_values():
    workload = FieldWorkload(n=64)
    state = FunctionalSimulator(workload.program).run()
    workload.verify(state)  # the clean run passes
    addr = workload.program.data_symbols["out"]
    state.memory.store(addr, 999_999, 8)
    with pytest.raises(WorkloadError) as exc_info:
        workload.verify(state)
    message = str(exc_info.value)
    assert "field" in message
    assert "out" in message  # names the mismatching output symbol
