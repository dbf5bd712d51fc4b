"""Tests for the differential fuzzing subsystem (repro.fuzz)."""

from __future__ import annotations

import json

import pytest

from repro.config import MachineConfig
from repro.fuzz import (
    FAULTS,
    FuzzProgram,
    check_program,
    generate_program,
    injected_fault,
    load_repro,
    replay_repro,
    run_fuzz_campaign,
    save_repro,
    shrink_program,
)
from repro.experiments.runner import prepare
from repro.fuzz.generator import (
    ARRAY_LEN,
    CLEAN_REGS,
    TAINT_REGS,
    generate_program as _gen,
)
from repro.fuzz.harness import FuzzWorkload
from repro.isa import Op
from repro.isa.registers import parse_reg
from repro.sim.functional import FunctionalSimulator
from repro.slicer import compile_hidisc
from repro.workloads import check_ap_executable

SEEDS = list(range(5000, 5012))


def _runs_step(fp: FuzzProgram, runs) -> bool:
    """Does the sequential or compiled decoupled run of *fp* execute an
    instruction for which ``runs(instr)`` holds?"""
    cw = prepare(FuzzWorkload(fp.to_program()), MachineConfig())
    comp = cw.compilation
    return (any(runs(comp.original.text[pc]) for pc in set(cw.trace.pc))
            or any(runs(comp.decoupled.text[pc])
                   for pc in set(cw.decoupled_trace.pc)))


class TestGenerator:
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_programs_terminate_with_defined_semantics(self, seed):
        program = generate_program(seed).to_program()
        state = FunctionalSimulator(program).run(max_steps=1_000_000)
        assert state.halted

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_programs_stay_ap_executable(self, seed):
        """The taint partition must keep FP out of every backward slice
        that feeds control flow or addresses."""
        program = generate_program(seed).to_program()
        comp = compile_hidisc(program, MachineConfig())
        check_ap_executable(comp.decoupled)

    def test_deterministic_generation(self):
        a, b = generate_program(42), generate_program(42)
        assert a.to_json() == b.to_json()
        assert [str(i) for i in a.to_program().text] == \
               [str(i) for i in b.to_program().text]

    def test_seed_changes_program(self):
        assert generate_program(1).to_json() != generate_program(2).to_json()

    def test_json_roundtrip(self):
        fp = generate_program(7)
        again = FuzzProgram.from_json(fp.to_json())
        assert again.to_json() == fp.to_json()
        assert [str(i) for i in again.to_program().text] == \
               [str(i) for i in fp.to_program().text]

    def test_branch_and_index_registers_stay_clean(self):
        """Static IR audit: no branch operand or memory index may come
        from the FP-taintable pool."""
        taintable = set(TAINT_REGS)

        def audit(stmts):
            for s in stmts:
                if s["kind"] == "diamond":
                    assert s["rs1"] not in taintable
                    assert s["rs2"] not in taintable
                    audit(s["then"])
                    audit(s["else"])
                elif s["kind"] == "loop":
                    audit(s["body"])
                elif s["kind"] in ("load", "store"):
                    assert s["rs_idx"] not in taintable
                elif s["kind"] in ("fcmp", "ftoi"):
                    assert s["rd"] in taintable
                elif s["kind"] in ("alu_rr", "alu_ri", "div"):
                    # clean destinations never read taintable sources
                    if s["rd"] in set(CLEAN_REGS):
                        for key in ("rs1", "rs2"):
                            assert s.get(key) not in taintable

        for seed in SEEDS:
            audit(generate_program(seed).statements)

    def test_memory_accesses_stay_in_arrays(self):
        """Dynamic check: every data access of a generated program lands
        inside its declared data segment (the index mask at work)."""
        fp = generate_program(SEEDS[0], size=40)
        program = fp.to_program()
        trace = []
        FunctionalSimulator(program).run(trace=trace)
        lo = min(program.data_symbols.values())
        hi = lo + len(bytes(program.data)) + ARRAY_LEN * 8
        for dyn in trace:
            if dyn.addr >= 0:
                assert lo <= dyn.addr < hi


class TestHarness:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_clean_toolchain_reports_no_divergence(self, seed):
        assert check_program(generate_program(seed)) is None

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_injected_faults_are_detected(self, fault):
        """Every registered fault must be caught by stage 1 on at least
        one of a handful of seeds whose compiled program runs the
        perturbed step (the detection self-test)."""
        for seed in range(6000, 6040):
            fp = generate_program(seed)
            if not _runs_step(fp, FAULTS[fault].runs):
                continue
            with injected_fault(fault):
                found = check_program(fp)
            if found is not None:
                assert found.kind == "fast_vs_legacy", found.summary()
                return
        pytest.fail(f"fault {fault!r} never produced a divergence")

    def test_fault_restores_dispatch_entry(self):
        from repro.sim import functional

        before = functional._ALU_RR[Op.XOR]
        with injected_fault("xor-as-or"):
            assert functional._ALU_RR[Op.XOR] is not before
        assert functional._ALU_RR[Op.XOR] is before
        factory = functional._sdq_store
        with injected_fault("sdq-store-drops-data"):
            assert functional._sdq_store is not factory
        assert functional._sdq_store is factory

    def test_unknown_fault_rejected(self):
        with pytest.raises(KeyError):
            with injected_fault("no-such-fault"):
                pass  # pragma: no cover

    def test_divergence_carries_bisection(self):
        """A pure value fault must still be located to a first divergent
        commit via the max_steps bisection."""
        with injected_fault("xor-as-or"):
            for seed in range(6000, 6060):
                fp = generate_program(seed)
                found = check_program(fp)
                if found is not None and "registers differ" in found.detail:
                    assert found.first_divergent is not None
                    assert found.first_divergent["a"]["gid"] == \
                           found.first_divergent["b"]["gid"]
                    return
        pytest.fail("no value-divergence found to bisect")


def _find_failing(fault: str, seeds) -> FuzzProgram:
    for seed in seeds:
        fp = generate_program(seed)
        if check_program(fp) is not None:
            return fp
    raise AssertionError("no failing seed in range")  # pragma: no cover


class TestShrink:
    def test_shrinks_to_small_repro_with_same_kind(self):
        with injected_fault("add-off-by-one"):
            fp = _find_failing("add-off-by-one", range(7000, 7020))
            original = fp.statement_count()
            baseline = check_program(fp)
            small = shrink_program(fp, target_kind=baseline.kind)
            assert small.statement_count() < original
            after = check_program(small)
            assert after is not None and after.kind == baseline.kind

    def test_shrink_rejects_clean_program(self):
        with pytest.raises(ValueError):
            shrink_program(generate_program(SEEDS[0]))


class TestCorpusAndCampaign:
    def test_corpus_roundtrip_and_replay(self, tmp_path):
        with injected_fault("add-off-by-one"):
            fp = _find_failing("add-off-by-one", range(7000, 7020))
            found = check_program(fp)
            path = save_repro(tmp_path, fp, found,
                              original_statements=fp.statement_count())
            loaded, report = load_repro(path)
            assert loaded.to_json() == fp.to_json()
            assert report["kind"] == found.kind
            assert replay_repro(path) is not None     # fault still active
        assert replay_repro(path) is None             # healthy toolchain

    def test_clean_campaign_finds_nothing(self):
        report = run_fuzz_campaign(seed=5100, runs=6)
        assert report["divergences"] == []
        assert report["runs"] == 6

    def test_perturbed_campaign_finds_and_shrinks(self, tmp_path):
        report = run_fuzz_campaign(seed=5100, runs=6, shrink=True,
                                   corpus_dir=tmp_path,
                                   fault="add-off-by-one")
        assert report["divergences"], "fault must be detected"
        for entry in report["divergences"]:
            assert entry["statements"] <= entry["statements_original"]
        assert report["corpus"]
        saved = json.loads((tmp_path / report["corpus"][0].split("/")[-1]
                            ).read_text())
        assert saved["divergence"]["kind"]


class TestCli:
    def test_fuzz_command_clean(self, capsys):
        from repro.experiments.cli import main

        code = main(["fuzz", "--seed", "5200", "--runs", "4",
                     "--no-progress", "--no-cache"])
        assert code == 0
        assert "0 divergence(s)" in capsys.readouterr().out

    def test_fuzz_command_detects_injected_fault(self, tmp_path, capsys):
        from repro.experiments.cli import main

        corpus = tmp_path / "corpus"
        code = main(["fuzz", "--seed", "5200", "--runs", "4", "--shrink",
                     "--corpus", str(corpus), "--inject-fault",
                     "add-off-by-one", "--no-progress", "--no-cache"])
        assert code == 0  # self-test passes BECAUSE divergences were found
        assert "detection self-test PASSED" in capsys.readouterr().out
        assert list(corpus.glob("repro_*.json"))

    def test_fuzz_command_rejects_unknown_fault(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["fuzz", "--runs", "1", "--inject-fault", "bogus",
                  "--no-cache", "--no-progress"])
