"""Tests for communication insertion and the decoupled program."""

import pytest

from repro.isa import Op, Stream
from repro.errors import VerificationError
from repro.slicer import (
    insert_communication,
    separate,
    validate_decoupled_static,
)
from repro.sim.functional import DecoupledFunctionalSimulator

from .conftest import (
    build_counting_loop,
    build_fp_kernel,
    build_load_compute_store,
    build_store_loop,
    referee,
)

ALL_BUILDERS = (build_counting_loop, build_store_loop,
                build_load_compute_store, build_fp_kernel)


class TestStructure:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_static_validation_passes(self, builder):
        dp = insert_communication(separate(builder()))
        validate_decoupled_static(dp.program)

    def test_sdq_store_marked(self):
        dp = insert_communication(separate(build_store_loop()))
        stores = [i for i in dp.program.text if i.is_store]
        assert stores and all(i.ann.sdq_data for i in stores)
        assert dp.sdq_stores == len(stores)

    def test_sdq_direct_when_producer_adjacent_block(self):
        # store data produced by `mul` in the same block -> "$SDQ" result,
        # no push.sdq instruction.
        dp = insert_communication(separate(build_store_loop()))
        assert dp.sdq_direct >= 1
        pushes = [i for i in dp.program.text if i.op is Op.PUSH_SDQ]
        producers = [i for i in dp.program.text if i.ann.to_sdq]
        assert len(pushes) + len(producers) == dp.sdq_stores

    def test_load_to_ldq_annotation(self):
        dp = insert_communication(separate(build_load_compute_store()))
        marked = [i for i in dp.program.text if i.ann.to_ldq]
        assert marked and all(i.is_load for i in marked)

    def test_operand_flags_on_cs(self):
        dp = insert_communication(separate(build_load_compute_store()))
        flagged = [i for i in dp.program.text
                   if i.ann.ldq_rs1 or i.ann.ldq_rs2]
        for i in flagged:
            assert i.ann.stream is Stream.CS
        assert dp.ldq_operands == sum(
            int(i.ann.ldq_rs1) + int(i.ann.ldq_rs2) for i in flagged
        )

    def test_branch_targets_remapped(self):
        program = build_store_loop()
        dp = insert_communication(separate(program))
        dp.program.validate()
        for instr in dp.program.text:
            if instr.is_branch:
                target = dp.program.text[instr.target]
                # the loop branch must land on the start of the group of
                # the original loop head (possibly an inserted push).
                assert 0 <= instr.target < len(dp.program.text)
                assert target is not None

    def test_maps_cover_every_pc(self):
        program = build_fp_kernel()
        dp = insert_communication(separate(program))
        n = len(program.text)
        assert len(dp.group_map) == n and len(dp.instr_map) == n
        assert dp.group_map[0] == 0
        for pc in range(n):
            assert dp.group_map[pc] <= dp.instr_map[pc]
        # instr_map points at a copy of the original instruction.
        for pc in range(n):
            assert dp.program.text[dp.instr_map[pc]].op is program.text[pc].op


class TestDynamicEquivalence:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_decoupled_matches_sequential(self, builder):
        program = builder()
        dp = insert_communication(separate(program))
        seq, dec = referee(program, dp.program)
        assert dec.queues.ldq.empty and dec.queues.sdq.empty
        # Extra dynamic instructions per original instruction.
        extra = dec.instructions_executed - seq.instructions_executed
        assert extra / seq.instructions_executed < 0.7

    def test_split_register_files_really_split(self):
        """The CP must receive values only through the queues."""
        program = build_load_compute_store()
        dp = insert_communication(separate(program))
        sim = DecoupledFunctionalSimulator(dp.program)
        sim.run()
        # The queue moved one value per load that crosses to the CS.
        assert sim.queues.ldq.stats.pops > 0
        assert sim.queues.sdq.stats.pops > 0
        assert sim.queues.ldq.empty and sim.queues.sdq.empty

    def test_detects_broken_annotation(self):
        """Flipping one stream annotation must break validation."""
        program = build_load_compute_store()
        dp = insert_communication(separate(program))
        victim = next(i for i in dp.program.text if i.ann.sdq_data)
        victim.ann.sdq_data = False
        with pytest.raises(VerificationError) as exc_info:
            referee(program, dp.program)
        mismatches = exc_info.value.mismatches
        assert any(m.startswith("SDQ not drained") for m in mismatches)
        assert any(m.startswith("memory differs at") for m in mismatches)
