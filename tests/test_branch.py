"""Tests for the branch predictors and BTB."""

import pytest

from repro.config import BranchConfig
from repro.errors import ConfigError
from repro.sim.branch import BranchPredictor, BranchTargetBuffer


def bimodal(**kw):
    return BranchPredictor(BranchConfig(**kw))


class TestBtb:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(16)
        assert btb.lookup(5) is None
        btb.update(5, 100)
        assert btb.lookup(5) == 100

    def test_aliasing_overwrites(self):
        btb = BranchTargetBuffer(16)
        btb.update(5, 100)
        btb.update(5 + 16, 200)
        assert btb.lookup(5) is None
        assert btb.lookup(5 + 16) == 200


class TestBimodal:
    def test_learns_taken_loop(self):
        p = bimodal()
        # First resolution: direction predicted taken (init weakly-taken)
        # but BTB cold -> mispredict; afterwards it locks on.
        assert p.resolve(10, True, 3, "cond") is True
        for _ in range(20):
            assert p.resolve(10, True, 3, "cond") is False
        assert p.stats.mispredicts == 1

    def test_learns_not_taken(self):
        p = bimodal()
        results = [p.resolve(10, False, 3, "cond") for _ in range(6)]
        # Weakly-taken start: the first resolution mispredicts, after which
        # the 2-bit counter sits at "weakly not-taken" and stays correct.
        assert results[0]
        assert not any(results[1:])

    def test_loop_exit_mispredicts_once_per_loop(self):
        p = bimodal()
        mispredicts = 0
        for _ in range(5):          # 5 loop executions
            for i in range(9):      # 9 taken back-edges
                mispredicts += p.resolve(7, True, 2, "cond")
            mispredicts += p.resolve(7, False, 2, "cond")  # exit
        assert p.stats.mispredicts == mispredicts
        # After warmup: one mispredict per exit, none on back edges.
        assert 5 <= mispredicts <= 7

    def test_target_change_detected(self):
        p = bimodal()
        p.resolve(10, True, 3, "cond")
        p.resolve(10, True, 3, "cond")
        assert p.resolve(10, True, 99, "cond") is True  # new target

    def test_accuracy_property(self):
        p = bimodal()
        for i in range(100):
            p.resolve(i % 4, True, 1, "cond")
        assert 0.9 <= p.stats.accuracy <= 1.0


class TestKinds:
    def test_direct_never_mispredicts(self):
        p = bimodal()
        for _ in range(3):
            assert p.resolve(10, True, 55, "direct") is False
        assert p.stats.lookups == 0

    def test_indirect_uses_btb(self):
        p = bimodal()
        assert p.resolve(10, True, 55, "indirect") is True   # cold BTB
        assert p.resolve(10, True, 55, "indirect") is False  # learned
        assert p.resolve(10, True, 77, "indirect") is True   # target moved


class TestConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            BranchConfig(table_size=1000)
