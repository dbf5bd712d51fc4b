"""Unit tests for repro.utils fixed-width arithmetic and formatting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import (
    align_up,
    format_table,
    ilog2,
    is_power_of_two,
    sign_extend,
    to_signed64,
    to_unsigned64,
)


class TestSigned64:
    def test_identity_in_range(self):
        assert to_signed64(42) == 42
        assert to_signed64(-42) == -42

    def test_wraps_positive_overflow(self):
        assert to_signed64(2**63) == -(2**63)
        assert to_signed64(2**64) == 0
        assert to_signed64(2**64 + 5) == 5

    def test_wraps_negative_overflow(self):
        assert to_signed64(-(2**63) - 1) == 2**63 - 1

    def test_max_min(self):
        assert to_signed64(2**63 - 1) == 2**63 - 1
        assert to_signed64(-(2**63)) == -(2**63)

    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_canonical_range(self, value):
        wrapped = to_signed64(value)
        assert -(2**63) <= wrapped < 2**63
        assert (wrapped - value) % (2**64) == 0


class TestUnsigned64:
    def test_positive(self):
        assert to_unsigned64(5) == 5

    def test_negative(self):
        assert to_unsigned64(-1) == 2**64 - 1

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_roundtrip(self, value):
        assert to_signed64(to_unsigned64(value)) == value


class TestSignExtend:
    def test_positive_stays(self):
        assert sign_extend(0x7F, 8) == 127

    def test_negative_extends(self):
        assert sign_extend(0xFF, 8) == -1
        assert sign_extend(0x80, 8) == -128

    def test_32bit(self):
        assert sign_extend(0xFFFFFFFF, 32) == -1


class TestAlignment:
    def test_align_up(self):
        assert align_up(17, 8) == 24
        assert align_up(16, 8) == 16

    def test_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert not is_power_of_two(-4)

    def test_ilog2(self):
        assert ilog2(1) == 0
        assert ilog2(256) == 8
        with pytest.raises(ValueError):
            ilog2(3)


class TestFormatTable:
    def test_basic_shape(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 6  # border, header, border, 2 rows, border
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "333" in out
