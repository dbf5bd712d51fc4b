"""Tests for the sparse main memory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryFault
from repro.sim.memory import PAGE_SIZE, MainMemory


@pytest.fixture
def mem():
    return MainMemory(1 << 24)


class TestScalars:
    def test_load_default_zero(self, mem):
        assert mem.load(0x1000, 8) == 0

    def test_store_load_64(self, mem):
        mem.store(0x1000, 0xDEADBEEF, 8)
        assert mem.load(0x1000, 8) == 0xDEADBEEF

    def test_negative_value_roundtrip(self, mem):
        mem.store(0x1000, (-5) & ((1 << 64) - 1), 8)
        assert mem.load(0x1000, 8) == -5

    def test_byte_and_word(self, mem):
        mem.store(0x2000, 0xAB, 1)
        assert mem.load(0x2000, 1) == 0xAB
        mem.store(0x2004, 0x1234_5678, 4)
        assert mem.load(0x2004, 4) == 0x1234_5678

    def test_float_roundtrip(self, mem):
        mem.store_f64(0x3000, -2.75)
        assert mem.load_f64(0x3000) == -2.75

    def test_float_and_int_share_bits(self, mem):
        mem.store_f64(0x3000, 1.0)
        assert mem.load(0x3000, 8) == 0x3FF0000000000000


class TestFaults:
    def test_misaligned(self, mem):
        with pytest.raises(MemoryFault):
            mem.load(0x1001, 8)
        with pytest.raises(MemoryFault):
            mem.store(0x1002, 0, 4)

    def test_out_of_range(self, mem):
        with pytest.raises(MemoryFault):
            mem.load(1 << 24, 8)
        with pytest.raises(MemoryFault):
            mem.load(-8, 8)

    def test_byte_never_misaligned(self, mem):
        mem.store(0x1003, 7, 1)
        assert mem.load(0x1003, 1) == 7


class TestBulk:
    def test_write_read_across_pages(self, mem):
        payload = bytes(range(256)) * 300  # spans > one 64 KiB page
        base = PAGE_SIZE - 128
        mem.write_bytes(base, payload)
        assert mem.read_bytes(base, len(payload)) == payload
        assert mem.touched_pages() >= 2

    def test_bulk_out_of_range(self, mem):
        with pytest.raises(MemoryFault):
            mem.write_bytes((1 << 24) - 4, b"12345678")

    def test_sparse_untouched(self, mem):
        assert mem.touched_pages() == 0
        mem.load(0x10_0000, 8)
        assert mem.touched_pages() == 1


class TestBlocks:
    def test_block_roundtrip_across_pages(self, mem):
        values = [(i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1) - (1 << 63)
                  for i in range(20_000)]  # 160 KiB: spans three pages
        base = PAGE_SIZE - 4096
        mem.store_block(base, values, 8)
        assert mem.load_block(base, len(values), 8) == values
        assert mem.touched_pages() >= 3

    def test_block_matches_scalar_convention(self, mem):
        for width in (1, 4, 8):
            base = 0x4000
            raw = [0, 1, (1 << (width * 8)) - 1]
            mem.store_block(base, raw, width)
            expected = [mem.load(base + i * width, width)
                        for i in range(len(raw))]
            assert mem.load_block(base, len(raw), width) == expected

    def test_block_masks_like_store(self, mem):
        mem.store_block(0x5000, [-5], 8)
        assert mem.load(0x5000, 8) == -5
        mem.store_block(0x6000, [0x1FF], 1)
        assert mem.load(0x6000, 1) == 0xFF

    def test_block_interoperates_with_read_bytes(self, mem):
        mem.store_block(0x7000, [0x11223344], 4)
        assert mem.read_bytes(0x7000, 4) == bytes.fromhex("44332211")

    def test_block_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.load_block(0x1001, 4, 8)  # misaligned base
        with pytest.raises(MemoryFault):
            mem.load_block((1 << 24) - 8, 2, 8)  # runs off the end
        with pytest.raises(MemoryFault):
            mem.store_block((1 << 24) - 8, [1, 2], 8)
        with pytest.raises(MemoryFault):
            mem.load_block(0x1000, 4, 2)  # width the ISA doesn't have


class TestEquality:
    def test_equal_fresh(self):
        assert MainMemory(1 << 20).differences(MainMemory(1 << 20)) == []

    def test_zero_page_equals_untouched(self):
        a, b = MainMemory(1 << 20), MainMemory(1 << 20)
        a.store(0x100, 0, 8)  # touches a page but stays zero
        assert a.differences(b) == [] and b.differences(a) == []

    def test_difference_detected(self):
        a, b = MainMemory(1 << 20), MainMemory(1 << 20)
        a.store(0x100, 1, 8)
        assert a.differences(b) == [
            "memory differs at 0x100: expected byte 0x01, got 0x00"]
        for page in range(10):  # the first byte of each differing page
            b.store(page << 16 | 0x18, 2, 8)
        assert b.differences(a) == [
            f"memory differs at 0x{page << 16 | 0x18:x}: expected byte "
            f"0x02, got 0x00" for page in range(8)
        ] + ["... further memory mismatches suppressed"]

    def test_snapshot(self):
        a = MainMemory(1 << 20)
        a.store(0x100, 42, 8)
        snap = a.snapshot()
        assert len(snap) == 1
        a.store(0x100, 43, 8)
        (page,) = snap.values()
        assert page[0x100] == 42


@given(st.lists(
    st.tuples(st.integers(0, (1 << 16) - 8), st.integers(-(2**63), 2**63 - 1)),
    max_size=40,
))
def test_memory_behaves_like_dict(writes):
    """Property: memory == last-writer-wins dict at 8-byte granularity."""
    mem = MainMemory(1 << 20)
    model = {}
    for addr, value in writes:
        addr &= ~7
        mem.store(addr, value & ((1 << 64) - 1), 8)
        model[addr] = value
    for addr, value in model.items():
        assert mem.load(addr, 8) == value
