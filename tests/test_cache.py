"""Tests for the set-associative cache, including an LRU model check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.sim.cache import Cache


def make_cache(sets=4, block=32, ways=2):
    return Cache(CacheConfig(sets=sets, block_bytes=block, ways=ways,
                             latency=1, name="test"))


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        assert not c.access(0x100)
        assert c.access(0x100)

    def test_same_block_offsets_hit(self):
        c = make_cache(block=32)
        c.access(0x100)
        assert c.access(0x11F)
        assert not c.access(0x120)

    def test_block_address(self):
        c = make_cache(block=32)
        assert c.block_address(0x11F) == 0x100

    def test_probe_does_not_fill(self):
        c = make_cache()
        assert not c.probe(0x100)
        assert not c.access(0x100)
        assert c.probe(0x100)

    def test_invalidate_block(self):
        c = make_cache()
        c.access(0x100)
        assert c.invalidate_block(0x11F)
        assert not c.probe(0x100)
        assert not c.invalidate_block(0x100)
        assert c.occupancy() == 0
        assert c.stats.demand_accesses == 1  # no statistics charged


class TestLru:
    def test_eviction_order(self):
        c = make_cache(sets=1, block=32, ways=2)
        c.access(0x000)
        c.access(0x020)
        c.access(0x000)          # refresh 0x000 -> 0x020 is LRU
        c.access(0x040)          # evicts 0x020
        assert c.probe(0x000)
        assert not c.probe(0x020)
        assert c.probe(0x040)

    def test_way_capacity(self):
        c = make_cache(sets=1, ways=4, block=32)
        for i in range(4):
            c.access(i * 32)
        assert c.occupancy() == 4
        c.access(4 * 32)
        assert c.occupancy() == 4
        assert not c.probe(0)


class TestWriteback:
    def test_dirty_eviction_reports_writeback(self):
        c = make_cache(sets=1, ways=1, block=32)
        c.access(0x000, is_write=True)
        c.access(0x020)
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = make_cache(sets=1, ways=1, block=32)
        c.access(0x000)
        c.access(0x020)
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 0

    def test_write_hit_sets_dirty(self):
        c = make_cache(sets=1, ways=1, block=32)
        c.access(0x000)                     # clean fill
        c.access(0x008, is_write=True)      # dirty the same line
        c.access(0x020)
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 1


class TestStats:
    def test_demand_vs_prefetch_separated(self):
        c = make_cache()
        c.access(0x100, is_prefetch=True)
        c.access(0x100)
        assert c.stats.prefetch_accesses == 1
        assert c.stats.prefetch_misses == 1
        assert c.stats.demand_accesses == 1
        assert c.stats.demand_misses == 0

    def test_useful_prefetch_counted(self):
        c = make_cache()
        c.access(0x100, is_prefetch=True)
        c.access(0x100)
        assert c.stats.useful_prefetch_hits == 1
        c.access(0x100)
        assert c.stats.useful_prefetch_hits == 1  # only first demand touch

    def test_miss_rate(self):
        c = make_cache()
        c.access(0x100)
        c.access(0x100)
        c.access(0x200)
        assert c.stats.demand_miss_rate == pytest.approx(2 / 3)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_lru_matches_reference_model(block_ids):
    """Property: the cache's hit/miss sequence matches a textbook LRU model."""
    sets, ways, block = 4, 2, 32
    c = make_cache(sets=sets, block=block, ways=ways)
    model: dict[int, list[int]] = {s: [] for s in range(sets)}
    for bid in block_ids:
        address = bid * block
        index = bid % sets
        tag = bid // sets
        lru = model[index]
        expect_hit = tag in lru
        if expect_hit:
            lru.remove(tag)
        elif len(lru) >= ways:
            lru.pop()
        lru.insert(0, tag)
        assert c.access(address) == expect_hit


@given(st.lists(st.integers(0, 255), max_size=150))
def test_occupancy_never_exceeds_capacity(block_ids):
    c = make_cache(sets=4, ways=2)
    for bid in block_ids:
        c.access(bid * 32)
        assert c.occupancy() <= 8
    assert c.resident_blocks() <= {bid * 32 for bid in block_ids}
