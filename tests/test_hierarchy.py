"""Tests for the two-level hierarchy: latencies, MSHR merging, prefetch,
functional warming."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MachineConfig
from repro.sim.hierarchy import MemoryHierarchy


def make_hierarchy(l1_latency=1, l2_latency=12, memory=120):
    return MemoryHierarchy(
        CacheConfig(sets=4, block_bytes=32, ways=2, latency=l1_latency, name="L1"),
        CacheConfig(sets=16, block_bytes=64, ways=2, latency=l2_latency, name="L2"),
        memory,
    )


class TestLatencies:
    def test_cold_miss_full_latency(self):
        h = make_hierarchy()
        assert h.access(0x1000, False, now=0) == 1 + 12 + 120

    def test_l1_hit(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0)
        assert h.access(0x1008, False, now=200) == 1

    def test_l2_hit_after_l1_eviction(self):
        h = make_hierarchy()
        h.access(0x0000, False, now=0)
        # Evict the L1 line (sets=4, ways=2: three conflicting blocks).
        h.access(0x0080, False, now=200)
        h.access(0x0100, False, now=400)
        latency = h.access(0x0000, False, now=600)
        assert latency == 1 + 12  # L2 still holds it

    def test_from_config(self):
        h = MemoryHierarchy.from_config(MachineConfig())
        assert h.memory_latency == 120
        assert h.l1.config.sets == 256


class TestMshrMerging:
    def test_second_access_merges(self):
        h = make_hierarchy()
        first = h.access(0x1000, False, now=0)
        assert first == 133
        second = h.access(0x1008, False, now=10)
        assert second == 133 - 10
        assert h.stats.merged_misses == 1

    def test_merge_after_fill_is_plain_hit(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0)
        assert h.access(0x1008, False, now=140) == 1
        assert h.stats.merged_misses == 0

    def test_prefetch_then_demand_overlap_counted(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0, is_prefetch=True)
        latency = h.access(0x1000, False, now=50)
        assert latency == 133 - 50
        assert h.stats.late_prefetch_overlaps == 1

    def test_timely_prefetch_gives_hit(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0, is_prefetch=True)
        assert h.access(0x1000, False, now=500) == 1
        assert h.l1.stats.useful_prefetch_hits == 1


class TestStats:
    def test_demand_classification(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0)
        h.access(0x2000, True, now=0)
        h.access(0x3000, False, now=0, is_prefetch=True)
        assert h.stats.demand_loads == 1
        assert h.stats.demand_stores == 1
        assert h.stats.prefetches == 1

    def test_prefetch_does_not_pollute_demand_stats(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0, is_prefetch=True)
        assert h.l1.stats.demand_accesses == 0
        assert h.l1.stats.demand_miss_rate == 0.0

    def test_reset_stats_keeps_contents(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0)
        h.reset_stats()
        assert h.stats.demand_loads == 0
        assert h.l1.stats.demand_accesses == 0
        # The line is still cached (warmup semantics).
        assert h.access(0x1000, False, now=1000) == 1

    def test_miss_rate(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0)
        h.access(0x1000, False, now=200)
        assert h.l1.stats.demand_miss_rate == pytest.approx(0.5)


class TestLatencySweep:
    def test_figure10_configs_scale(self):
        config = MachineConfig()
        for l2, mem in ((4, 40), (16, 160)):
            point = config.with_latency(l2, mem)
            h = MemoryHierarchy.from_config(point)
            assert h.access(0x1000, False, now=0) == 1 + l2 + mem


def _state(cache):
    """Per-set (tag, flag bits) pairs in LRU order."""
    return [list(lines.items()) for lines in cache._sets]


def _counters(h):
    return [dataclasses.astuple(stats)
            for stats in (h.stats, h.l1.stats, h.l2.stats)]


class TestWarming:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                    max_size=200))
    def test_warm_many_matches_spaced_demand_accesses(self, events):
        """Warming leaves the tags, LRU order and dirty bits that demand
        accesses spaced past the miss latency leave, and counts nothing."""
        events = [(block * 32, is_write) for block, is_write in events]
        warmed, timed = make_hierarchy(), make_hierarchy()
        warmed.warm_many(events)
        for i, (address, is_write) in enumerate(events):
            timed.access(address, is_write, now=i * 1000)
        assert _state(warmed.l1) == _state(timed.l1)
        assert _state(warmed.l2) == _state(timed.l2)
        assert _counters(warmed) == _counters(make_hierarchy())

    def test_warming_keeps_counts_made_before_it(self):
        h = make_hierarchy()
        h.access(0x1000, False, now=0)
        h.warm_many([(0x2000, True), (0x1000, False)])
        assert h.l1.stats.demand_accesses == 1
        assert h.l1.stats.demand_misses == 1
        assert h.l1.probe(0x2000) and h.l2.probe(0x2000)
