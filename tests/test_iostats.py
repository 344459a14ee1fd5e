"""Tests for the cost-model accounting (IOStats)."""

from __future__ import annotations

import sys
import threading

from repro.columnstore import Bitmap, IOStats, IOStatsCollector
from repro.core import GraphAnalyticsEngine
from repro.exec import BitmapCache


class TestIOStats:
    def test_defaults_zero(self):
        stats = IOStats()
        assert stats.total_columns_fetched() == 0
        assert stats.structural_columns_fetched() == 0
        assert stats.measure_fetch_columns() == 0

    def test_total_sums_all_column_kinds(self):
        stats = IOStats(
            bitmap_columns_fetched=2,
            measure_columns_fetched=3,
            view_bitmaps_fetched=4,
            view_measure_columns_fetched=5,
        )
        assert stats.total_columns_fetched() == 14

    def test_structural_is_bitmaps_plus_view_bitmaps(self):
        stats = IOStats(bitmap_columns_fetched=2, view_bitmaps_fetched=4)
        assert stats.structural_columns_fetched() == 6

    def test_measure_side(self):
        stats = IOStats(measure_columns_fetched=3, view_measure_columns_fetched=5)
        assert stats.measure_fetch_columns() == 8

    def test_add_accumulates(self):
        a = IOStats(bitmap_columns_fetched=1, measure_values_fetched=10)
        b = IOStats(bitmap_columns_fetched=2, measure_values_fetched=5,
                    partitions_joined=3)
        a.add(b)
        assert a.bitmap_columns_fetched == 3
        assert a.measure_values_fetched == 15
        assert a.partitions_joined == 3

    def test_serving_counters_default_zero(self):
        stats = IOStats()
        assert stats.cache_hits == stats.cache_misses == 0
        assert stats.cache_evictions == 0
        assert stats.conjunctions_requested() == 0
        assert stats.cache_hit_rate() == 0.0

    def test_conjunctions_requested_is_hits_plus_misses(self):
        stats = IOStats(cache_hits=7, cache_misses=3)
        assert stats.conjunctions_requested() == 10
        assert stats.cache_hit_rate() == 0.7

    def test_add_accumulates_serving_counters(self):
        a = IOStats(cache_hits=1, cache_misses=2, cache_evictions=3)
        b = IOStats(cache_hits=10, cache_misses=20, cache_evictions=30)
        a.add(b)
        assert a.cache_hits == 11
        assert a.cache_misses == 22
        assert a.cache_evictions == 33


class TestCollector:
    def test_record_bitmap_fetch_kinds(self):
        collector = IOStatsCollector()
        collector.record_bitmap_fetches(1, 0, 8)
        collector.record_bitmap_fetches(2, 1, 24)
        assert collector.stats.bitmap_columns_fetched == 3
        assert collector.stats.view_bitmaps_fetched == 1
        assert collector.stats.bitmap_bytes_fetched == 32

    def test_record_measure_fetch_counts_values(self):
        collector = IOStatsCollector()
        collector.record_measure_fetch(7)
        collector.record_measure_fetch(3, is_view=True)
        assert collector.stats.measure_columns_fetched == 1
        assert collector.stats.view_measure_columns_fetched == 1
        assert collector.stats.measure_values_fetched == 10

    def test_partition_join_single_partition_free(self):
        collector = IOStatsCollector()
        collector.record_partition_join(1)
        assert collector.stats.partitions_joined == 0
        collector.record_partition_join(4)
        assert collector.stats.partitions_joined == 4

    def test_reset(self):
        collector = IOStatsCollector()
        collector.record_bitmap_fetches(1, 0, 8)
        collector.reset()
        assert collector.stats.total_columns_fetched() == 0

    def test_record_cache_traffic(self):
        """A lookup changes exactly one counter, the cache's own: the
        engine's collector counts no cache traffic."""
        engine = GraphAnalyticsEngine()
        cache = BitmapCache(budget_bytes=8)
        engine.use_bitmap_cache(cache)
        key = frozenset({("a", "b")})
        before = cache.stats
        assert cache.lookup(0, key) is None
        after = cache.stats
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)
        cache.put(0, key, Bitmap.ones(64))
        cache.put(0, frozenset({("c", "d")}), Bitmap.ones(64))
        assert cache.lookup(0, frozenset({("c", "d")})) is not None
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert engine.collector.stats == IOStats()
        io = engine.stats
        assert (io.cache_hits, io.cache_misses, io.cache_evictions) == (1, 1, 1)
        assert io.conjunctions_requested() == 2

    def test_reset_clears_serving_counters(self):
        engine = GraphAnalyticsEngine()
        cache = BitmapCache()
        engine.use_bitmap_cache(cache)
        key = frozenset({("a", "b")})
        cache.lookup(0, key)
        cache.put(0, key, Bitmap.ones(64))
        cache.lookup(0, key)
        engine.collector.record_bitmap_fetches(1, 0, 8)
        engine.reset_stats()
        stats = engine.stats
        assert stats == IOStats()
        assert cache.stats.requests() == 0

    def test_concurrent_increments_do_not_drop(self):
        cache = BitmapCache()
        hit, miss = frozenset({("a", "b")}), frozenset({("c", "d")})
        cache.put(0, hit, Bitmap.ones(64))

        def worker():
            for _ in range(250):
                cache.lookup(0, hit)
                cache.lookup(0, miss)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert cache.stats.hits == 2000
        assert cache.stats.misses == 2000
        assert cache.stats.requests() == 4000


class TestCacheAccountingIdentity:
    """hits + misses == conjunctions requested, under any access pattern;
    evictions always keep the byte budget honoured."""

    def test_identity_holds_through_cache_traffic(self):
        engine = GraphAnalyticsEngine()
        cache = BitmapCache(budget_bytes=24)
        engine.use_bitmap_cache(cache)
        requests = 0
        for i in range(40):
            key = frozenset({("e", str(i % 7))})
            if cache.lookup(i % 3, key) is None:
                cache.put(i % 3, key, Bitmap.ones(64))
            requests += 1
            stats = cache.stats
            assert stats.hits + stats.misses == requests
            assert engine.stats.conjunctions_requested() == requests
            assert cache.current_bytes() <= cache.budget_bytes
        stats, io = cache.stats, engine.stats
        assert stats.evictions > 0
        assert (io.cache_hits, io.cache_misses, io.cache_evictions) == (
            stats.hits,
            stats.misses,
            stats.evictions,
        )
