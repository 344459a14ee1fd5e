"""MetricsRegistry: metric semantics, deterministic export, publishers."""

from __future__ import annotations

import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphAnalyticsEngine, GraphQuery, GraphRecord
from repro.exec import BitmapCache, QueryExecutor
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_concurrent_increments_all_land(self):
        c = Counter("n")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestGauge:
    def test_moves_both_ways(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12
        assert g.to_dict() == {"type": "gauge", "value": 12.0}


class TestHistogram:
    def test_summary_fields(self):
        h = Histogram("h")
        for v in [1, 2, 3, 4, 5]:
            h.observe(v)
        payload = h.to_dict()
        assert payload["count"] == 5
        assert payload["sum"] == 15
        assert payload["mean"] == 3
        assert payload["min"] == 1 and payload["max"] == 5
        assert payload["p50"] == 3
        assert payload["p99"] == 5

    def test_empty(self):
        assert Histogram("h").to_dict() == {"type": "histogram", "count": 0}
        assert math.isnan(Histogram("h").percentile(50))

    def test_percentile_bounds(self):
        h = Histogram("h")
        h.observe(1)
        with pytest.raises(ValueError):
            h.percentile(101)
        assert h.percentile(0) == 1

    def test_count_stays_exact_past_sample_cap(self):
        h = Histogram("h", max_samples=8)
        for v in range(100):
            h.observe(v)
        assert h.count == 100
        assert h.sum == sum(range(100))
        assert h.to_dict()["max"] == 99  # min/max exact, not window-bound
        assert h.to_dict()["min"] == 0

    def test_invalid_max_samples(self):
        with pytest.raises(ValueError):
            Histogram("h", max_samples=0)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_percentiles_are_order_statistics(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        assert h.percentile(0) == ordered[0]
        assert h.percentile(100) == ordered[-1]
        assert h.percentile(50) in ordered


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.get("a") is not None
        assert reg.get("missing") is None

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_export_is_sorted_and_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc(1)
        reg.gauge("a.first").set(2)
        reg.histogram("m.mid").observe(3)
        assert reg.names() == ["a.first", "m.mid", "z.last"]
        assert list(reg.to_dict()) == ["a.first", "m.mid", "z.last"]
        assert reg.to_json() == reg.to_json()
        parsed = json.loads(reg.to_json())
        assert parsed["z.last"]["value"] == 1

    def test_render_empty_and_populated(self):
        reg = MetricsRegistry()
        assert reg.render() == "(no metrics recorded)"
        reg.counter("a").inc(2)
        reg.histogram("h").observe(0.5)
        text = reg.render()
        assert "a" in text and "counter" in text
        assert "count=1" in text

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.names() == []

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


def _tiny_engine() -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine()
    engine.load_records(
        [
            GraphRecord("r1", {("a", "b"): 1.0, ("b", "c"): 2.0}),
            GraphRecord("r2", {("a", "b"): 3.0}),
        ]
    )
    return engine


class TestPublishers:
    """IOStatsCollector, BitmapCache, and QueryExecutor all publish."""

    def test_collector_mirrors_into_registry(self):
        engine = _tiny_engine()
        reg = MetricsRegistry()
        engine.use_metrics(reg)
        engine.query(GraphQuery([("a", "b"), ("b", "c")]))
        stats = engine.stats
        assert (
            reg.get("io.bitmap_columns_fetched").value
            == stats.bitmap_columns_fetched
        )
        assert (
            reg.get("io.measure_values_fetched").value
            == stats.measure_values_fetched
        )
        assert reg.get("io.bitmap_bytes_fetched").value == (
            stats.bitmap_bytes_fetched
        )

    def test_unpublished_engine_touches_no_registry(self):
        engine = _tiny_engine()
        engine.query(GraphQuery([("a", "b")]))
        assert engine.collector.registry is None

    def test_cache_publishes_traffic_and_gauges(self):
        engine = _tiny_engine()
        reg = MetricsRegistry()
        cache = BitmapCache(4 << 20, registry=reg)
        engine.use_bitmap_cache(cache)
        query = GraphQuery([("a", "b"), ("b", "c")])
        engine.query(query)
        engine.query(query)
        assert reg.get("cache.misses").value == cache.stats.misses
        assert reg.get("cache.hits").value == cache.stats.hits > 0
        assert reg.get("cache.entries").value == len(cache)
        assert reg.get("cache.bytes_held").value == cache.current_bytes()

    def test_executor_latency_histograms(self):
        engine = _tiny_engine()
        reg = MetricsRegistry()
        with QueryExecutor(engine, cache_mb=4, registry=reg) as ex:
            ex.run_batch(
                [GraphQuery([("a", "b")]), GraphQuery([("b", "c")])],
                fetch_measures=False,
            )
        assert reg.get("exec.queries_served").value == 2
        assert reg.get("exec.request_seconds").count == 2
        assert reg.get("exec.query_seconds").count == 2
        # engine-level publishers were installed transitively
        assert reg.get("io.bitmap_columns_fetched").value > 0
        assert reg.get("cache.misses").value > 0

    def test_registry_off_by_default(self):
        engine = _tiny_engine()
        with QueryExecutor(engine, cache_mb=4) as ex:
            ex.run_one(GraphQuery([("a", "b")]))
        assert ex.registry is None
