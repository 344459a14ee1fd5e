"""MetricsRegistry: metric semantics, deterministic export, publishers."""

from __future__ import annotations

import dataclasses
import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
)
from repro.exec import BitmapCache, QueryExecutor
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


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
    """The registry reads an attached engine's own counts at export; the
    executor pushes its latency histograms."""

    def test_collector_mirrors_into_registry(self):
        engine = _tiny_engine()
        reg = MetricsRegistry()
        engine.use_metrics(reg)
        engine.query(GraphQuery([("a", "b"), ("b", "c")]))
        stats = engine.stats
        dump = reg.to_dict()
        assert dump["io.bitmap_columns_fetched"] == {
            "type": "counter",
            "value": stats.bitmap_columns_fetched,
        }
        assert dump["io.measure_values_fetched"]["value"] == (
            stats.measure_values_fetched
        )
        assert dump["io.bitmap_bytes_fetched"]["value"] == (
            stats.bitmap_bytes_fetched
        )

    def test_unpublished_engine_touches_no_registry(self):
        engine = _tiny_engine()
        attached = _tiny_engine()
        reg = MetricsRegistry()
        attached.use_metrics(reg)
        engine.query(GraphQuery([("a", "b")]))
        assert engine.stats.bitmap_columns_fetched > 0
        assert reg.to_dict()["io.bitmap_columns_fetched"]["value"] == 0
        assert MetricsRegistry().to_dict() == {}

    def test_cache_publishes_traffic_and_gauges(self):
        engine = _tiny_engine()
        reg = MetricsRegistry()
        cache = BitmapCache(4 << 20)
        engine.use_bitmap_cache(cache)
        engine.use_metrics(reg)
        query = GraphQuery([("a", "b"), ("b", "c")])
        engine.query(query)
        engine.query(query)
        dump = reg.to_dict()
        assert dump["cache.misses"]["value"] == cache.stats.misses
        assert dump["cache.hits"]["value"] == cache.stats.hits > 0
        assert dump["cache.entries"] == {"type": "gauge", "value": len(cache)}
        assert dump["cache.bytes_held"]["value"] == cache.current_bytes()

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
        # the executor attached the engine, so its counts are exported
        dump = reg.to_dict()
        assert dump["io.bitmap_columns_fetched"]["value"] > 0
        assert dump["cache.misses"]["value"] > 0

    def test_registry_off_by_default(self):
        engine = _tiny_engine()
        with QueryExecutor(engine, cache_mb=4) as ex:
            ex.run_one(GraphQuery([("a", "b")]))
        assert ex.registry is None

    def test_engine_reads_make_no_registry_call(self, monkeypatch):
        engine = _tiny_engine()
        engine.use_bitmap_cache(BitmapCache(4 << 20))
        engine.use_metrics(MetricsRegistry())
        calls = []
        for cls, name in [
            (MetricsRegistry, "counter"),
            (MetricsRegistry, "gauge"),
            (MetricsRegistry, "histogram"),
            (Counter, "inc"),
            (Gauge, "set"),
        ]:
            original = getattr(cls, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
        query = GraphQuery([("a", "b"), ("b", "c")])
        engine.query(query)
        engine.query(query)
        engine.aggregate(PathAggregationQuery(query, "sum"))
        assert calls == []

    def test_pulled_counts_survive_registry_reset(self):
        engine = _tiny_engine()
        cache = BitmapCache(4 << 20)
        engine.use_bitmap_cache(cache)
        reg = MetricsRegistry()
        engine.use_metrics(reg)
        engine.use_metrics(reg)  # attaching again changes nothing
        query = GraphQuery([("a", "b"), ("b", "c")])
        engine.query(query)
        reg.reset()
        engine.query(query)
        engine.aggregate(PathAggregationQuery(query, "sum"))
        dump = reg.to_dict()
        for field, value in dataclasses.asdict(engine.stats).items():
            assert dump[f"io.{field}"] == {"type": "counter", "value": value}, field
        stats = cache.stats
        assert stats.hits > 0
        assert dump["cache.hits"]["value"] == stats.hits
        assert dump["cache.misses"]["value"] == stats.misses
        assert dump["cache.evictions"]["value"] == stats.evictions
        assert dump["cache.invalidations"]["value"] == stats.invalidations
        assert dump["cache.entries"]["value"] == stats.entries
        assert dump["cache.bytes_held"]["value"] == stats.bytes_cached
        assert json.loads(reg.to_json()) == dump
        assert "cache.hits" in reg.render()

    def test_engines_sharing_a_registry_sum(self):
        first, second = _tiny_engine(), _tiny_engine()
        reg = MetricsRegistry()
        first.use_metrics(reg)
        second.use_metrics(reg)
        first.query(GraphQuery([("a", "b")]))
        second.query(GraphQuery([("a", "b"), ("b", "c")]))
        expected = (
            first.stats.bitmap_columns_fetched + second.stats.bitmap_columns_fetched
        )
        assert reg.to_dict()["io.bitmap_columns_fetched"]["value"] == expected
        second.reset_stats()
        assert reg.to_dict()["io.bitmap_columns_fetched"]["value"] == (
            first.stats.bitmap_columns_fetched
        )
