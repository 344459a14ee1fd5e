"""MetricsRegistry: histograms, deterministic export, the counts each
source keeps, and the daemon's export pinned name by name."""

from __future__ import annotations

import dataclasses
import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import ViewMaintainer
from repro.core import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
)
from repro.exec import BitmapCache, QueryExecutor
from repro.obs import Histogram, MetricsRegistry
from repro.resilience import AdmissionController
from repro.serve import ServeClient, ServeHTTPError, start_in_thread
from repro.serve.tenants import TenantGate, TenantPolicy


class TestCounter:
    """A count kept by its owner loses no update under concurrency."""

    def test_concurrent_increments_all_land(self):
        """8 threads x 200 ``run_one`` on one executor: every served query
        is in ``exec.request_seconds`` and ``exec.queries_served``."""
        engine = _tiny_engine()
        reg = MetricsRegistry()
        query = GraphQuery([("a", "b")])
        with QueryExecutor(engine, registry=reg) as ex:

            def serve():
                for _ in range(200):
                    ex.run_one(query, fetch_measures=False)

            threads = [threading.Thread(target=serve) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        dump = reg.to_dict()
        assert dump["exec.request_seconds"]["count"] == 1600
        assert dump["exec.query_seconds"]["count"] == 1600
        assert dump["exec.queries_served"] == {"type": "counter", "value": 1600}


class TestHistogram:
    def test_summary_fields(self):
        h = Histogram()
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
        assert Histogram().to_dict() == {"type": "histogram", "count": 0}
        assert math.isnan(Histogram().percentile(50))

    def test_percentile_bounds(self):
        h = Histogram()
        h.observe(1)
        with pytest.raises(ValueError):
            h.percentile(101)
        assert h.percentile(0) == 1

    def test_count_stays_exact_past_sample_cap(self):
        h = Histogram(max_samples=8)
        for v in range(100):
            h.observe(v)
        assert h.count == 100
        assert h.sum == sum(range(100))
        assert h.to_dict()["max"] == 99  # min/max exact, not window-bound
        assert h.to_dict()["min"] == 0

    def test_invalid_max_samples(self):
        with pytest.raises(ValueError):
            Histogram(max_samples=0)

    def test_merge_adds_exactly(self):
        first, second = Histogram(max_samples=4), Histogram()
        for v in range(10):
            first.observe(v)
        second.observe(-1)
        second.observe(20)
        merged = first.merge(second)
        payload = merged.to_dict()
        assert (payload["count"], payload["sum"]) == (12, sum(range(10)) + 19)
        assert (payload["min"], payload["max"]) == (-1, 20)
        assert sorted(merged._samples) == [-1, 6, 7, 8, 9, 20]
        assert first.count == 10 and second.count == 2  # the parts unchanged
        assert Histogram().merge(Histogram()).to_dict() == {
            "type": "histogram", "count": 0,
        }

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_percentiles_are_order_statistics(self, values):
        h = Histogram()
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        assert h.percentile(0) == ordered[0]
        assert h.percentile(100) == ordered[-1]
        assert h.percentile(50) in ordered


class _Source:
    def __init__(self, **metrics):
        self._metrics = metrics

    def metrics(self):
        return self._metrics


def _histogram(*values):
    h = Histogram()
    for v in values:
        h.observe(v)
    return h


class TestRegistry:
    def test_export_is_sorted_and_deterministic(self):
        reg = MetricsRegistry()
        reg.attach(_Source(**{
            "z.last": ("counter", 1),
            "a.first": ("gauge", 2),
            "m.mid": ("histogram", _histogram(3)),
        }))
        assert list(reg.to_dict()) == ["a.first", "m.mid", "z.last"]
        assert reg.to_json() == reg.to_json()
        parsed = json.loads(reg.to_json())
        assert parsed["z.last"] == {"type": "counter", "value": 1}
        assert parsed["m.mid"]["count"] == 1

    def test_render_empty_and_populated(self):
        reg = MetricsRegistry()
        assert reg.render() == "(no metrics recorded)"
        reg.attach(_Source(**{
            "a": ("counter", 2), "h": ("histogram", _histogram(0.5)),
        }))
        text = reg.render()
        assert "a" in text and "counter" in text
        assert "count=1" in text

    def test_two_sources_sum_counts_and_merge_histograms(self):
        """Two executors on one registry, as the benchmark's replay
        attaches them: one name, both sources' events."""
        engine = _tiny_engine()
        reg = MetricsRegistry()
        first = QueryExecutor(engine, registry=reg)
        second = QueryExecutor(engine, registry=reg)
        first.run_one(GraphQuery([("a", "b")]))
        second.run_one(GraphQuery([("a", "b")]))
        second.run_one(GraphQuery([("b", "c")]))
        dump = reg.to_dict()
        assert dump["exec.queries_served"]["value"] == 3
        assert dump["exec.request_seconds"]["count"] == 3
        assert dump["exec.request_seconds"]["sum"] == pytest.approx(
            sum(ex.metrics()["exec.request_seconds"][1].sum for ex in (first, second))
        )


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
    """The registry reads an attached engine's and executor's own counts
    at export."""

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
        dump = reg.to_dict()
        assert dump["exec.queries_served"]["value"] == 2
        assert dump["exec.request_seconds"]["count"] == 2
        assert dump["exec.query_seconds"]["count"] == 2
        assert dump["exec.aggregate_seconds"] == {"type": "histogram", "count": 0}
        # the executor attached the engine, so its counts are exported
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
            (MetricsRegistry, "attach"),
            (MetricsRegistry, "to_dict"),
            (Histogram, "observe"),
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

    def test_pulled_counts_match_the_engine(self):
        engine = _tiny_engine()
        cache = BitmapCache(4 << 20)
        engine.use_bitmap_cache(cache)
        reg = MetricsRegistry()
        engine.use_metrics(reg)
        engine.use_metrics(reg)  # attaching again changes nothing
        query = GraphQuery([("a", "b"), ("b", "c")])
        engine.query(query)
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


# The daemon's export after ``TestDaemonExport``'s request script: every
# name with its type and its value (a histogram: its count).  The names
# marked 0 were first exported from zero when each component began
# keeping its own counts; every other entry reads the same as when the
# components pushed by name into the registry.
PINNED_EXPORT = {
    "adaptive.errors": ("counter", 0),
    "adaptive.maintenance_seconds": ("histogram", 1),
    "adaptive.managed_views": ("gauge", 2),
    "adaptive.refreshes": ("counter", 1),
    "adaptive.swap_epoch": ("gauge", 4),
    "adaptive.views_added": ("counter", 2),
    "adaptive.views_dropped": ("counter", 0),
    "adaptive.window_size": ("gauge", 7),
    "cache.bytes_held": ("gauge", 8),
    "cache.entries": ("gauge", 1),
    "cache.evictions": ("counter", 0),
    "cache.hits": ("counter", 5),
    "cache.invalidations": ("counter", 2),
    "cache.misses": ("counter", 3),
    "exec.aggregate_seconds": ("histogram", 1),
    "exec.explains": ("counter", 0),
    "exec.queries_served": ("counter", 8),
    "exec.query_seconds": ("histogram", 7),
    "exec.request_seconds": ("histogram", 8),
    "io.bitmap_bytes_fetched": ("counter", 40),
    "io.bitmap_columns_fetched": ("counter", 4),
    "io.cache_evictions": ("counter", 0),
    "io.cache_hits": ("counter", 5),
    "io.cache_misses": ("counter", 3),
    "io.measure_columns_fetched": ("counter", 16),
    "io.measure_values_fetched": ("counter", 650),
    "io.partitions_joined": ("counter", 0),
    "io.view_bitmaps_fetched": ("counter", 1),
    "io.view_measure_columns_fetched": ("counter", 0),
    "resilience.cancellations": ("counter", 0),
    "resilience.timeouts": ("counter", 1),
    "serve.aggregate_seconds": ("histogram", 1),
    "serve.append_seconds": ("histogram", 1),
    "serve.bytes_sent": ("counter", 326),
    "serve.bytes_streamed": ("counter", 10053),
    "serve.connections": ("gauge", 1),
    "serve.errors": ("counter", 3),
    "serve.explain_seconds": ("histogram", 0),
    "serve.healthz_seconds": ("histogram", 0),
    "serve.inflight": ("gauge", 1),
    "serve.internal_errors": ("counter", 0),
    "serve.loop_answers": ("counter", 8),
    "serve.materialize_seconds": ("histogram", 0),
    "serve.metrics_seconds": ("histogram", 0),
    "serve.protocol_errors": ("counter", 0),
    "serve.query_seconds": ("histogram", 9),
    "serve.records_appended": ("counter", 5),
    "serve.rejects": ("counter", 1),
    "serve.requests": ("counter", 13),
    "serve.stream_truncated": ("counter", 0),
    "serve.views_seconds": ("histogram", 0),
}


def _daemon_records(n, offset=0):
    return [
        GraphRecord(
            f"r{offset + i:04d}",
            {("a", "b"): float(offset + i), ("b", "c"): 2.0, ("c", "d"): 0.5},
        )
        for i in range(n)
    ]


class TestDaemonExport:
    def test_export_matches_the_pinned_map(self):
        """A governed daemon with a view maintainer answers a deadline
        504, seven reads and one aggregate, a 404, a 429, an ``/append``,
        a refresh and one more read; its ``/metrics`` then reads
        :data:`PINNED_EXPORT` exactly."""
        engine = GraphAnalyticsEngine()
        engine.load_records(_daemon_records(40))
        registry = MetricsRegistry()
        executor = QueryExecutor(engine, cache_mb=4, registry=registry)
        maintainer = ViewMaintainer(executor, budget=2, interval_s=3600, min_window=4)
        gate = TenantGate(
            shared=AdmissionController(max_inflight=1),
            policy=TenantPolicy(max_inflight=4),
        )
        handle = start_in_thread(
            executor, registry=registry, gate=gate, maintainer=maintainer
        )
        statuses = []
        try:
            with ServeClient(*handle.address) as client:
                with pytest.raises(ServeHTTPError) as info:
                    client.query({"q": "a -> b -> c", "timeout_ms": 1e-6})
                statuses.append(info.value.status)
                for _ in range(3):
                    client.query({"q": "a -> b -> c"})
                    client.query({"q": "b -> c -> d"})
                client.aggregate({"q": "SUM a -> b -> c"})
                statuses.append(client.request("GET", "/nope").status)
                assert gate.shared.try_admit()  # the one shared slot: taken
                try:
                    with pytest.raises(ServeHTTPError) as info:
                        client.query({"q": "a -> b"})
                    statuses.append(info.value.status)
                finally:
                    gate.shared.release()
                appended = _daemon_records(5, offset=100)
                client.append([
                    {"id": r.record_id,
                     "measures": [[u, v, x] for (u, v), x in r.measures().items()]}
                    for r in appended
                ])
                maintainer.refresh()
                client.query({"q": "a -> b -> c"})
                dump = client.metrics()
        finally:
            handle.stop()
            executor.close()
        assert statuses == [504, 404, 429]
        read = {
            name: (entry["type"], entry["count" if entry["type"] == "histogram" else "value"])
            for name, entry in dump.items()
        }
        assert read == PINNED_EXPORT
