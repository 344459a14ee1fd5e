"""Tracer semantics: observational purity and well-formed span trees.

Two property suites back the tentpole's core guarantees:

* enabling tracing never changes a query answer (the spans wrap the exact
  same code paths), and
* every produced trace is a well-formed tree — children nest strictly
  inside their parent's interval and their durations sum to at most the
  parent's.
"""

from __future__ import annotations

import itertools
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
from repro.exec import QueryExecutor
from repro.obs import Span, Tracer

from .conftest import run_concurrently
from .test_differential import small_collections


def _assert_well_formed(span: Span) -> None:
    assert span.end_ns is not None, f"span {span.name} left open"
    assert span.end_ns >= span.start_ns
    for child in span.children:
        assert child.start_ns >= span.start_ns, (span.name, child.name)
        assert child.end_ns <= span.end_ns, (span.name, child.name)
        _assert_well_formed(child)
    assert sum(c.duration_ns for c in span.children) <= span.duration_ns


class TestTracedEqualsUntraced:
    @given(small_collections())
    @settings(max_examples=30, deadline=None)
    def test_graph_queries_identical(self, case):
        records, queries = case
        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        traced = GraphAnalyticsEngine()
        traced.load_records(records)
        traced.use_tracer(Tracer())
        for query in queries:
            a = plain.query(query)
            b = traced.query(query)
            assert a.record_ids == b.record_ids
            for element, values in a.measures.items():
                got = b.measures[element]
                for x, y in zip(values, got):
                    assert x == y or (x != x and y != y)  # NaN-safe

    @given(small_collections())
    @settings(max_examples=20, deadline=None)
    def test_aggregations_identical(self, case):
        records, queries = case
        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        traced = GraphAnalyticsEngine()
        traced.load_records(records)
        traced.use_tracer(Tracer())
        for query, function in zip(queries, itertools.cycle(["sum", "avg"])):
            agg = PathAggregationQuery(query, function)
            a = plain.aggregate(agg)
            b = traced.aggregate(agg)
            assert a.record_ids == b.record_ids
            assert set(a.path_values) == set(b.path_values)
            for path, values in a.path_values.items():
                for x, y in zip(values, b.path_values[path]):
                    assert x == y or (x != x and y != y)

    @given(small_collections())
    @settings(max_examples=15, deadline=None)
    def test_traced_cached_executor_identical(self, case):
        records, queries = case
        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        traced = GraphAnalyticsEngine()
        traced.load_records(records)
        traced.use_tracer(Tracer())
        with QueryExecutor(traced, cache_mb=4) as executor:
            results = run_concurrently(executor, queries, 2, fetch_measures=False)
        for query, result in zip(queries, results):
            assert (
                result.record_ids
                == plain.query(query, fetch_measures=False).record_ids
            )


class TestSpanTreeWellFormed:
    @given(small_collections())
    @settings(max_examples=25, deadline=None)
    def test_all_traces_well_formed(self, case):
        records, queries = case
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        tracer = Tracer()
        engine.use_tracer(tracer)
        for query in queries:
            engine.query(query)
            engine.aggregate(PathAggregationQuery(query, "sum"))
        traces = tracer.drain()
        assert len(traces) == 2 * len(queries)
        for trace in traces:
            _assert_well_formed(trace.root)

    @given(small_collections())
    @settings(max_examples=15, deadline=None)
    def test_concurrent_traces_well_formed(self, case):
        records, queries = case
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        tracer = Tracer()
        engine.use_tracer(tracer)
        with QueryExecutor(engine, cache_mb=4) as executor:
            run_concurrently(executor, queries, 4, fetch_measures=False)
        traces = tracer.drain()
        assert len(traces) == len(queries)
        for trace in traces:
            _assert_well_formed(trace.root)
            assert trace.root.name == "query"

    def test_expected_stage_spans_present(self, figure2_engine):
        tracer = Tracer()
        figure2_engine.use_tracer(tracer)
        query = GraphQuery([("A", "B"), ("A", "C")])
        result = figure2_engine.query(query)
        root = tracer.last.root
        assert root.find("rewrite") is not None
        assert root.find("conjunction") is not None
        assert root.find("measures") is not None
        assert root.counters["rows_matched"] == len(result)
        agg = PathAggregationQuery(GraphQuery([("A", "C"), ("C", "E")]), "sum")
        figure2_engine.aggregate(agg)
        root = tracer.last.root
        assert root.name == "aggregate"
        assert root.find("aggregation") is not None


class TestTracerMechanics:
    def test_counters_and_meta_roundtrip(self):
        clock = itertools.count(step=10)
        tracer = Tracer(clock=lambda: next(clock))
        with tracer.span("query", query="q1", epoch=7):
            tracer.add("rows_matched", 3)
            with tracer.span("child", kind="element"):
                tracer.add("bitmaps_fetched")
        trace = tracer.last
        assert trace.query == "q1"
        assert trace.epoch == 7
        root = trace.root
        assert root.counters == {"rows_matched": 3}
        (child,) = root.children
        assert child.meta == {"kind": "element"}
        assert child.counters == {"bitmaps_fetched": 1}
        assert root.duration_ns == 30  # 4 clock reads, 10 apart
        payload = trace.to_dict()
        assert payload["root"]["children"][0]["name"] == "child"
        assert "cache" not in trace.render()

    def test_exception_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("query", query="boom"):
                raise RuntimeError("boom")
        assert len(tracer) == 1
        assert tracer.last.root.end_ns is not None
        assert tracer.current is None

    def test_drain_and_clear(self):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        assert len(tracer) == 1
        assert len(tracer.drain()) == 1
        assert len(tracer) == 0
        with tracer.span("query"):
            pass
        tracer.clear()
        assert tracer.last is None

    def test_max_traces_bounds_buffer(self):
        tracer = Tracer(max_traces=3)
        for i in range(10):
            with tracer.span("query", query=f"q{i}"):
                pass
        assert len(tracer) == 3
        assert [t.query for t in tracer.drain()] == ["q7", "q8", "q9"]

    def test_thread_local_stacks_do_not_interleave(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(tag: str) -> None:
            with tracer.span("query", query=tag):
                barrier.wait()
                with tracer.span("child", tag=tag):
                    barrier.wait()

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        traces = tracer.drain()
        assert len(traces) == 2
        for trace in traces:
            (child,) = trace.root.children
            assert child.meta["tag"] == trace.query

    def test_add_outside_span_is_noop(self):
        tracer = Tracer()
        tracer.add("orphan")  # must not raise
        assert tracer.current is None

    def test_invalid_max_traces(self):
        with pytest.raises(ValueError):
            Tracer(max_traces=0)

    def test_untraced_engine_has_no_tracer(self):
        engine = GraphAnalyticsEngine()
        engine.load_records([GraphRecord("r", {("a", "b"): 1.0})])
        assert engine.tracer is None
        engine.query(GraphQuery([("a", "b")]))  # no tracer: plain path
        tracer = Tracer()
        engine.use_tracer(tracer)
        engine.query(GraphQuery([("a", "b")]))
        assert len(tracer) == 1
        engine.use_tracer(None)
        engine.query(GraphQuery([("a", "b")]))
        assert len(tracer) == 1

    def test_tracer_flip_mid_query_is_invisible(self, figure2_engine):
        """A setter flipping the tracer while a query is in flight (what a
        concurrent EXPLAIN ANALYZE used to do under the shared read lock)
        must not reach that query: it keeps the tracer it started with."""
        engine = figure2_engine
        agg = PathAggregationQuery(GraphQuery([("A", "C"), ("C", "E")]), "sum")
        expected = engine.aggregate(agg)
        engine._planner.invalidate()
        plan_of = engine._planner.physical_plan

        def plan_then_flip(query):
            plan = plan_of(query)
            engine.use_tracer(None)  # deterministic stand-in for the race
            return plan

        engine._planner.physical_plan = plan_then_flip
        tracer = Tracer()
        engine.use_tracer(tracer)
        result = engine.aggregate(agg)
        assert result.record_ids == expected.record_ids
        root = tracer.last.root
        assert root.name == "aggregate"
        assert root.find("conjunction").counters["rows_matched"] == len(result)
        assert root.find("aggregation") is not None

    def test_explain_analyze_leaves_engine_tracer_alone(self, figure2_engine):
        installed = Tracer()
        figure2_engine.use_tracer(installed)
        seen = []
        use_tracer = figure2_engine.use_tracer
        figure2_engine.use_tracer = lambda t: (seen.append(t), use_tracer(t))
        text = figure2_engine.explain(GraphQuery([("A", "B")]), analyze=True)
        assert "rows_matched" in text
        assert seen == [] and figure2_engine.tracer is installed
        assert len(installed) == 0  # the analyze run traced privately
