"""Differential harness: the serving layer must never change an answer.

Every serving configuration — cache on/off, 1 or 4 client threads,
views materialized or dropped — is run over the same
random corpus and workload and compared bit-for-bit against the
:class:`RowStore` reference (the paper's system (i), which shares no code
with the bitmap engine).  The systems differ in speed, never in
semantics; any divergence is a bug in the engine, the rewriter, the
cache, or the executor.
"""

from __future__ import annotations

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import RowStore
from repro.core import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
)
from repro.exec import BitmapCache, QueryExecutor
from repro.workloads import (
    as_aggregate_queries,
    build_dataset,
    sample_dense_queries,
    sample_path_queries,
)

from .conftest import run_concurrently

N_RECORDS = 120
AGG_FUNCTIONS = ["sum", "min", "max", "count", "avg"]

CONFIGS = list(
    itertools.product(
        [0, 32],                       # cache budget (MB); 0 = off
        [1, 4],                        # client threads (run_concurrently)
        ["materialized", "dropped"],   # view state
    )
)


def _config_id(config):
    cache_mb, clients, views = config
    return f"cache{cache_mb}-jobs{clients}-{views}"


@pytest.fixture(scope="module")
def corpus():
    return build_dataset("NY", n_records=N_RECORDS, seed=5)


@pytest.fixture(scope="module")
def records(corpus):
    return list(corpus.to_records())


@pytest.fixture(scope="module")
def workload(corpus):
    """Mixed graph + aggregation workload: skewed path queries (shared
    prefixes exercise the cache), dense queries (wide conjunctions), and
    guaranteed misses (unknown edges must short-circuit to empty)."""
    graph_queries = sample_path_queries(
        corpus, 24, 3, distribution="zipf", seed=2
    )
    graph_queries += sample_dense_queries(corpus, 6, 0.05, seed=3)
    graph_queries += [
        GraphQuery([("no-such", "edge")]),
        GraphQuery(list(graph_queries[0].elements) + [("no-such", "edge")]),
    ]
    agg_queries = [
        PathAggregationQuery(query, function)
        for function, query in zip(
            itertools.cycle(AGG_FUNCTIONS), graph_queries[:15]
        )
    ]
    return graph_queries, agg_queries


@pytest.fixture(scope="module")
def baseline(records, workload):
    """Reference answers, computed once: RowStore shares no evaluation
    code with the engine."""
    graph_queries, agg_queries = workload
    store = RowStore()
    store.load_records(records)
    return (
        [store.query(q) for q in graph_queries],
        [store.aggregate(q) for q in agg_queries],
    )


def _engine_under(config, records, workload):
    """A fresh engine in the given serving configuration."""
    cache_mb, _, views = config
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    graph_queries, _ = workload
    engine.materialize_graph_views(graph_queries[:10], budget=3)
    engine.materialize_aggregate_views(
        as_aggregate_queries(graph_queries[:6]), budget=2
    )
    if views == "dropped":
        engine.drop_all_views()
    return engine, QueryExecutor(engine, cache_mb=cache_mb)


def assert_graph_result_matches(result, expected, query):
    assert result.record_ids == expected.record_ids, query
    by_row = dict(zip(expected.record_ids, expected.measures))
    for element, values in result.measures.items():
        for record_id, value in zip(result.record_ids, values):
            reference = by_row[record_id].get(element)
            if reference is None:
                # Engine reports absent measures as NaN.
                assert math.isnan(value), (query, element, record_id)
            else:
                assert value == pytest.approx(reference), (query, element)


def assert_aggregation_matches(result, expected, query):
    # Both systems report matches in record insertion order.
    assert result.record_ids == list(expected), query
    for path, values in result.path_values.items():
        for record_id, value in zip(result.record_ids, values):
            reference = expected[record_id].get(path)
            if reference is None:
                assert math.isnan(value) or value == 0.0, (query, path)
            else:
                assert value == pytest.approx(reference, nan_ok=True), (
                    query,
                    path,
                )


@pytest.mark.parametrize("config", CONFIGS, ids=map(_config_id, CONFIGS))
def test_serving_config_matches_rowstore(config, records, workload, baseline):
    graph_queries, agg_queries = workload
    expected_graph, expected_agg = baseline
    engine, executor = _engine_under(config, records, workload)
    batch = list(graph_queries) + list(agg_queries)
    clients = config[1]
    with executor:
        # One mixed batch, in order or from concurrent clients: results
        # must align with submission order.
        if clients > 1:
            results = run_concurrently(executor, batch, clients)
        else:
            results = executor.run_batch(batch)
    graph_results = results[: len(graph_queries)]
    agg_results = results[len(graph_queries):]
    for query, result, expected in zip(
        graph_queries, graph_results, expected_graph
    ):
        assert_graph_result_matches(result, expected, query)
    for query, result, expected in zip(agg_queries, agg_results, expected_agg):
        assert_aggregation_matches(result, expected, query)
    if config[0]:  # cache on: the accounting identity must hold
        stats = engine.stats
        assert stats.cache_hits + stats.cache_misses == (
            stats.conjunctions_requested()
        )


SHARD_CONFIGS = list(
    itertools.product(
        [1, 2, 4],                     # load(dir, shards=k)
        [0, 16],                       # cache budget (MB); 0 = off
        ["materialized", "dropped"],   # view state
    )
)


def _shard_config_id(config):
    shards, cache_mb, views = config
    return f"shards{shards}-cache{cache_mb}-{views}"


@pytest.fixture(scope="module")
def served_db(records, tmp_path_factory):
    """Every record, saved once; no test writes to it."""
    db = tmp_path_factory.mktemp("served") / "db"
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    engine.save(db)
    return db


def _served_engine(db, graph_queries, shards):
    """The store as the end-to-end benchmark serves it: opened with
    ``load(db, shards=k)`` (``benchmarks/e2e/layers.py:170``), views
    materialized on the loaded engine."""
    engine = GraphAnalyticsEngine.load(db, shards=shards)
    engine.materialize_graph_views(graph_queries[:10], budget=3)
    engine.materialize_aggregate_views(
        as_aggregate_queries(graph_queries[:6]), budget=2
    )
    return engine


def _assert_batch_matches(results, graph_queries, agg_queries, baseline):
    expected_graph, expected_agg = baseline
    for query, result, expected in zip(
        graph_queries, results[: len(graph_queries)], expected_graph
    ):
        assert_graph_result_matches(result, expected, query)
    for query, result, expected in zip(
        agg_queries, results[len(graph_queries):], expected_agg
    ):
        assert_aggregation_matches(result, expected, query)


@pytest.mark.parametrize(
    "config", SHARD_CONFIGS, ids=map(_shard_config_id, SHARD_CONFIGS)
)
def test_sharded_serving_matches_rowstore(config, served_db, workload, baseline):
    """The shard count a store is loaded with must be invisible: every
    count, with and without the cache and with views live or dropped,
    returns bit-identical answers to the reference."""
    shards, cache_mb, views = config
    graph_queries, agg_queries = workload
    engine = _served_engine(served_db, graph_queries, shards)
    if views == "dropped":
        engine.drop_all_views()
    with QueryExecutor(engine, cache_mb=cache_mb) as executor:
        results = executor.run_batch(list(graph_queries) + list(agg_queries))
    _assert_batch_matches(results, graph_queries, agg_queries, baseline)


PROCESS_CONFIGS = list(
    itertools.product(
        [2, 4],                        # load(dir, shards=k)
        [0, 16],                       # cache budget (MB); 0 = off
    )
)


def _process_config_id(config):
    shards, cache_mb = config
    return f"process-shards{shards}-cache{cache_mb}"


@pytest.mark.parametrize(
    "config", PROCESS_CONFIGS, ids=map(_process_config_id, PROCESS_CONFIGS)
)
def test_process_mode_matches_rowstore(config, served_db, workload, baseline):
    """The executor the end-to-end benchmark's daemons build
    (``exec_mode="process"``, ``workers``, ``storage_dir``;
    ``benchmarks/e2e/layers.py:185-186``) folds inline and returns
    bit-identical answers to the reference, cold and through the cache."""
    shards, cache_mb = config
    graph_queries, agg_queries = workload
    engine = _served_engine(served_db, graph_queries, shards)
    with QueryExecutor(
        engine, jobs=2, cache_mb=cache_mb, exec_mode="process", workers=2,
        storage_dir=served_db,
    ) as executor:
        results = executor.run_batch(list(graph_queries) + list(agg_queries))
    _assert_batch_matches(results, graph_queries, agg_queries, baseline)


def test_sharded_append_then_serve_matches_fresh_rowstore(reopen, records, workload):
    """Epoch-bumping appends against a store loaded with ``shards=4``
    (views extend incrementally) keep answers identical to a reference
    loaded from scratch."""
    graph_queries, _ = workload
    half = len(records) // 2
    engine = GraphAnalyticsEngine()
    engine.load_records(records[:half])
    engine = reopen(engine, 4)
    engine.materialize_graph_views(graph_queries[:10], budget=3)
    with QueryExecutor(engine, cache_mb=16) as executor:
        executor.run_batch(graph_queries, fetch_measures=False)  # warm
        executor.append_records(records[half:])
        results = executor.run_batch(graph_queries)
    store = RowStore()
    store.load_records(records)
    for query, result in zip(graph_queries, results):
        assert_graph_result_matches(result, store.query(query), query)


def test_append_then_serve_matches_fresh_rowstore(records, workload):
    """Differential across a mutation: answers after an append (with views
    live and the cache warm) must equal a reference loaded from scratch."""
    graph_queries, _ = workload
    half = len(records) // 2
    engine = GraphAnalyticsEngine()
    engine.load_records(records[:half])
    engine.materialize_graph_views(graph_queries[:10], budget=3)
    with QueryExecutor(engine, cache_mb=32) as executor:
        executor.run_batch(graph_queries, fetch_measures=False)  # warm
        executor.append_records(records[half:])
        results = executor.run_batch(graph_queries)
    store = RowStore()
    store.load_records(records)
    for query, result in zip(graph_queries, results):
        assert_graph_result_matches(result, store.query(query), query)


def test_boolean_expressions_match_reference(records):
    """Expressions route through evaluate(); reference is set algebra over
    per-atom RowStore answers."""
    store = RowStore()
    store.load_records(records)
    corpus_edges = sorted(
        {e for r in records for e in r.elements()}, key=repr
    )
    a = GraphQuery(corpus_edges[:2])
    b = GraphQuery(corpus_edges[2:4])
    ids_a = set(store.query(a).record_ids)
    ids_b = set(store.query(b).record_ids)
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    with QueryExecutor(engine, cache_mb=8) as executor:
        got_and, got_or, got_not = executor.run_batch(
            [a & b, a | b, a - b], fetch_measures=False
        )
    assert set(got_and.record_ids) == ids_a & ids_b
    assert set(got_or.record_ids) == ids_a | ids_b
    assert set(got_not.record_ids) == ids_a - ids_b


@st.composite
def small_collections(draw):
    nodes = "ABCDE"
    edges = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    n_records = draw(st.integers(min_value=1, max_value=6))
    records = []
    for i in range(n_records):
        elements = draw(st.sets(edges, min_size=1, max_size=4))
        records.append(
            GraphRecord(
                f"r{i}", {e: float(j + 1) for j, e in enumerate(sorted(elements))}
            )
        )
    queries = draw(
        st.lists(
            st.sets(edges, min_size=1, max_size=3).map(GraphQuery),
            min_size=1,
            max_size=4,
        )
    )
    return records, queries


class TestPropertyDifferential:
    """Hypothesis-driven: cached concurrent serving equals the containment
    definition on arbitrary small collections."""

    @given(small_collections())
    @settings(max_examples=30, deadline=None)
    def test_cached_executor_matches_containment(self, case):
        records, queries = case
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        with QueryExecutor(engine, cache_mb=4) as executor:
            results = executor.run_batch(queries, fetch_measures=False)
        for query, result in zip(queries, results):
            expected = [r.record_id for r in records if query.matches(r)]
            assert result.record_ids == expected

    @given(small_collections(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_shard_merge_preserves_order_and_measures(self, case, shards):
        """A store saved and loaded back with any shard count — including
        counts exceeding the record count — keeps global record order
        *and* every measure value for any collection."""
        records, queries = case
        oracle = GraphAnalyticsEngine()
        oracle.load_records(records)
        with tempfile.TemporaryDirectory() as directory:
            oracle.save(Path(directory) / "db")
            engine = GraphAnalyticsEngine.load(Path(directory) / "db", shards=shards)
        for query in queries:
            expected = oracle.query(query)
            got = engine.query(query)
            assert got.record_ids == expected.record_ids
            assert got.measures.keys() == expected.measures.keys()
            for element, values in expected.measures.items():
                for a, b in zip(values, got.measures[element]):
                    assert (math.isnan(a) and math.isnan(b)) or a == b

    @given(small_collections())
    @settings(max_examples=20, deadline=None)
    def test_cache_changes_nothing(self, case):
        records, queries = case
        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        cached = GraphAnalyticsEngine()
        cached.load_records(records)
        cached.use_bitmap_cache(BitmapCache(4 << 20))
        for query in queries:
            assert (
                cached.query(query, fetch_measures=False).record_ids
                == plain.query(query, fetch_measures=False).record_ids
            )


def test_results_are_epoch_stamped(records):
    engine = GraphAnalyticsEngine()
    engine.load_records(records[:10])
    query = GraphQuery([next(iter(records[0].elements()))])
    first = engine.query(query, fetch_measures=False)
    assert first.epoch == engine.epoch
    engine.append_records(records[10:12])
    second = engine.query(first.query, fetch_measures=False)
    assert second.epoch == engine.epoch > first.epoch


def test_dense_measures_roundtrip(corpus, records):
    """Measure arrays (not just ids) survive the cache: every returned
    value equals the loaded record's measure."""
    by_id = {r.record_id: r.measures() for r in records}
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    queries = sample_dense_queries(corpus, 4, 0.04, seed=9)
    with QueryExecutor(engine, cache_mb=16) as executor:
        executor.run_batch(queries, fetch_measures=False)  # warm
        results = executor.run_batch(queries)
    for query, result in zip(queries, results):
        for element, values in result.measures.items():
            for record_id, value in zip(result.record_ids, values):
                assert value == by_id[record_id][element], (element, record_id)
    assert engine.stats.cache_hits > 0


class TestMetricsConsistency:
    """The observability layer must agree with both the engine's own
    accounting and the RowStore reference — a counter that drifts from the
    ground truth is as wrong as a bad answer."""

    def test_registry_mirrors_cache_accounting(self, records, workload):
        from repro.obs import MetricsRegistry

        graph_queries, agg_queries = workload
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        registry = MetricsRegistry()
        with QueryExecutor(engine, cache_mb=16, registry=registry) as ex:
            run_concurrently(
                ex, list(graph_queries) + list(agg_queries), 4,
                fetch_measures=False,
            )
        stats = engine.stats
        dump = registry.to_dict()
        # Every conjunction lookup is exactly one hit or one miss, counted
        # once, by the cache; the registry and the engine's stats read it.
        total = dump["cache.hits"]["value"] + dump["cache.misses"]["value"]
        assert total == stats.conjunctions_requested() > 0
        assert dump["io.cache_hits"]["value"] == stats.cache_hits
        assert dump["io.cache_misses"]["value"] == stats.cache_misses
        cache_stats = ex.cache.stats
        assert cache_stats.requests() == stats.conjunctions_requested()
        assert (cache_stats.hits, cache_stats.misses) == (
            stats.cache_hits,
            stats.cache_misses,
        )
        assert registry.to_dict()["exec.queries_served"]["value"] == len(
            graph_queries
        ) + len(agg_queries)

    def test_trace_rows_matched_equals_rowstore(self, records, workload):
        from repro.obs import Tracer

        graph_queries, _ = workload
        store = RowStore()
        store.load_records(records)
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        engine.materialize_graph_views(graph_queries[:10], budget=3)
        tracer = Tracer()
        engine.use_tracer(tracer)
        for query in graph_queries:
            engine.query(query, fetch_measures=False)
        traces = tracer.drain()
        assert len(traces) == len(graph_queries)
        for query, trace in zip(graph_queries, traces):
            reference = len(store.query(query).record_ids)
            assert trace.root.counters["rows_matched"] == reference, query
            conjunction = trace.root.find("conjunction")
            assert conjunction is not None
            assert conjunction.counters["rows_matched"] == reference, query

    def test_traced_metered_serving_still_matches_reference(
        self, records, workload, baseline
    ):
        """Full observability on (tracer + registry + cache + threads):
        answers stay bit-identical to the reference."""
        from repro.obs import MetricsRegistry, Tracer

        graph_queries, _ = workload
        expected_graph, _ = baseline
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        engine.materialize_graph_views(graph_queries[:10], budget=3)
        engine.use_tracer(Tracer())
        registry = MetricsRegistry()
        with QueryExecutor(engine, cache_mb=16, registry=registry) as ex:
            results = run_concurrently(ex, graph_queries, 4)
        for query, result, expected in zip(
            graph_queries, results, expected_graph
        ):
            assert_graph_result_matches(result, expected, query)


def test_nan_semantics_preserved(records):
    """NaN measures stay NaN (not 0) through the serving layer."""
    special = GraphRecord("nan-rec", {("p", "q"): float("nan"), ("q", "r"): 2.0})
    engine = GraphAnalyticsEngine()
    engine.load_records(records + [special])
    with QueryExecutor(engine, cache_mb=4) as executor:
        result = executor.run_one(GraphQuery([("p", "q"), ("q", "r")]))
    assert result.record_ids == ["nan-rec"]
    assert np.isnan(result.measures[("p", "q")][0])
    assert result.measures[("q", "r")][0] == 2.0
