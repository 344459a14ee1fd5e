"""Over-the-wire differential harness: the daemon must never change an
answer.

Every configuration the in-process differential suite runs
(`tests/test_differential.py`: cache on/off × worker threads × view
state, plus sharded and process-pool configs) is replayed here through a
*live daemon* — real TCP sockets, real HTTP framing, chunked NDJSON
streaming — and the decoded wire answers are held to the same
:class:`RowStore` oracle, bit for bit: record ids, measure values (NaN
sentinels included), aggregate path values, epochs, and — for
``partial_ok`` over a faulted shard — the exact skipped record ranges.

The suite reuses the library oracle's fixtures and assertion helpers
unchanged: :class:`~repro.serve.codec.WireGraphResult` /
``WireAggregationResult`` expose the same read surface as the engine's
result objects, so a divergence anywhere in the protocol, codec, or
daemon shows up as an oracle mismatch.
"""

from __future__ import annotations

import pytest

from repro.baselines import RowStore
from repro.core import GraphAnalyticsEngine, PathAggregationQuery
from repro.exec import QueryExecutor
from repro.resilience import ResiliencePolicy
from repro.serve import ServeClient, start_in_thread
from repro.workloads import as_aggregate_queries
from tests import faultinject as fi
from tests.test_differential import (  # noqa: F401  (fixtures re-registered)
    CONFIGS,
    PROCESS_CONFIGS,
    SHARD_CONFIGS,
    _config_id,
    _process_config_id,
    _shard_config_id,
    assert_aggregation_matches,
    assert_graph_result_matches,
    baseline,
    corpus,
    records,
    workload,
)


def wire_graph(query, **options) -> dict:
    """The structural wire form of a GraphQuery (keeps label types)."""
    payload = {"elements": [list(e) for e in sorted(query.elements, key=repr)]}
    payload.update(options)
    return payload


def wire_agg(query: PathAggregationQuery, **options) -> dict:
    payload = wire_graph(query.query, **options)
    payload["function"] = query.function
    return payload


def replay_through_daemon(executor, workload, baseline, **options):
    """Drive the full mixed workload through a live daemon and hold every
    decoded answer to the RowStore oracle."""
    graph_queries, agg_queries = workload
    expected_graph, expected_agg = baseline
    handle = start_in_thread(executor)
    try:
        with ServeClient(*handle.address) as client:
            for query, expected in zip(graph_queries, expected_graph):
                result = client.query(wire_graph(query, **options))
                assert_graph_result_matches(result, expected, query)
            for query, expected in zip(agg_queries, expected_agg):
                result = client.aggregate(wire_agg(query, **options))
                assert_aggregation_matches(result, expected, query)
    finally:
        handle.stop()


@pytest.mark.parametrize("config", CONFIGS, ids=map(_config_id, CONFIGS))
def test_served_config_matches_rowstore(config, records, workload, baseline):
    cache_mb, jobs, views = config
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    graph_queries, _ = workload
    engine.materialize_graph_views(graph_queries[:10], budget=3)
    engine.materialize_aggregate_views(
        as_aggregate_queries(graph_queries[:6]), budget=2
    )
    if views == "dropped":
        engine.drop_all_views()
    with QueryExecutor(engine, jobs=jobs, cache_mb=cache_mb) as executor:
        replay_through_daemon(executor, workload, baseline)


@pytest.mark.parametrize(
    "config", SHARD_CONFIGS, ids=map(_shard_config_id, SHARD_CONFIGS)
)
def test_served_sharded_matches_rowstore(config, records, workload, baseline):
    shards, cache_mb, views = config
    graph_queries, _ = workload
    engine = GraphAnalyticsEngine(shards=shards)
    engine.load_records(records)
    engine.materialize_graph_views(graph_queries[:10], budget=3)
    engine.materialize_aggregate_views(
        as_aggregate_queries(graph_queries[:6]), budget=2
    )
    if views == "dropped":
        engine.drop_all_views()
    with QueryExecutor(engine, jobs=2, cache_mb=cache_mb) as executor:
        replay_through_daemon(executor, workload, baseline)


@pytest.mark.parametrize(
    "config", PROCESS_CONFIGS, ids=map(_process_config_id, PROCESS_CONFIGS)
)
def test_served_process_mode_matches_rowstore(
    config, records, workload, baseline
):
    """The full stack end to end: HTTP → daemon → executor → process-pool
    workers over spooled mmap storage → results on the reply pipe → chunked
    NDJSON back out, still bit-identical to the oracle."""
    shards, cache_mb = config
    graph_queries, _ = workload
    engine = GraphAnalyticsEngine(shards=shards)
    engine.load_records(records)
    engine.materialize_graph_views(graph_queries[:10], budget=3)
    engine.materialize_aggregate_views(
        as_aggregate_queries(graph_queries[:6]), budget=2
    )
    with QueryExecutor(
        engine, jobs=2, cache_mb=cache_mb, exec_mode="process", workers=2
    ) as executor:
        replay_through_daemon(executor, workload, baseline)


def test_served_degraded_partial_ok_exact_skipped_ranges(
    tmp_path_factory, monkeypatch, fan_out, records, workload
):
    """Degraded answers over the wire: ``partial_ok`` against a faulted
    storage shard must decode with the *exact* skipped record range the
    library oracle reports, and be bit-exact on every healthy shard."""
    graph_queries, _ = workload
    engine = GraphAnalyticsEngine(shards=4)
    engine.load_records(records)
    db = tmp_path_factory.mktemp("servedb") / "db"
    engine.save(db)
    fi.fail_shard_in_workers(monkeypatch, engine, 1)
    start, stop = fi.shard_range(engine, 1)
    skipped_ids = {records[i].record_id for i in range(start, stop)}
    store = RowStore()
    store.load_records(records)
    degraded_seen = 0
    with QueryExecutor(
        engine, jobs=2, exec_mode="process", workers=2, storage_dir=db,
        resilience=ResiliencePolicy(attempts=2, sleep=lambda _s: None),
    ) as executor:
        handle = start_in_thread(executor)
        try:
            with ServeClient(*handle.address) as client:
                for query in graph_queries:
                    result = client.query(
                        wire_graph(
                            query, fetch_measures=False, partial_ok=True
                        )
                    )
                    oracle = store.query(query).record_ids
                    if result.degraded is not None:
                        degraded_seen += 1
                        assert result.degraded.skipped_ranges() == [
                            (start, stop)
                        ], query
                        assert result.record_ids == [
                            rid for rid in oracle if rid not in skipped_ids
                        ], query
                    else:
                        assert result.record_ids == oracle, query
        finally:
            handle.stop()
    assert degraded_seen > 0


def test_served_append_then_query_matches_fresh_rowstore(records, workload):
    """Differential across a wire mutation: /append routes through the
    writer-preferring RW lock and epoch bump, after which every answer
    (views live, cache warm) must equal a reference loaded from scratch."""
    graph_queries, _ = workload
    half = len(records) // 2
    engine = GraphAnalyticsEngine()
    engine.load_records(records[:half])
    engine.materialize_graph_views(graph_queries[:10], budget=3)
    store = RowStore()
    store.load_records(records)
    with QueryExecutor(engine, jobs=4, cache_mb=32) as executor:
        handle = start_in_thread(executor)
        try:
            with ServeClient(*handle.address) as client:
                epoch_before = client.healthz()["epoch"]
                for query in graph_queries:  # warm the cache
                    client.query(wire_graph(query, fetch_measures=False))
                wire_records = [
                    {
                        "id": r.record_id,
                        "measures": [
                            [u, v, value] for (u, v), value in r.measures().items()
                        ],
                    }
                    for r in records[half:]
                ]
                reply = client.append(wire_records)
                assert reply["appended"] == len(records) - half
                assert reply["epoch"] > epoch_before
                for query in graph_queries:
                    result = client.query(wire_graph(query))
                    assert_graph_result_matches(
                        result, store.query(query), query
                    )
                    assert result.epoch == reply["epoch"]
        finally:
            handle.stop()
