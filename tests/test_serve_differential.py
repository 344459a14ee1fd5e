"""Over-the-wire differential harness: the daemon must never change an
answer.

Every configuration the in-process differential suite runs
(`tests/test_differential.py`: cache on/off × client threads × view
state, plus the shard counts and process mode the end-to-end benchmark
passes; one client replays each here) is replayed here through a *live daemon* — real TCP sockets, real
HTTP framing, chunked NDJSON streaming — and the decoded wire answers are
held to the same :class:`RowStore` oracle, bit for bit: record ids,
measure values (NaN sentinels included), aggregate path values, epochs.
A fold that fails mid-query answers the library's typed error.

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
from repro.serve import ServeClient, ServeHTTPError, start_in_thread
from repro.workloads import as_aggregate_queries
from tests import faultinject as fi
from tests.test_differential import (  # noqa: F401  (fixtures re-registered)
    CONFIGS,
    PROCESS_CONFIGS,
    SHARD_CONFIGS,
    _config_id,
    _process_config_id,
    _served_engine,
    served_db,
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
    with QueryExecutor(engine, cache_mb=cache_mb) as executor:
        replay_through_daemon(executor, workload, baseline)


@pytest.mark.parametrize(
    "config", SHARD_CONFIGS, ids=map(_shard_config_id, SHARD_CONFIGS)
)
def test_served_sharded_matches_rowstore(config, served_db, workload, baseline):
    shards, cache_mb, views = config
    graph_queries, _ = workload
    engine = _served_engine(served_db, graph_queries, shards)
    if views == "dropped":
        engine.drop_all_views()
    with QueryExecutor(engine, cache_mb=cache_mb) as executor:
        replay_through_daemon(executor, workload, baseline)


@pytest.mark.parametrize(
    "config", PROCESS_CONFIGS, ids=map(_process_config_id, PROCESS_CONFIGS)
)
def test_served_process_mode_matches_rowstore(
    config, served_db, workload, baseline
):
    """The full stack as the end-to-end benchmark runs it: a store loaded
    with ``shards=k``, an executor built with ``exec_mode="process"``, HTTP
    → daemon → inline fold → chunked NDJSON back out, still bit-identical
    to the oracle."""
    shards, cache_mb = config
    graph_queries, _ = workload
    engine = _served_engine(served_db, graph_queries, shards)
    with QueryExecutor(
        engine, jobs=2, cache_mb=cache_mb, exec_mode="process", workers=2,
        storage_dir=served_db,
    ) as executor:
        replay_through_daemon(executor, workload, baseline)


def test_served_fold_failure_is_a_typed_502(records, workload):
    """A fold that fails mid-query answers over the wire as the typed
    error the library raises: 502 ``shard-failed`` naming records
    ``[0, n)``, exit code 5.  A body asking for ``partial_ok`` is refused
    as an unknown field."""
    graph_queries, _ = workload
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    fault = fi.install_faulty_shard(engine)
    with QueryExecutor(engine) as executor:
        handle = start_in_thread(executor)
        try:
            with ServeClient(*handle.address) as client:
                with pytest.raises(ServeHTTPError) as info:
                    client.query(wire_graph(graph_queries[0]))
                assert (info.value.status, info.value.code) == (502, "shard-failed")
                assert info.value.error["record_range"] == [0, len(records)]
                assert info.value.exit_code == 5
                with pytest.raises(ServeHTTPError) as info:
                    client.query(wire_graph(graph_queries[0], partial_ok=True))
                assert (info.value.status, info.value.code) == (400, "unknown-field")
        finally:
            handle.stop()
    assert fault.calls == 1


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
    with QueryExecutor(engine, cache_mb=32) as executor:
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
