"""What a small query pays for: one storage fold, exact I/O accounting
through it, and bounded memos in front of parse and plan.

The storage fold (``MasterRelation.fold``) replaced one Python fetch chain
per part; these tests pin that the collector still sees exactly the
per-part fetches the cost model counts, that a query is one fold call,
and that the text and plan memos stay correct — and bounded — across
function registration, appends and concurrency.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro.columnstore import MasterRelation
from repro.core import (
    AggregateFunction,
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
    register_function,
)
from repro.core import memo as memo_module
from repro.core.aggregates import FUNCTIONS
from repro.exec import QueryExecutor
from repro.lang import parse_statement
from repro.serve import ServeClient, ServeHTTPError, start_in_thread

N_RECORDS = 48
CHAIN = [f"n{i}" for i in range(9)]  # eight edges n0->n1 ... n7->n8


def _records():
    """Every record holds A->B->C->D; only the first five also hold D->E."""
    out = []
    for i in range(N_RECORDS):
        cells = {("A", "B"): float(i), ("B", "C"): 1.0, ("C", "D"): 2.0}
        if i < 5:
            cells[("D", "E")] = 3.0
        out.append(GraphRecord(f"r{i:03d}", cells))
    return out


def _engine(reopen=None, shards: int = 1) -> GraphAnalyticsEngine:
    """The records, reopened with ``shards`` when ``reopen`` is given, plus
    one graph view and one aggregate view."""
    engine = GraphAnalyticsEngine()
    engine.load_records(_records())
    if reopen is not None:
        engine = reopen(engine, shards)
    engine.add_graph_view([("A", "B"), ("B", "C")])
    engine.materialize_aggregate_views(
        [PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "sum")], 1
    )
    return engine


def _expected_bitmap_io(plan) -> tuple[int, int, int]:
    """Per part: one charged fetch of a column's words."""
    base = view = nbytes = 0
    for kind, _ in plan.refs:
        base += kind == "element"
        view += kind != "element"
        nbytes += 8 * ((N_RECORDS + 63) // 64)
    return base, view, nbytes


def _bitmap_delta(engine, run) -> tuple[int, int, int]:
    before = engine.stats
    b0, v0, n0 = (
        before.bitmap_columns_fetched, before.view_bitmaps_fetched, before.bitmap_bytes_fetched
    )
    run()
    after = engine.stats
    return (
        after.bitmap_columns_fetched - b0,
        after.view_bitmaps_fetched - v0,
        after.bitmap_bytes_fetched - n0,
    )


class TestFoldAccounting:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_graph_query_io_equals_per_part_per_shard_fetches(self, reopen, shards):
        """One charged fetch per part, whatever shard count the store was
        loaded with: the query folds every record in one call."""
        engine = _engine(reopen, shards)
        query = GraphQuery.from_node_chain("A", "B", "C", "D", "E")
        plan = engine.physical_plan(query)
        kinds = [kind for kind, _ in plan.refs]
        assert "graph-view" in kinds and kinds.count("element") == 2
        delta = _bitmap_delta(engine, lambda: engine.query(query))
        assert delta == _expected_bitmap_io(plan)
        assert delta[0] == 2 and delta[1] == 1

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_aggregate_query_io_counts_the_view_bitmaps(self, reopen, shards):
        engine = _engine(reopen, shards)
        query = PathAggregationQuery(
            GraphQuery.from_node_chain("A", "B", "C", "D", "E"), "sum"
        )
        plan = engine.physical_plan(query)
        assert "agg-view" in [kind for kind, _ in plan.refs]
        delta = _bitmap_delta(engine, lambda: engine.aggregate(query))
        assert delta == _expected_bitmap_io(plan)

    def test_a_stale_view_still_raises(self):
        engine = _engine()
        query = GraphQuery.from_node_chain("A", "B", "C")
        refs = engine.physical_plan(query).refs
        engine.relation.append_columns(1, {engine.catalog.get_id(("A", "B")): ([0], [1.0])})
        with pytest.raises(RuntimeError, match="stale"):
            engine.relation.fold(refs)


class TestCallShape:
    def test_eight_parts_over_eight_serial_shards_is_one_fold(self, reopen, monkeypatch):
        engine = GraphAnalyticsEngine()
        engine.load_records(
            GraphRecord(f"r{i}", {(u, v): 1.0 for u, v in zip(CHAIN, CHAIN[1:])})
            for i in range(64)
        )
        engine = reopen(engine, 8)
        calls: Counter = Counter()
        fold = MasterRelation.fold

        def counting_fold(self, refs, ctx=None):
            calls["fold"] += 1
            calls["refs"] += len(refs)
            return fold(self, refs, ctx)

        monkeypatch.setattr(MasterRelation, "fold", counting_fold)
        result = engine.query(GraphQuery.from_node_chain(*CHAIN), fetch_measures=False)
        assert len(result.record_ids) == 64
        assert calls == Counter(fold=1, refs=8)


class TestPlanMemoBound:
    def _queries(self):
        edges = list(zip(CHAIN, CHAIN[1:]))
        singles = [GraphQuery([e]) for e in edges]
        pairs = [GraphQuery([a, b]) for a, b in zip(edges, edges[1:])]
        return singles + pairs  # 17 distinct queries

    def _engine(self, monkeypatch, size):
        monkeypatch.setattr(memo_module, "MEMO_SIZE", size)
        engine = GraphAnalyticsEngine()
        engine.load_records(
            [GraphRecord("r0", {(u, v): 1.0 for u, v in zip(CHAIN, CHAIN[1:])})]
        )
        return engine

    def test_twice_n_distinct_queries_leave_at_most_n_plans(self, monkeypatch):
        engine = self._engine(monkeypatch, 8)
        queries = self._queries()[:16]
        plans = [engine.physical_plan(query) for query in queries]
        assert len(engine._planner._memo) == 8
        # Least recently used went first: the last eight are still memoized.
        assert all(engine.physical_plan(q) is p for q, p in zip(queries[8:], plans[8:]))
        assert engine.physical_plan(queries[0]) is not plans[0]
        assert len(engine._planner._memo) == 8

    def test_concurrent_planners_stay_bounded(self, monkeypatch):
        """Planners share one memo under the executor's read lock: with
        more threads than cores and a short switch interval, every lookup
        still returns its own query's plan and the bound holds."""
        engine = self._engine(monkeypatch, 4)
        queries = self._queries()
        failures: list = []

        def plan_all():
            try:
                for _ in range(30):
                    for query in queries:
                        assert engine.physical_plan(query).query == query
                        assert len(engine._planner._memo) <= 4
            except Exception as exc:  # surfaced below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryExecutor(engine) as executor:
                threads = [threading.Thread(target=plan_all) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert executor.run_one(queries[0]).record_ids == ["r0"]
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[0]
        assert len(engine._planner._memo) == 4


class TestParseMemo:
    def test_same_text_gives_the_same_object(self):
        first = parse_statement("memo_a -> memo_b -> memo_c")
        assert parse_statement("memo_a -> memo_b -> memo_c") is first

    def test_register_function_changes_a_memoized_parse(self):
        text = "memostd -> A -> B"
        assert parse_statement(text) == GraphQuery([("memostd", "A"), ("A", "B")])
        register_function(AggregateFunction("memostd", FUNCTIONS["sum"].combine))
        try:
            query = parse_statement(text)
            assert isinstance(query, PathAggregationQuery)
            assert query.function == "memostd"
        finally:
            del FUNCTIONS["memostd"]
        assert isinstance(parse_statement(text), GraphQuery)


@pytest.fixture()
def daemon():
    engine = GraphAnalyticsEngine()
    engine.load_records(
        [GraphRecord(f"r{i}", {("a", "b"): float(i)}) for i in range(6)]
    )
    executor = QueryExecutor(engine, cache_mb=4)
    handle = start_in_thread(executor)
    try:
        yield handle
    finally:
        handle.stop()
        executor.close()


class TestParseMemoOverTheWire:
    def test_a_bad_text_keeps_its_positioned_400(self, daemon):
        with ServeClient(*daemon.address) as client:
            messages = []
            for _ in range(3):
                with pytest.raises(ServeHTTPError) as err:
                    client.query({"q": "a -> -> b"})
                assert err.value.status == 400 and err.value.code == "bad-query"
                messages.append(str(err.value))
        assert "position 5" in messages[0]
        assert messages == messages[:1] * 3

    def test_an_append_adding_an_edge_reaches_a_repeated_text(self, daemon):
        with ServeClient(*daemon.address) as client:
            assert client.query({"q": "b -> c"}).record_ids == []
            client.append([{"id": "new", "measures": [["a", "b", 1.0], ["b", "c", 2.0]]}])
            assert client.query({"q": "b -> c"}).record_ids == ["new"]
            assert len(client.query({"q": "a -> b"}).record_ids) == 7
