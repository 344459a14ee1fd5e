"""What a small query pays for: one storage fold, exact I/O accounting
through it, and bounded memos in front of parse and plan.

The storage fold (``MasterRelation.fold``) replaced one Python fetch chain
per (part, range); these tests pin that the collector still sees exactly
the per-(part, range) fetches the cost model counts, that a query below
the fan-out break-even is one fold call whatever the range count, and
that the text and plan memos stay correct — and bounded — across
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
from repro.core.engine import ShardTask, range_tasks
from repro.core.aggregates import FUNCTIONS
from repro.exec import QueryExecutor
from repro.lang import parse_statement
from repro.serve import ServeClient, ServeHTTPError, start_in_thread

N_RECORDS = 48
CHAIN = [f"n{i}" for i in range(9)]  # eight edges n0->n1 ... n7->n8


def _records():
    """Every record holds A->B->C->D; only the first five also hold D->E,
    so cut into 3 or 8 ranges that element has no set bit past range 0."""
    out = []
    for i in range(N_RECORDS):
        cells = {("A", "B"): float(i), ("B", "C"): 1.0, ("C", "D"): 2.0}
        if i < 5:
            cells[("D", "E")] = 3.0
        out.append(GraphRecord(f"r{i:03d}", cells))
    return out


def _engine(shards: int) -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine(shards=shards)
    engine.load_records(_records())
    engine.add_graph_view([("A", "B"), ("B", "C")])
    engine.materialize_aggregate_views(
        [PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "sum")], 1
    )
    return engine


def _expected_bitmap_io(plan, tasks) -> tuple[int, int, int]:
    """Per (part, range task): one charged fetch of that range's words —
    a range reads its segment of every column."""
    base = view = nbytes = 0
    for _, start, stop in tasks:
        words = (stop - start + 63) // 64
        for kind, _ in plan.refs:
            base += kind == "element"
            view += kind != "element"
            nbytes += 8 * words
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
    def test_graph_query_io_equals_per_part_per_shard_fetches(self, shards):
        engine = _engine(shards)
        query = GraphQuery.from_node_chain("A", "B", "C", "D", "E")
        plan = engine.physical_plan(query)
        kinds = [kind for kind, _ in plan.refs]
        assert "graph-view" in kinds and kinds.count("element") == 2
        delta = _bitmap_delta(engine, lambda: engine.query(query))
        assert delta == _expected_bitmap_io(plan, [ShardTask(0, 0, N_RECORDS)])
        # In process: one fold of every record, at any count.
        assert delta[0] == 2 and delta[1] == 1
        # Cut into ranges (the folds a process worker runs), D->E sets bits
        # in range 0 only, yet every range reads its segment.
        tasks = range_tasks(N_RECORDS, shards)
        relation = engine.relation
        delta = _bitmap_delta(engine, lambda: [
            relation.fold(plan.refs, None, task.start, task.stop) for task in tasks
        ])
        assert delta == _expected_bitmap_io(plan, tasks)
        assert delta[0] == 2 * shards and delta[1] == shards

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_aggregate_query_io_counts_the_view_bitmaps(self, shards):
        engine = _engine(shards)
        query = PathAggregationQuery(
            GraphQuery.from_node_chain("A", "B", "C", "D", "E"), "sum"
        )
        plan = engine.physical_plan(query)
        assert "agg-view" in [kind for kind, _ in plan.refs]
        delta = _bitmap_delta(engine, lambda: engine.aggregate(query))
        assert delta == _expected_bitmap_io(plan, [ShardTask(0, 0, N_RECORDS)])

    def test_a_stale_view_still_raises(self):
        engine = _engine(1)
        query = GraphQuery.from_node_chain("A", "B", "C")
        refs = engine.physical_plan(query).refs
        engine.relation.append_columns(1, {engine.catalog.get_id(("A", "B")): ([0], [1.0])})
        with pytest.raises(RuntimeError, match="stale"):
            engine.relation.fold(refs)


class TestCallShape:
    def test_eight_parts_over_eight_serial_shards_is_one_fold(self, monkeypatch):
        engine = GraphAnalyticsEngine(shards=8)
        engine.load_records(
            GraphRecord(f"r{i}", {(u, v): 1.0 for u, v in zip(CHAIN, CHAIN[1:])})
            for i in range(64)
        )
        calls: Counter = Counter()
        fold = MasterRelation.fold

        def counting_fold(self, refs, ctx=None, start=0, stop=None):
            calls["fold"] += 1
            calls["refs"] += len(refs)
            return fold(self, refs, ctx, start, stop)

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
            with QueryExecutor(engine, jobs=4) as executor:
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
    executor = QueryExecutor(engine, jobs=2, cache_mb=4)
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
