"""Integration tests for the engine facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    Path,
    PathAggregationQuery,
)


def chain_record(rid, nodes, values):
    return GraphRecord.from_walk(rid, nodes, edge_measures=values)


@pytest.fixture
def engine():
    e = GraphAnalyticsEngine()
    e.load_records(
        [
            chain_record("r1", ["A", "B", "C", "D"], [1.0, 2.0, 3.0]),
            chain_record("r2", ["A", "B", "C"], [4.0, 5.0]),
            chain_record("r3", ["B", "C", "D", "E"], [6.0, 7.0, 8.0]),
            chain_record("r4", ["X", "Y"], [9.0]),
        ]
    )
    return e


class TestLoading:
    def test_load_counts(self, engine):
        assert engine.n_records == 4
        assert len(engine.catalog) == 5

    def test_load_columnar_matches_row_loading(self):
        row_engine = GraphAnalyticsEngine()
        row_engine.load_records(
            [
                GraphRecord("r0", {("A", "B"): 1.0}),
                GraphRecord("r1", {("A", "B"): 2.0, ("B", "C"): 3.0}),
            ]
        )
        col_engine = GraphAnalyticsEngine()
        col_engine.load_columnar(
            ["r0", "r1"],
            {
                ("A", "B"): (np.array([0, 1]), np.array([1.0, 2.0])),
                ("B", "C"): (np.array([1]), np.array([3.0])),
            },
        )
        q = GraphQuery([("A", "B")])
        assert row_engine.query(q).record_ids == col_engine.query(q).record_ids

    def test_incremental_columnar_load(self):
        e = GraphAnalyticsEngine()
        e.load_columnar(["a"], {("A", "B"): (np.array([0]), np.array([1.0]))})
        e.load_columnar(["b"], {("A", "B"): (np.array([0]), np.array([2.0]))})
        result = e.query(GraphQuery([("A", "B")]))
        assert result.record_ids == ["a", "b"]

    def test_measured_nodes_tracked(self):
        e = GraphAnalyticsEngine()
        e.load_records([GraphRecord("r", {("A", "A"): 1.0, ("A", "B"): 2.0})])
        assert e.measured_nodes == {"A"}


def _snapshot(engine) -> tuple:
    """What a refused batch must leave as it was: the record count and
    ids, every element and view column, and the epoch."""
    relation = engine.relation
    columns = {
        i: relation.column_for_persistence(i) for i in relation.element_ids()
    }
    return (
        engine.n_records,
        engine.record_ids_at(np.arange(engine.n_records)),
        columns,
        relation.graph_views_for_persistence(),
        relation.aggregate_views_for_persistence(),
        engine.epoch,
    )


def _with_views(shards: int) -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine(shards=shards)
    engine.load_records(
        GraphRecord(f"r{i}", {("A", "B"): float(i), ("B", "C"): 1.0}) for i in range(4)
    )
    query = GraphQuery.from_node_chain("A", "B", "C")
    engine.materialize_graph_views([query], budget=1)
    engine.materialize_aggregate_views([PathAggregationQuery(query, "sum")], budget=1)
    return engine


class TestWholeBatch:
    """A batch is applied whole or not at all."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("row", [-1, -3, 1, 7])
    def test_rows_outside_the_batch_are_refused(self, shards, row):
        engine = _with_views(shards)
        before = _snapshot(engine)
        with pytest.raises(IndexError):
            engine.load_columnar(["x"], {("X", "Y"): (np.array([row]), np.array([5.0]))})
        assert _snapshot(engine) == before
        assert engine.query(GraphQuery([("X", "Y")])).record_ids == []

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_refused_load_columnar_changes_nothing(self, shards):
        engine = _with_views(shards)
        before = _snapshot(engine)
        with pytest.raises(ValueError, match="duplicate"):
            engine.load_columnar(["x0", "x1"], {
                ("A", "B"): (np.array([0]), np.array([1.0])),
                ("B", "C"): (np.array([1, 1]), np.array([1.0, 2.0])),
            })
        assert _snapshot(engine) == before
        assert engine.query(GraphQuery([("A", "B")])).record_ids == ["r0", "r1", "r2", "r3"]

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("method", ["load_records", "append_records", "load_columnar"])
    def test_one_storage_write_and_one_epoch_bump_per_batch(self, shards, method, monkeypatch):
        engine = _with_views(shards)
        if method == "load_records":  # it maintains no views; append_records does
            engine.drop_all_views()
        writes, write = [], engine.relation.append_columns

        def counted(n_new, columns):
            writes.append(n_new)
            return write(n_new, columns)

        monkeypatch.setattr(engine.relation, "append_columns", counted)
        epoch = engine.epoch
        if method == "load_columnar":
            engine.load_columnar(["x0", "x1"], {("A", "B"): (np.array([1]), np.array([2.0]))})
        else:
            getattr(engine, method)(GraphRecord(f"x{i}", {("A", "B"): 1.0}) for i in range(2))
        assert writes == [2]
        assert engine.epoch == epoch + 1
        assert engine.n_records == 6

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("method", ["load_records", "append_records"])
    def test_a_record_stream_that_raises_changes_nothing(self, shards, method):
        def stream():
            yield GraphRecord("x0", {("A", "B"): 5.0, ("B", "C"): 1.0})
            yield GraphRecord("x1", {("X", "Y"): 1.0})
            raise OSError("the record source failed")

        engine = _with_views(shards)
        before = _snapshot(engine)
        with pytest.raises(OSError):
            getattr(engine, method)(stream())
        assert _snapshot(engine) == before


class TestQuery:
    def test_simple_match(self, engine):
        result = engine.query(GraphQuery.from_node_chain("A", "B", "C"))
        assert result.record_ids == ["r1", "r2"]

    def test_no_match(self, engine):
        result = engine.query(GraphQuery.from_node_chain("D", "A"))
        assert result.record_ids == []

    def test_unknown_edge_empty(self, engine):
        result = engine.query(GraphQuery([("NOPE", "NADA")]))
        assert len(result) == 0

    def test_measures_fetched(self, engine):
        result = engine.query(GraphQuery([("A", "B")]))
        assert result.measures[("A", "B")].tolist() == [1.0, 4.0]

    def test_fetch_measures_false(self, engine):
        result = engine.query(GraphQuery([("A", "B")]), fetch_measures=False)
        assert result.measures == {}

    def test_result_len_and_values(self, engine):
        result = engine.query(GraphQuery([("B", "C")]))
        assert len(result) == 3
        assert result.n_measure_values() == 3

    def test_expression_query(self, engine):
        a = GraphQuery([("A", "B")])
        d = GraphQuery([("C", "D")])
        result = engine.query(a & d)
        assert result.record_ids == ["r1"]
        result = engine.query(a - d)
        assert result.record_ids == ["r2"]

    def test_expression_measures_union_of_atoms(self, engine):
        a = GraphQuery([("A", "B")])
        b = GraphQuery([("B", "C")])
        result = engine.query(a | b)
        assert set(result.measures) == {("A", "B"), ("B", "C")}

    def test_evaluate_unknown_type(self, engine):
        with pytest.raises(TypeError):
            engine.evaluate("query")

    def test_matches_reference_semantics(self, engine):
        # Bitmap answers must equal per-record containment checks.
        records = [
            chain_record("r1", ["A", "B", "C", "D"], [1.0, 2.0, 3.0]),
            chain_record("r2", ["A", "B", "C"], [4.0, 5.0]),
            chain_record("r3", ["B", "C", "D", "E"], [6.0, 7.0, 8.0]),
            chain_record("r4", ["X", "Y"], [9.0]),
        ]
        for q in [
            GraphQuery([("A", "B")]),
            GraphQuery.from_node_chain("B", "C", "D"),
            GraphQuery([("X", "Y")]),
        ]:
            expected = [r.record_id for r in records if q.matches(r)]
            assert engine.query(q).record_ids == expected


class TestAggregation:
    def test_sum_along_chain(self, engine):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "sum")
        result = engine.aggregate(q)
        assert result.record_ids == ["r1", "r2"]
        values = result.path_values[Path.closed("A", "B", "C")]
        assert values.tolist() == [3.0, 9.0]

    def test_max_along_chain(self, engine):
        q = PathAggregationQuery(GraphQuery.from_node_chain("B", "C", "D"), "max")
        result = engine.aggregate(q)
        values = result.path_values[Path.closed("B", "C", "D")]
        assert values.tolist() == [3.0, 7.0]

    def test_avg(self, engine):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "avg")
        values = engine.aggregate(q).path_values[Path.closed("A", "B", "C")]
        assert values.tolist() == [1.5, 4.5]

    def test_empty_answer(self, engine):
        q = PathAggregationQuery(GraphQuery([("NOPE", "NADA")]), "sum")
        result = engine.aggregate(q)
        assert len(result) == 0

    def test_diamond_two_path_values(self):
        e = GraphAnalyticsEngine()
        e.load_records(
            [
                GraphRecord(
                    "d1",
                    {
                        ("A", "B"): 1.0,
                        ("A", "C"): 2.0,
                        ("B", "D"): 3.0,
                        ("C", "D"): 4.0,
                    },
                )
            ]
        )
        q = PathAggregationQuery(
            GraphQuery([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]), "sum"
        )
        result = e.aggregate(q)
        assert result.path_values[Path.closed("A", "B", "D")].tolist() == [4.0]
        assert result.path_values[Path.closed("A", "C", "D")].tolist() == [6.0]

    def test_node_measures_participate(self):
        e = GraphAnalyticsEngine()
        e.load_records(
            [
                GraphRecord(
                    "r",
                    {("A", "B"): 1.0, ("B", "B"): 10.0, ("B", "C"): 2.0},
                )
            ]
        )
        q = PathAggregationQuery(
            GraphQuery([("A", "B"), ("B", "B"), ("B", "C")]), "sum"
        )
        result = e.aggregate(q)
        values = result.path_values[Path.closed("A", "B", "C")]
        assert values.tolist() == [13.0]


class TestViewsEndToEnd:
    def test_graph_views_preserve_answers(self, engine):
        queries = [
            GraphQuery.from_node_chain("A", "B", "C"),
            GraphQuery.from_node_chain("B", "C", "D"),
        ]
        before = [engine.query(q).record_ids for q in queries]
        report = engine.materialize_graph_views(queries, budget=5)
        assert report.selected
        after = [engine.query(q).record_ids for q in queries]
        assert before == after

    def test_views_reduce_bitmap_fetches(self, engine):
        q = GraphQuery.from_node_chain("A", "B", "C", "D")
        engine.reset_stats()
        engine.query(q, fetch_measures=False)
        cost_before = engine.stats.structural_columns_fetched()
        engine.materialize_graph_views([q], budget=1)
        engine.reset_stats()
        engine.query(q, fetch_measures=False)
        cost_after = engine.stats.structural_columns_fetched()
        assert cost_before == 3 and cost_after == 1

    def test_aggregate_views_preserve_answers(self, engine):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "sum")
        before = engine.aggregate(q)
        engine.materialize_aggregate_views([q], budget=3)
        after = engine.aggregate(q)
        assert before.record_ids == after.record_ids
        for path, values in before.path_values.items():
            assert np.allclose(values, after.path_values[path])

    def test_aggregate_views_reduce_measure_fetches(self, engine):
        q = PathAggregationQuery(
            GraphQuery.from_node_chain("A", "B", "C", "D"), "sum"
        )
        engine.reset_stats()
        engine.aggregate(q)
        before = engine.stats.measure_fetch_columns()
        engine.materialize_aggregate_views([q], budget=2)
        engine.reset_stats()
        engine.aggregate(q)
        after = engine.stats.measure_fetch_columns()
        assert after < before

    def test_avg_query_uses_sum_view(self, engine):
        sum_q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "sum")
        engine.materialize_aggregate_views([sum_q], budget=2, function="sum")
        avg_q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "avg")
        plan = engine.plan_aggregation(avg_q)
        assert plan.structural_agg_view_names  # the sum view is used
        values = engine.aggregate(avg_q).path_values[Path.closed("A", "B", "C")]
        assert values.tolist() == [1.5, 4.5]

    def test_add_graph_view_manual(self, engine):
        name = engine.add_graph_view([("A", "B"), ("B", "C")], name="manual")
        assert name == "manual"
        assert "manual" in engine.graph_views
        plan = engine.plan_query(GraphQuery.from_node_chain("A", "B", "C"))
        assert plan.view_names == ["manual"]

    def test_view_over_unknown_edge_is_empty(self, engine):
        name = engine.add_graph_view([("A", "B"), ("NO", "PE")])
        assert engine.relation.ref_bitmap("graph-view", name).count() == 0

    def test_drop_all_views(self, engine):
        engine.add_graph_view([("A", "B"), ("B", "C")])
        engine.drop_all_views()
        assert engine.graph_views == {}
        plan = engine.plan_query(GraphQuery.from_node_chain("A", "B", "C"))
        assert plan.view_names == []

    def test_materialization_report_counts(self, engine):
        queries = [
            GraphQuery.from_node_chain("A", "B", "C"),
            GraphQuery.from_node_chain("B", "C", "D"),
        ]
        report = engine.materialize_graph_views(queries, budget=10)
        assert report.kind == "graph"
        assert report.n_candidates >= 2

    def test_materialize_methods_agree(self):
        queries = [
            GraphQuery.from_node_chain("A", "B", "C"),
            GraphQuery.from_node_chain("B", "C", "D"),
            GraphQuery.from_node_chain("A", "B", "C", "D"),
        ]
        selections = {}
        for method in ("closure", "apriori", "closed"):
            e = GraphAnalyticsEngine()
            e.load_records(
                [chain_record("r", ["A", "B", "C", "D"], [1.0, 2.0, 3.0])]
            )
            report = e.materialize_graph_views(
                queries, budget=5, method=method, min_support=1
            )
            selections[method] = {
                frozenset(v.elements) for v in e.graph_views.values()
            }
        assert selections["closure"] == selections["closed"]

    def test_unknown_method_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.materialize_graph_views([], budget=1, method="magic")


class TestStats:
    def test_reset(self, engine):
        engine.query(GraphQuery([("A", "B")]))
        engine.reset_stats()
        assert engine.stats.total_columns_fetched() == 0

    def test_disk_size(self, engine):
        assert engine.disk_size_bytes() > 0


class TestExplain:
    def test_explain_graph_query(self, engine):
        q = GraphQuery.from_node_chain("A", "B", "C")
        text = engine.explain(q)
        assert "GraphQuery" in text
        assert "SELECT recid" in text
        assert "structural columns: 2" in text

    def test_explain_shows_views(self, engine):
        q = GraphQuery.from_node_chain("A", "B", "C")
        engine.materialize_graph_views([q], budget=1)
        text = engine.explain(q)
        assert "gv1" in text
        assert "saves 1" in text

    def test_explain_aggregation(self, engine):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "sum")
        text = engine.explain(q)
        assert "PathAggregationQuery function=sum" in text
        assert "maximal paths: 1" in text

    def test_explain_rejects_other_types(self, engine):
        with pytest.raises(TypeError):
            engine.explain("A->B")
