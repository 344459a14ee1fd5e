"""Tests for relation persistence and the SQL renderer."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.columnstore import (
    Bitmap,
    MasterRelation,
    MeasureColumn,
    load_relation,
    relation_disk_usage,
    save_relation,
)
from repro.core import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
    render_aggregation,
    render_graph_query,
)


@pytest.fixture
def relation():
    rel = MasterRelation(partition_width=2)
    rel.append_columns(2, {0: ([0], [1.0]), 1: ([0, 1], [2.0, 3.0]), 2: ([1], [4.0])})
    rel.add_graph_view("gv1", Bitmap.from_indices(2, [0]))
    rel.add_aggregate_view("av1:sum", MeasureColumn.from_optionals([5.0, None]))
    return rel


class TestPersistence:
    def test_roundtrip_columns(self, relation, tmp_path):
        save_relation(relation, tmp_path / "db")
        loaded = load_relation(tmp_path / "db")
        assert loaded.n_records == 2
        assert loaded.partition_width == 2
        for edge_id in (0, 1, 2):
            assert loaded.ref_bitmap("element", edge_id) == relation.ref_bitmap("element", edge_id)
            a = relation.measures(edge_id)
            b = loaded.measures(edge_id)
            assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))

    def test_roundtrip_views(self, relation, tmp_path):
        save_relation(relation, tmp_path / "db")
        loaded = load_relation(tmp_path / "db")
        assert loaded.ref_bitmap("graph-view", "gv1") == relation.ref_bitmap("graph-view", "gv1")
        assert loaded.aggregate_view_measures("av1:sum")[0] == 5.0
        assert np.isnan(loaded.aggregate_view_measures("av1:sum")[1])

    def test_disk_usage_positive(self, relation, tmp_path):
        save_relation(relation, tmp_path / "db")
        assert relation_disk_usage(tmp_path / "db") > 0

    def test_disk_usage_grows_with_data(self, tmp_path):
        small = MasterRelation()
        small.append_columns(1, {0: ([0], [1.0])})
        save_relation(small, tmp_path / "small")
        big = MasterRelation()
        big.append_columns(200, {j: (np.arange(200), np.full(200, float(j))) for j in range(10)})
        save_relation(big, tmp_path / "big")
        assert relation_disk_usage(tmp_path / "big") > relation_disk_usage(
            tmp_path / "small"
        )


# Integer node labels and record ids; node 2 carries its own measure, so
# SUM along 1 -> 2 -> 3 is 1 + 5 + 2 on record 7.
TYPED_JSONL = (
    '{"id": 7, "measures": [[1, 2, 1.0], [2, 2, 5.0], [2, 3, 2.0]]}\n'
    '{"id": 8, "measures": [[1, 2, 4.0]]}\n'
)
SUM_1_2_3 = PathAggregationQuery(GraphQuery.from_node_chain(1, 2, 3), "sum")


def _typed_records() -> list[GraphRecord]:
    return [
        GraphRecord(7, {(1, 2): 1.0, (2, 2): 5.0, (2, 3): 2.0}),
        GraphRecord(8, {(1, 2): 4.0}),
    ]


def _sum_answer(result) -> tuple[list, list]:
    return result.record_ids, [v.tolist() for v in result.path_values.values()]


class TestSaveLoadKeepsAnswers:
    """Saving and reloading an engine changes none of its answers: record
    ids keep their JSON type, and a node with its own measure stays
    measured."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_integer_labels_and_ids_survive_save_load(self, tmp_path, shards):
        engine = GraphAnalyticsEngine(shards=shards)
        engine.load_records(_typed_records())
        assert _sum_answer(engine.aggregate(SUM_1_2_3)) == ([7], [[8.0]])
        engine.save(tmp_path / "db")
        loaded = GraphAnalyticsEngine.load(tmp_path / "db", shards=shards)
        assert loaded.n_shards == shards
        assert loaded.measured_nodes == engine.measured_nodes == {2}
        assert _sum_answer(loaded.aggregate(SUM_1_2_3)) == ([7], [[8.0]])
        assert loaded.query(GraphQuery([(1, 2)])).record_ids == [7, 8]

    def test_a_save_that_carries_measured_nodes_loads(self, tmp_path):
        engine = GraphAnalyticsEngine()
        engine.load_records(_typed_records())
        engine.save(tmp_path / "db")
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["app_meta"]["measured_nodes"] = ["2"]
        manifest_path.write_text(json.dumps(manifest))
        loaded = GraphAnalyticsEngine.load(tmp_path / "db")
        assert loaded.measured_nodes == {2}
        assert _sum_answer(loaded.aggregate(SUM_1_2_3)) == ([7], [[8.0]])

    def test_ids_json_cannot_hold_load_as_their_str(self, tmp_path):
        engine = GraphAnalyticsEngine()
        engine.load_records(
            [GraphRecord(("a", 1), {("A", "B"): 1.0}), GraphRecord(None, {("A", "B"): 2.0})]
        )
        engine.save(tmp_path / "db")
        loaded = GraphAnalyticsEngine.load(tmp_path / "db")
        assert loaded.query(GraphQuery([("A", "B")])).record_ids == ["('a', 1)", None]

    def test_a_daemon_serving_a_loaded_database_answers_typed(self, tmp_path):
        from repro.cli import main
        from repro.exec import QueryExecutor
        from repro.serve import ServeClient, start_in_thread

        source = tmp_path / "typed.jsonl"
        source.write_text(TYPED_JSONL)
        assert main(["load", str(source), str(tmp_path / "db")]) == 0
        executor = QueryExecutor(GraphAnalyticsEngine.load(tmp_path / "db"))
        handle = start_in_thread(executor)
        try:
            with ServeClient(*handle.address) as client:
                answer = client.aggregate({"elements": [[1, 2], [2, 3]], "function": "sum"})
                assert _sum_answer(answer) == ([7], [[8.0]])
                assert client.query({"elements": [[1, 2]]}).record_ids == [7, 8]
        finally:
            handle.stop()
            executor.close()


class TestSqlGeneration:
    @pytest.fixture
    def engine(self):
        e = GraphAnalyticsEngine()
        e.load_records(
            [
                GraphRecord("r1", {("A", "B"): 1.0, ("B", "C"): 2.0, ("C", "D"): 3.0}),
            ]
        )
        return e

    def test_plain_query_sql(self, engine):
        plan = engine.plan_query(GraphQuery.from_node_chain("A", "B", "C"))
        sql = render_graph_query(plan, engine.catalog)
        assert sql.startswith("SELECT recid, m0, m1")
        assert "WHERE b0 = 1 AND b1 = 1" in sql
        assert "JOIN" not in sql  # the paper's no-join selling point

    def test_view_rewritten_sql(self, engine):
        q = GraphQuery.from_node_chain("A", "B", "C")
        engine.materialize_graph_views([q], budget=1)
        plan = engine.plan_query(q)
        sql = render_graph_query(plan, engine.catalog)
        assert "gv1 = 1" in sql
        assert "b0" not in sql.split("WHERE")[1]

    def test_aggregation_sql_sum_uses_plus(self, engine):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "sum")
        plan = engine.plan_aggregation(q)
        sql = render_aggregation(plan, engine.catalog)
        assert "m0 + m1 AS path0_sum" in sql

    def test_aggregation_sql_with_view(self, engine):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "sum")
        engine.materialize_aggregate_views([q], budget=1)
        plan = engine.plan_aggregation(q)
        sql = render_aggregation(plan, engine.catalog)
        assert "mp_av" in sql
        assert "bp_av" in sql

    def test_aggregation_sql_non_sum_uses_function(self, engine):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C"), "max")
        plan = engine.plan_aggregation(q)
        sql = render_aggregation(plan, engine.catalog)
        assert "MAX(m0, m1)" in sql

    def test_unknown_edge_rendered_with_placeholder(self, engine):
        plan = engine.plan_query(GraphQuery([("Z", "Q")]))
        sql = render_graph_query(plan, engine.catalog)
        assert "b?" in sql


# Runs in a fresh interpreter: VmHWM is a high-water mark, so the floor has
# to be read before anything is loaded and nothing else may share the process.
_LOAD_PROBE = """
import json, sys
from repro.core import GraphAnalyticsEngine

def hwm_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))

floor = hwm_kb()
engine = GraphAnalyticsEngine.load(sys.argv[1], shards=4)
print(json.dumps({"grew": (hwm_kb() - floor) * 1024, "disk": engine.disk_size_bytes()}))
"""


class TestLoadFootprint:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
    )
    def test_load_peak_stays_near_the_store_size(self, tmp_path):
        """Loading and resharding may peak at no more than three times what
        the relation occupies on disk: a dense ``records × columns``
        intermediate or a boxed Python cell list costs ten times that, and
        must fail here rather than in the benchmark's ``daemon_rss_mb``."""
        n_records, n_columns = 30_000, 300
        rng = np.random.default_rng(16)
        columns = {}
        for i in range(n_columns):
            rows = np.nonzero(rng.random(n_records) < 0.07)[0]
            columns[(f"n{i}", f"n{i + 1}")] = (rows, rng.random(rows.size))
        engine = GraphAnalyticsEngine()
        engine.load_columnar(list(range(n_records)), columns)
        engine.save(tmp_path / "db")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        probe = subprocess.run(
            [sys.executable, "-c", _LOAD_PROBE, str(tmp_path / "db")],
            env=env, capture_output=True, text=True, check=True,
        )
        report = json.loads(probe.stdout)
        assert report["grew"] <= 3 * report["disk"], report
