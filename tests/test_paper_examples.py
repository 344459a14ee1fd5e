"""Exact reproduction of the paper's worked examples.

* Table 1: master-relation content for the three Figure 2 records —
  measures, bitmaps, the graph view bv1 over {e1..e4} and the aggregate
  view (mp1, bp1) for path p1 = [e6, e7] with SUM.
* Section 2's SCM queries Q1/Q2 in miniature.
* Section 3.4's path-aggregation example: SUM over (A,C,E,F) retrieves
  record 2 with value 7.
"""

from __future__ import annotations

import numpy as np

from repro.core import GraphQuery, Path, PathAggregationQuery

from .conftest import FIGURE2_EDGES, FIGURE2_MEASURES


class TestTable1:
    def test_bitmap_columns(self, figure2_engine):
        # b1..b7 per Table 1, rows r1, r2, r3.
        expected = {
            1: [1, 0, 0],
            2: [1, 1, 0],
            3: [1, 1, 0],
            4: [1, 1, 1],
            5: [1, 1, 1],
            6: [0, 1, 1],
            7: [0, 1, 1],
        }
        for paper_id, bits in expected.items():
            edge = FIGURE2_EDGES[paper_id]
            edge_id = figure2_engine.catalog.id_of(edge)
            bitmap = figure2_engine.relation.ref_bitmap("element", edge_id)
            assert bitmap.to_bools().astype(int).tolist() == bits, paper_id

    def test_measure_columns(self, figure2_engine):
        for paper_id, edge in FIGURE2_EDGES.items():
            edge_id = figure2_engine.catalog.id_of(edge)
            values = figure2_engine.relation.measures(edge_id)
            for row, rid in enumerate(["r1", "r2", "r3"]):
                expected = FIGURE2_MEASURES[rid].get(paper_id)
                if expected is None:
                    assert np.isnan(values[row])
                else:
                    assert values[row] == expected

    def test_graph_view_bv1(self, figure2_engine):
        # bv1 = AND(b1..b4): only r1 contains e1..e4.
        elements = [FIGURE2_EDGES[i] for i in (1, 2, 3, 4)]
        name = figure2_engine.add_graph_view(elements)
        bitmap = figure2_engine.relation.ref_bitmap("graph-view", name)
        assert bitmap.to_bools().astype(int).tolist() == [1, 0, 0]

    def test_aggregate_view_mp1_bp1(self, figure2_engine):
        # p1 = [e6, e7] = path E->F->G with SUM: mp1 = (NULL, 5, 4),
        # bp1 = (0, 1, 1) per Table 1 / Section 5.1.3.
        workload = [
            PathAggregationQuery(GraphQuery.from_node_chain("E", "F", "G"), "sum")
        ]
        report = figure2_engine.materialize_aggregate_views(workload, budget=1)
        assert len(report.selected) == 1
        name = report.selected[0]
        column = f"{name}:sum"
        bp = figure2_engine.relation.ref_bitmap("agg-view", column)
        assert bp.to_bools().astype(int).tolist() == [0, 1, 1]
        mp = figure2_engine.relation.aggregate_view_measures(column)
        assert np.isnan(mp[0])
        assert mp[1] == 5.0 and mp[2] == 4.0


class TestSection34:
    def test_sum_over_acef_retrieves_record2_with_7(self, figure2_engine):
        # SUM_(A,C,E,F) -> record 2 only, aggregate 1 + 2 + 4 = 7.
        query = PathAggregationQuery(
            GraphQuery.from_node_chain("A", "C", "E", "F"), "sum"
        )
        result = figure2_engine.aggregate(query)
        assert result.record_ids == ["r2"]
        path = Path.closed("A", "C", "E", "F")
        assert result.path_values[path].tolist() == [7.0]


class TestBooleanFormulas:
    def test_and_or_andnot(self, figure2_engine):
        has_e1 = GraphQuery([FIGURE2_EDGES[1]])
        has_e6 = GraphQuery([FIGURE2_EDGES[6]])
        # r1 has e1; r2, r3 have e6; nobody has both.
        assert figure2_engine.evaluate(has_e1 & has_e6).count() == 0
        assert figure2_engine.evaluate(has_e1 | has_e6).count() == 3
        both = figure2_engine.evaluate(has_e6 - has_e1)
        assert both.to_bools().astype(int).tolist() == [0, 1, 1]

    def test_exclusion_example(self, figure2_engine):
        # "Retrieve orders through D->E but exclude those through E->F":
        via_de = GraphQuery([FIGURE2_EDGES[5]])
        via_ef = GraphQuery([FIGURE2_EDGES[6]])
        result = figure2_engine.query(via_de - via_ef)
        assert result.record_ids == ["r1"]


class TestFigure2ViewSelection:
    def test_closure_candidates_for_record_queries(self, figure2_queries):
        from repro.core import intersection_closure_candidates

        cands = intersection_closure_candidates(figure2_queries)
        # r2 ∩ r3 = {e4..e7}; r1 ∩ r2 = {e2..e5}; r1 ∩ r3 = {e4, e5}.
        e = FIGURE2_EDGES
        assert frozenset([e[4], e[5], e[6], e[7]]) in cands
        assert frozenset([e[2], e[3], e[4], e[5]]) in cands
        # {e4,e5} = r1∩r3 is NOT superseded ({e4..e7} misses r1).
        assert frozenset([e[4], e[5]]) in cands

    def test_materialized_views_answer_queries_identically(
        self, figure2_engine, figure2_queries
    ):
        baseline = [figure2_engine.query(q).record_ids for q in figure2_queries]
        figure2_engine.materialize_graph_views(figure2_queries, budget=10)
        with_views = [figure2_engine.query(q).record_ids for q in figure2_queries]
        assert baseline == with_views
