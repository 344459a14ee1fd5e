"""Tests for view definitions, monotonicity (supersession) predicates, and
when the planner that runs uses a view."""

from __future__ import annotations

import pytest

from repro.core import (
    AggregateGraphView,
    GraphQuery,
    GraphView,
    Path,
    PathAggregationQuery,
    graph_view_supersedes,
)
from repro.core.rewrite import plan_aggregation, plan_graph_query


def _agg_views_placed(query: PathAggregationQuery, *paths: Path) -> list[str]:
    """The aggregate views over ``paths`` that the rewrite places for ``query``."""
    views = {
        f"av{i}": AggregateGraphView(f"av{i}", path, query.function)
        for i, path in enumerate(paths)
    }
    return plan_aggregation(query, views, {}).structural_agg_view_names


def _columns_saved(path: Path, query: PathAggregationQuery) -> int:
    """Bitmap plus measure columns a view over ``path`` saves ``query``, by
    the plan that runs."""

    def cost(views) -> int:
        plan = plan_aggregation(query, views, {})
        return plan.n_structural_columns() + plan.n_measure_columns()

    return cost({}) - cost({"av": AggregateGraphView("av", path, query.function)})


class TestGraphView:
    def test_basic(self):
        view = GraphView("v", [("A", "B"), ("B", "C")])
        assert len(view.elements) == 2

    def test_single_element_rejected(self):
        with pytest.raises(ValueError):
            GraphView("v", [("A", "B")])

    def test_usable_for_subset_queries_only(self):
        views = {"v": GraphView("v", [("A", "B"), ("B", "C")])}
        superset = GraphQuery([("A", "B"), ("B", "C"), ("C", "D")])
        partial = GraphQuery([("A", "B"), ("X", "Y")])
        assert plan_graph_query(superset, views).view_names == ["v"]
        assert plan_graph_query(partial, views).view_names == []

    def test_saving_is_size_minus_one(self):
        views = {"v": GraphView("v", [("A", "B"), ("B", "C"), ("C", "D")])}
        q = GraphQuery([("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")])
        assert plan_graph_query(q, views).saved_columns() == 2
        assert plan_graph_query(GraphQuery([("X", "Y")]), views).saved_columns() == 0

    def test_equality(self):
        assert GraphView("v", [("A", "B"), ("B", "C")]) == GraphView(
            "v", [("B", "C"), ("A", "B")]
        )


class TestGraphViewSupersession:
    AB, BC, CD = ("A", "B"), ("B", "C"), ("C", "D")

    def test_larger_view_supersedes_when_cooccurring(self):
        # Every query containing {AB} also contains {AB, BC}.
        workload = [GraphQuery([self.AB, self.BC, self.CD])]
        assert graph_view_supersedes({self.AB, self.BC}, {self.AB, self.CD}, workload) is False
        assert graph_view_supersedes(
            {self.AB, self.BC}, {self.AB}, workload
        )

    def test_no_supersession_when_query_separates(self):
        # One query has AB without BC, so {AB,BC} does not supersede {AB}.
        workload = [
            GraphQuery([self.AB, self.BC]),
            GraphQuery([self.AB, self.CD]),
        ]
        assert not graph_view_supersedes({self.AB, self.BC}, {self.AB}, workload)

    def test_requires_strict_subset(self):
        workload = [GraphQuery([self.AB, self.BC])]
        assert not graph_view_supersedes({self.AB}, {self.AB}, workload)
        assert not graph_view_supersedes({self.AB}, {self.AB, self.BC}, workload)

    def test_paper_claim_query_not_superseded_by_superquery(self):
        # Section 5.2: Gqi ⊂ Gqj does not imply the view Gqi is superseded
        # by Gqj — query Gqi itself separates them.
        small = GraphQuery([self.AB, self.BC])
        big = GraphQuery([self.AB, self.BC, self.CD])
        workload = [small, big]
        assert not graph_view_supersedes(big.elements, small.elements, workload)


class TestAggregateGraphView:
    def test_distributive_stores_itself(self):
        view = AggregateGraphView("av", Path.closed("A", "B", "C"), "sum")
        assert view.stored_functions() == ("sum",)
        assert view.column_names() == ("av:sum",)

    def test_algebraic_stores_sub_aggregates(self):
        view = AggregateGraphView("av", Path.closed("A", "B", "C"), "avg")
        assert view.stored_functions() == ("sum", "count")

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError):
            AggregateGraphView("av", Path.closed("A", "B"), "median")

    def test_elements_include_measured_nodes(self):
        view = AggregateGraphView("av", Path.closed("A", "B"), "sum")
        assert view.elements({"B"}) == (("A", "B"), ("B", "B"))

    def test_usable_for_contiguous_occurrence(self):
        q = PathAggregationQuery(
            GraphQuery.from_node_chain("A", "C", "E", "F", "G"), "sum"
        )
        assert _agg_views_placed(q, Path.closed("E", "F", "G")) == ["av0"]

    def test_not_usable_for_disconnected_elements(self):
        q = PathAggregationQuery(GraphQuery.from_node_chain("E", "F"), "sum")
        assert _agg_views_placed(q, Path.closed("E", "F", "G")) == []


class TestPathOccursIn:
    """A view's path is placed only where its node sequence occurs
    contiguously on a maximal path of the query."""

    def test_occurs(self):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C", "D"))
        assert _agg_views_placed(q, Path.closed("B", "C", "D")) == ["av0"]

    def test_does_not_occur_noncontiguously(self):
        # B and D are both in the query but B,D is not a query path.
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B", "C", "D"))
        assert _agg_views_placed(q, Path.closed("B", "D")) == []

    def test_diamond_branch(self):
        q = PathAggregationQuery(
            GraphQuery([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        )
        assert _agg_views_placed(q, Path.closed("A", "B", "D")) == ["av0"]
        assert _agg_views_placed(q, Path.closed("B", "C")) == []


class TestAggregateBenefit:
    def test_benefit_grows_with_length(self):
        q = PathAggregationQuery(
            GraphQuery.from_node_chain("A", "B", "C", "D", "E"), "sum"
        )
        short = _columns_saved(Path.closed("A", "B", "C"), q)
        long = _columns_saved(Path.closed("A", "B", "C", "D"), q)
        assert long > short > 0

    def test_benefit_zero_when_unusable(self):
        q = PathAggregationQuery(GraphQuery.from_node_chain("A", "B"), "sum")
        assert _columns_saved(Path.closed("X", "Y", "Z"), q) == 0

    def test_monotonicity_property(self):
        # p1 ⊆ p2 ⊆ pq implies benefit(p1) <= benefit(p2)  (Section 5.4).
        q = PathAggregationQuery(
            GraphQuery.from_node_chain("A", "B", "C", "D", "E"), "sum"
        )
        p1 = Path.closed("B", "C")
        p2 = Path.closed("B", "C", "D")
        p3 = Path.closed("A", "B", "C", "D", "E")
        b1, b2, b3 = (_columns_saved(p, q) for p in (p1, p2, p3))
        assert b1 <= b2 <= b3
