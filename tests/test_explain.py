"""Golden-plan snapshot tests for EXPLAIN.

Each scenario renders a plan for the paper's Figure 2 corpus (the bundled
``examples/figure2.jsonl`` dataset) and compares it byte-for-byte against
a checked-in snapshot under ``tests/goldens/``.  Plans are deterministic
by construction — sorted element/view orders, no timings — so any diff is
a real planner or renderer change.  Regenerate intentionally with::

    pytest tests/test_explain.py --update-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import GraphAnalyticsEngine
from repro.lang import parse_aggregation, parse_query
from repro.io import read_jsonl
from repro.obs import explain, explain_dict

GOLDEN_DIR = Path(__file__).parent / "goldens"
EXAMPLES = Path(__file__).parent.parent / "examples"


def check_golden(name: str, actual: str, update: bool) -> None:
    path = GOLDEN_DIR / name
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual + "\n")
        pytest.skip(f"golden {name} updated")
    assert path.exists(), (
        f"missing golden {path}; run pytest --update-goldens to create it"
    )
    assert actual + "\n" == path.read_text(), (
        f"plan for {name} changed; rerun with --update-goldens if intended"
    )


@pytest.fixture
def fig2_engine() -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine()
    engine.load_records(read_jsonl(EXAMPLES / "figure2.jsonl"))
    engine.materialize_graph_views(
        [parse_query("A -> D -> E"), parse_query("A -> D -> E -> F")],
        budget=2,
    )
    engine.materialize_aggregate_views(
        [parse_aggregation("SUM E -> F -> G")], budget=2
    )
    return engine


class TestGraphQueryGoldens:
    def test_view_rewrite_text(self, fig2_engine, update_goldens):
        text = explain(fig2_engine, parse_query("A -> D -> E"))
        check_golden("explain_graph_view.txt", text, update_goldens)

    def test_view_plus_residual_text(self, fig2_engine, update_goldens):
        text = explain(fig2_engine, parse_query("A -> D -> E -> F -> G"))
        check_golden("explain_graph_residual.txt", text, update_goldens)

    def test_no_views_text(self, update_goldens):
        engine = GraphAnalyticsEngine()
        engine.load_records(read_jsonl(EXAMPLES / "figure2.jsonl"))
        text = explain(engine, parse_query("A -> D -> E"))
        check_golden("explain_graph_base.txt", text, update_goldens)

    def test_unindexed_element_text(self, fig2_engine, update_goldens):
        text = explain(fig2_engine, parse_query("X -> Y"))
        check_golden("explain_graph_unindexed.txt", text, update_goldens)

    def test_json(self, fig2_engine, update_goldens):
        out = explain(fig2_engine, parse_query("A -> D -> E"), fmt="json")
        check_golden("explain_graph_view.json", out, update_goldens)


class TestAggregationGoldens:
    def test_aggregate_view_text(self, fig2_engine, update_goldens):
        text = explain(fig2_engine, parse_aggregation("SUM E -> F -> G"))
        check_golden("explain_agg_view.txt", text, update_goldens)

    def test_raw_tiling_text(self, fig2_engine, update_goldens):
        text = explain(fig2_engine, parse_aggregation("AVG A -> D -> E"))
        check_golden("explain_agg_raw.txt", text, update_goldens)

    def test_json(self, fig2_engine, update_goldens):
        out = explain(fig2_engine, parse_aggregation("SUM E -> F -> G"), fmt="json")
        check_golden("explain_agg_view.json", out, update_goldens)


class TestAnalyzeGolden:
    def test_analyze_text_is_deterministic(self, fig2_engine, update_goldens):
        # EXPLAIN ANALYZE text shows counters but no timings, so it is as
        # goldenable as the plain plan.
        text = explain(fig2_engine, parse_query("A -> D -> E"), analyze=True)
        check_golden("explain_graph_analyze.txt", text, update_goldens)


class TestExplainContract:
    def test_two_renders_identical(self, fig2_engine):
        query = parse_query("A -> D -> E -> F -> G")
        assert explain(fig2_engine, query) == explain(fig2_engine, query)
        assert explain(fig2_engine, query, fmt="json") == explain(
            fig2_engine, query, fmt="json"
        )

    def test_explain_moves_no_io_counters(self, fig2_engine):
        fig2_engine.reset_stats()
        explain(fig2_engine, parse_query("A -> D -> E -> F -> G"))
        explain(fig2_engine, parse_aggregation("SUM E -> F -> G"))
        assert fig2_engine.stats.total_columns_fetched() == 0

    def test_analyze_attaches_execution(self, fig2_engine):
        plan = explain_dict(
            fig2_engine, parse_query("A -> D -> E"), analyze=True
        )
        execution = plan["execution"]
        assert execution["result_records"] == 3
        assert execution["counters"]["rows_matched"] == 3
        assert execution["trace"]["root"]["name"] == "query"

    def test_unknown_format_rejected(self, fig2_engine):
        with pytest.raises(ValueError):
            explain(fig2_engine, parse_query("A -> D -> E"), fmt="yaml")

    def test_non_query_rejected(self, fig2_engine):
        with pytest.raises(TypeError):
            explain(fig2_engine, "not a query")

    def test_engine_explain_delegates(self, fig2_engine):
        query = parse_query("A -> D -> E")
        assert fig2_engine.explain(query) == explain(fig2_engine, query)

    def test_json_golden_is_valid_json(self, fig2_engine):
        payload = json.loads(
            explain(fig2_engine, parse_query("A -> D -> E"), fmt="json")
        )
        assert payload["type"] == "graph-query"


class TestPhysicalPlanIsSourceOfTruth:
    """EXPLAIN must render the *same* PhysicalPlan object the operator
    layer executes — not an independently re-derived plan."""

    def test_executed_plan_is_explained_plan(self, fig2_engine):
        query = parse_query("A -> D -> E")
        physical = fig2_engine.physical_plan(query)
        # The executed query carries the identical logical plan object,
        # and explain_dict is exactly the physical plan's own IR.
        assert fig2_engine.query(query).plan is physical.logical
        assert explain_dict(fig2_engine, query) == physical.to_dict()

    def test_aggregation_plan_identity(self, fig2_engine):
        query = parse_aggregation("SUM E -> F -> G")
        physical = fig2_engine.physical_plan(query)
        assert fig2_engine.aggregate(query).plan is physical.logical
        assert explain_dict(fig2_engine, query) == physical.to_dict()

    def test_memo_invalidated_on_mutation(self, fig2_engine):
        from repro.core import GraphRecord

        query = parse_query("A -> D -> E")
        before = fig2_engine.physical_plan(query)
        fig2_engine.append_records(
            [GraphRecord("extra", {("A", "D"): 1.0, ("D", "E"): 2.0})]
        )
        after = fig2_engine.physical_plan(query)
        assert after is not before
        assert after.epoch > before.epoch

    def test_analyze_does_not_pollute_memo(self, fig2_engine):
        query = parse_query("A -> D -> E")
        explain_dict(fig2_engine, query, analyze=True)
        # The analyze annotation edits a deep copy, never the memoized IR.
        assert "execution" not in fig2_engine.physical_plan(query).to_dict()

    def test_plan_reports_shard_count(self):
        engine = GraphAnalyticsEngine(shards=3)
        engine.load_records(read_jsonl(EXAMPLES / "figure2.jsonl"))
        plan = explain_dict(engine, parse_query("A -> D -> E"))
        assert plan["shards"] == 3
        assert "shards: 3 (record-range parallel)" in explain(
            engine, parse_query("A -> D -> E")
        )
