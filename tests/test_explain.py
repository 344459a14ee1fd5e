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
import sys
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
    """EXPLAIN must describe the *same* PhysicalPlan object the interpreter
    executes — the memoized one — not an independently re-derived plan."""

    @staticmethod
    def _explain_without_planning(engine, query, monkeypatch) -> dict:
        def no_planning(query):
            raise AssertionError(f"EXPLAIN re-planned {query!r}")

        monkeypatch.setattr(engine._planner, "_plan", no_planning)
        return explain_dict(engine, query)

    def test_executed_plan_is_explained_plan(self, fig2_engine, monkeypatch):
        query = parse_query("A -> D -> E")
        physical = fig2_engine.physical_plan(query)
        assert fig2_engine.query(query).plan is physical.logical
        plan = self._explain_without_planning(fig2_engine, query, monkeypatch)
        assert [part["token"] for part in plan["conjunction"]] == [
            part.token for part in physical.parts
        ]
        assert plan["views"] == [{"name": "gv1", "covers": ["A->D", "D->E"]}]

    def test_aggregation_plan_identity(self, fig2_engine, monkeypatch):
        query = parse_aggregation("SUM E -> F -> G")
        physical = fig2_engine.physical_plan(query)
        assert fig2_engine.aggregate(query).plan is physical.logical
        plan = self._explain_without_planning(fig2_engine, query, monkeypatch)
        assert [part["token"] for part in plan["conjunction"]] == [
            part.token for part in physical.parts
        ]
        assert [v["name"] for v in plan["aggregate_views"]] == (
            physical.logical.structural_agg_view_names
        )

    def test_memo_invalidated_on_mutation(self, fig2_engine):
        from repro.core import GraphRecord

        query = parse_query("A -> D -> E")
        before = fig2_engine.physical_plan(query)
        fig2_engine.append_records(
            [GraphRecord("extra", {("A", "D"): 1.0, ("D", "E"): 2.0})]
        )
        after = fig2_engine.physical_plan(query)
        assert after is not before
        assert fig2_engine.query(query).plan is after.logical

    def test_analyze_does_not_pollute_memo(self, fig2_engine):
        query = parse_query("A -> D -> E")
        plain = explain_dict(fig2_engine, query)
        assert "execution" in explain_dict(fig2_engine, query, analyze=True)
        assert explain_dict(fig2_engine, query) == plain


class TestExplainIsBuiltOnDemand:
    """Only EXPLAIN renders SQL: a cold plan executes without it."""

    def test_queries_answer_when_sql_rendering_fails(self, fig2_engine, monkeypatch):
        from repro.core import sqlgen

        def refuse(*args):
            raise RuntimeError("SQL rendered outside EXPLAIN")

        # Every module that bound a renderer by name, wherever it lives.
        for name in ("render_graph_query", "render_aggregation"):
            renderer = getattr(sqlgen, name)
            for module in list(sys.modules.values()):
                if vars(module).get(name) is renderer:
                    monkeypatch.setattr(module, name, refuse)
        query = parse_query("A -> D -> E")
        aggregation = parse_aggregation("SUM E -> F -> G")
        fig2_engine._planner.invalidate()
        assert len(fig2_engine.query(query)) == 3
        assert len(fig2_engine.aggregate(aggregation)) > 0
        for q in (query, aggregation):
            with pytest.raises(RuntimeError, match="outside EXPLAIN"):
                explain_dict(fig2_engine, q)
