"""Tests for the query DSL parser."""

from __future__ import annotations

import pytest

from repro.core import And, AndNot, GraphQuery, Or
from repro.lang import QuerySyntaxError, parse_aggregation, parse_query


class TestChains:
    def test_simple_chain(self):
        q = parse_query("A -> D -> E")
        assert q == GraphQuery.from_node_chain("A", "D", "E")

    def test_whitespace_insensitive(self):
        assert parse_query("A->D->E") == parse_query("  A  ->  D  ->  E ")

    def test_numeric_and_dashed_names(self):
        q = parse_query("hub-1 -> hub_2 -> 42")
        assert ("hub-1", "hub_2") in q.elements

    def test_quoted_names(self):
        q = parse_query("'New York' -> 'Los Angeles'")
        assert q.elements == {("New York", "Los Angeles")}

    def test_single_node_rejected_with_hint(self):
        with pytest.raises(QuerySyntaxError, match=r"\{\(X,X\)\}"):
            parse_query("A")


class TestElementSets:
    def test_explicit_elements(self):
        q = parse_query("{(C,H), (F,J), (J,K)}")
        assert q == GraphQuery([("C", "H"), ("F", "J"), ("J", "K")])

    def test_self_pair_is_node_measure(self):
        q = parse_query("{(D,D)}")
        assert q.measured_nodes() == {"D"}

    def test_missing_brace(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("{(A,B)")

    def test_malformed_pair(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("{(A B)}")


class TestBooleans:
    def test_and(self):
        expr = parse_query("A->B AND C->D")
        assert isinstance(expr, And)
        assert expr.left == GraphQuery([("A", "B")])

    def test_or(self):
        assert isinstance(parse_query("A->B OR C->D"), Or)

    def test_and_not(self):
        expr = parse_query("A->B AND NOT C->D")
        assert isinstance(expr, AndNot)

    def test_keywords_case_insensitive(self):
        assert isinstance(parse_query("A->B and not C->D"), AndNot)

    def test_precedence_and_binds_tighter(self):
        expr = parse_query("A->B OR C->D AND E->F")
        assert isinstance(expr, Or)
        assert isinstance(expr.right, And)

    def test_grouping(self):
        expr = parse_query("(A->B OR C->D) AND NOT {(E,F)}")
        assert isinstance(expr, AndNot)
        assert isinstance(expr.left, Or)

    def test_chained_booleans(self):
        expr = parse_query("A->B AND C->D AND E->F")
        assert isinstance(expr, And)
        assert isinstance(expr.left, And)


class TestAggregations:
    def test_sum_chain(self):
        agg = parse_aggregation("SUM A -> C -> E -> F")
        assert agg.function == "sum"
        assert agg.query == GraphQuery.from_node_chain("A", "C", "E", "F")

    def test_all_builtin_functions(self):
        for fn in ("SUM", "MIN", "MAX", "COUNT", "AVG", "sum", "Avg"):
            agg = parse_aggregation(f"{fn} A -> B")
            assert agg.function == fn.lower()

    def test_elements_aggregation(self):
        agg = parse_aggregation("MAX {(A,B), (B,C)}")
        assert agg.function == "max"

    def test_missing_function(self):
        with pytest.raises(QuerySyntaxError, match="function name"):
            parse_aggregation("A -> B")

    def test_boolean_aggregation_rejected(self):
        with pytest.raises(QuerySyntaxError, match="single graph query"):
            parse_aggregation("SUM A->B OR C->D")


class TestErrors:
    def test_empty(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("")

    def test_garbage_character(self):
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            parse_query("A -> B; DROP TABLE")

    def test_trailing_tokens(self):
        with pytest.raises(QuerySyntaxError, match="unexpected"):
            parse_query("A->B C->D")

    def test_dangling_arrow(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("A ->")

    def test_unbalanced_paren(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("(A->B")


class TestEndToEnd:
    def test_parsed_queries_run(self, figure2_engine):
        result = figure2_engine.query(parse_query("A -> D -> E"))
        assert result.record_ids == ["r1", "r2", "r3"]
        result = figure2_engine.query(parse_query("{(E,F)} AND NOT {(A,B)}"))
        assert result.record_ids == ["r2", "r3"]

    def test_parsed_aggregation_runs(self, figure2_engine):
        result = figure2_engine.aggregate(parse_aggregation("SUM A -> C -> E -> F"))
        assert result.record_ids == ["r2"]
        values = next(iter(result.path_values.values()))
        assert values.tolist() == [7.0]
