"""Golden round-trip tests for the query language (paper queries).

Pins, for a corpus of Figure 2 / paper-style queries:

* the canonical text of each query (``tests/goldens/lang_canonical.txt``)
  — the spelling EXPLAIN prints and ``repro fmt`` writes;
* the round-trip law ``parse(unparse(q)) == q``;
* EXPLAIN round-trips: the ``query:`` line of the text rendering (and
  the ``query_text`` key of the JSON rendering, and the ``"query"``
  field of the ``/explain`` HTTP response) re-parses to a query whose
  physical plan is identical to the original's.
"""

from __future__ import annotations

import json

import pytest

from repro.core import GraphAnalyticsEngine, GraphQuery
from repro.lang import canonical, parse_statement, unparse
from repro.obs import explain, explain_dict

from .test_explain import check_golden

# The paper's running example (Figure 2) and the constructs its algebra
# adds on top: open/half-open paths, measured markers, composite steps,
# path joins, element sets, and boolean combinations.
PAPER_QUERIES = [
    # Figure 2 / Q1-style path queries
    "A -> D -> E",
    "E -> F -> G",
    "A -> D -> E -> F",
    "A -> D -> E -> F -> G",
    # element sets (Q2-style legs) and node measures
    "{(C,H), (F,J), (J,K)}",
    "{(D,D)}",
    # measured markers and endpoint openness (Section 3.3 brackets)
    "A -> D! -> E",
    "A! -> D -> E!",
    "-> A -> D -> E ->",
    "A -> D! -> E ->",
    # composite paths and the path-join operator
    "[A, C] -> E",
    "A -> B -> F -> JOIN F! -> J -> K",
    # booleans over answer sets
    "A->B AND C->D",
    "A->B OR C->D AND NOT {(E,F)}",
    "(A->B OR C->D) AND NOT {(E,F)}",
    # aggregations (Section 3.4)
    "SUM A -> C -> E -> F",
    "avg {(A,B), (B,C)}",
    "MAX A -> D! -> E",
    # quoting
    "'New York' -> 'Los Angeles'",
    "hub-1 -> hub_2 -> 42",
]


class TestPaperQueryGoldens:
    def test_canonical_text_is_stable(self, update_goldens):
        lines = [f"{text}\n  => {canonical(text)}" for text in PAPER_QUERIES]
        check_golden("lang_canonical.txt", "\n".join(lines), update_goldens)

    @pytest.mark.parametrize("text", PAPER_QUERIES)
    def test_roundtrip_law(self, text):
        query = parse_statement(text)
        assert parse_statement(unparse(query)) == query

    @pytest.mark.parametrize("text", PAPER_QUERIES)
    def test_canonical_is_idempotent(self, text):
        once = canonical(text)
        assert canonical(once) == once
        assert parse_statement(once) == parse_statement(text)


EXPLAIN_QUERIES = [
    "A -> D -> E",
    "SUM E -> F -> G",
    "A -> D! -> E",
]


class TestExplainRoundtrip:
    def test_text_query_line_reparses_to_same_plan(self, figure2_engine):
        for text in EXPLAIN_QUERIES:
            query = parse_statement(text)
            rendered = explain(figure2_engine, query, fmt="text")
            first = rendered.splitlines()[0]
            assert first.startswith("query: ")
            reparsed = parse_statement(first[len("query: "):])
            assert reparsed == query
            assert explain_dict(figure2_engine, reparsed) == explain_dict(
                figure2_engine, query
            )

    def test_json_query_text_reparses_to_same_plan(self, figure2_engine):
        for text in EXPLAIN_QUERIES:
            query = parse_statement(text)
            doc = json.loads(explain(figure2_engine, query, fmt="json"))
            reparsed = parse_statement(doc["query_text"])
            assert reparsed == query
            plain = dict(doc)
            del plain["query_text"]
            assert plain == explain_dict(figure2_engine, query)

    def test_non_text_labels_render_without_query_line(self):
        engine = GraphAnalyticsEngine()
        from repro.core import GraphRecord

        engine.load_records([GraphRecord("r1", {(1, 2): 1.0})])
        rendered = explain(engine, GraphQuery([(1, 2)]), fmt="text")
        assert not rendered.startswith("query: ")
        doc = json.loads(explain(engine, GraphQuery([(1, 2)]), fmt="json"))
        assert "query_text" not in doc


class TestExplainEndpointRoundtrip:
    def test_explain_response_carries_canonical_query(self, figure2_engine):
        from repro.exec import QueryExecutor
        from repro.serve import ServeClient, start_in_thread

        executor = QueryExecutor(figure2_engine)
        handle = start_in_thread(executor)
        try:
            with ServeClient(*handle.address) as client:
                for text in EXPLAIN_QUERIES:
                    doc = client.explain({"q": text})
                    assert doc["query"] == canonical(text)
                    reparsed = parse_statement(doc["query"])
                    assert reparsed == parse_statement(text)
                    # and the canonical text is itself servable
                    again = client.explain({"q": doc["query"]})
                    assert again["explain"] == doc["explain"]
        finally:
            handle.stop()
            executor.close()
