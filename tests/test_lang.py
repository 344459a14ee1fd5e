"""Tests for the layered query-language front-end (repro.lang).

Covers each layer in isolation — lexer positions, parser AST shapes,
lowering semantics, canonical unparsing — plus the cross-layer
contracts: the round-trip law, the quoting rule that fixes the
hyphenated-identifier ambiguity, position-annotated errors for every
malformed input, catalog did-you-mean diagnostics, and workload
parsing/formatting.
"""

from __future__ import annotations

import pytest

from repro.core import And, AndNot, GraphQuery, Or, PathAggregationQuery
from repro.errors import QuerySyntaxError
from repro.lang import (
    Aggregate,
    AndNotExpr,
    ElementSet,
    JoinExpr,
    Name,
    Node,
    OrExpr,
    PathPattern,
    Span,
    Step,
    canonical,
    diagnose,
    format_workload,
    parse_aggregation,
    parse_query,
    parse_query_ast,
    parse_statement,
    parse_statement_ast,
    parse_workload,
    render_name,
    render_syntax_error,
    tokenize,
    try_unparse,
    unparse,
    unparse_ast,
)
from repro.lang.unparse import UnparseError


class TestLexer:
    def test_tokens_carry_positions(self):
        tokens = tokenize("A -> 'B b'")
        assert [(t.kind, t.pos) for t in tokens] == [
            ("word", 0), ("arrow", 2), ("quoted", 5)
        ]
        assert tokens[2].value == "B b"
        assert tokens[2].line == 1 and tokens[2].column == 6

    def test_multiline_positions(self):
        tokens = tokenize("A\n  -> B")
        arrow = tokens[1]
        assert (arrow.line, arrow.column) == (2, 3)

    def test_comments_dropped_by_default(self):
        assert [t.kind for t in tokenize("A # -> B")] == ["word"]
        kept = tokenize("A # tail", keep_comments=True)
        assert [t.kind for t in kept] == ["word", "comment"]
        assert kept[1].text == "# tail"

    def test_quoted_escapes(self):
        (token,) = tokenize(r"'it\'s \\ a\ttab'")
        assert token.value == "it's \\ a\ttab"

    def test_unknown_escape_positioned(self):
        with pytest.raises(QuerySyntaxError, match=r"unknown escape \\q") as e:
            tokenize(r"'a\qb'")
        assert e.value.position == 2

    def test_unclosed_quote(self):
        with pytest.raises(QuerySyntaxError, match="unclosed quote") as e:
            tokenize("A -> 'oops")
        assert e.value.position == 5

    def test_hyphen_word_vs_arrow(self):
        assert [t.kind for t in tokenize("hub-1->x")] == [
            "word", "arrow", "word"
        ]
        assert tokenize("hub-1->x")[0].value == "hub-1"


class TestParserAst:
    def test_chain_ast(self):
        ast = parse_query_ast("A -> B")
        assert ast == PathPattern(
            (Step((Node(Name("A")),)), Step((Node(Name("B")),)))
        )

    def test_spans_do_not_affect_equality(self):
        assert parse_query_ast("A->B") == parse_query_ast("  A  ->  B ")
        span = parse_query_ast("  A  ->  B ").span
        assert (span.start, span.end) == (2, 10)

    def test_open_ends(self):
        ast = parse_query_ast("-> G -> I")
        assert ast.open_start and not ast.open_end
        ast = parse_query_ast("A -> D ->")
        assert ast.open_end and not ast.open_start

    def test_measured_marker(self):
        ast = parse_query_ast("A -> D! -> E")
        assert ast.steps[1].nodes[0].measured
        assert not ast.steps[0].nodes[0].measured

    def test_composite_step(self):
        ast = parse_query_ast("[A, G] -> I")
        assert ast.steps[0].is_composite
        assert [n.name.value for n in ast.steps[0].nodes] == ["A", "G"]

    def test_join_left_associative(self):
        ast = parse_query_ast("A -> B -> JOIN B -> C -> JOIN C -> D")
        assert isinstance(ast, JoinExpr)
        assert isinstance(ast.left, JoinExpr)
        assert isinstance(ast.left.left, PathPattern)

    def test_join_unicode_spelling(self):
        assert parse_query_ast("A -> B -> ⋈ B -> C") == parse_query_ast(
            "A -> B -> JOIN B -> C"
        )

    def test_boolean_precedence(self):
        ast = parse_query_ast("A->B OR C->D AND NOT {(E,F)}")
        assert isinstance(ast, OrExpr)
        assert isinstance(ast.right, AndNotExpr)
        assert isinstance(ast.right.right, ElementSet)

    def test_keywords_reserved_but_quotable(self):
        with pytest.raises(QuerySyntaxError, match="quote 'AND'"):
            parse_query_ast("AND -> B")
        ast = parse_query_ast("'AND' -> B")
        assert ast.steps[0].nodes[0].name.value == "AND"

    def test_aggregation_statement_detection(self):
        assert isinstance(parse_statement_ast("SUM A -> B"), Aggregate)
        # a quoted head word is always a node label, never a function
        assert isinstance(parse_statement_ast("'sum' -> B"), PathPattern)


class TestLowering:
    def test_marker_adds_self_edge(self):
        q = parse_query("A -> D! -> E")
        assert q.elements == {("A", "D"), ("D", "E"), ("D", "D")}

    def test_single_measured_node(self):
        assert parse_query("X!") == GraphQuery([("X", "X")])

    def test_open_end_excludes_marked_endpoint(self):
        # the paper's half-open [A,D): D's own measure is excluded even
        # when D carries a measure in the database
        assert parse_query("A -> D! ->") == GraphQuery([("A", "D")])
        assert parse_query("-> A! -> D") == GraphQuery([("A", "D")])

    def test_composite_expands_to_or_fold(self):
        q = parse_query("[A, G] -> I")
        assert q == Or(GraphQuery([("A", "I")]), GraphQuery([("G", "I")]))

    def test_composite_drops_non_simple_combos(self):
        q = parse_query("[A, B] -> B")
        assert q == GraphQuery([("A", "B")])

    def test_composite_with_no_simple_expansion(self):
        with pytest.raises(QuerySyntaxError, match="no simple expansion"):
            parse_query("[A, B] -> A -> B")

    def test_single_node_step_repeat_is_an_error(self):
        # a one-node bracket is just that node, so the path is non-simple
        with pytest.raises(QuerySyntaxError, match="repeats node 'B'"):
            parse_query("[B] -> B")

    def test_join_requires_one_open_side(self):
        q = parse_query("A -> B -> JOIN B -> C")
        assert q == GraphQuery([("A", "B"), ("B", "C")])
        with pytest.raises(QuerySyntaxError, match="path join"):
            parse_query("A -> B JOIN B -> C")  # B counted twice

    def test_join_shared_measure_counted_once(self):
        q = parse_query("A -> B -> JOIN B! -> C")
        assert q == GraphQuery([("A", "B"), ("B", "C"), ("B", "B")])

    def test_join_over_composites(self):
        # only the F-ending expansion joins the F-starting right path
        q = parse_query("A -> [F, Z] -> JOIN F -> J")
        assert q == GraphQuery([("A", "F"), ("F", "J")])

    def test_aggregation(self):
        agg = parse_aggregation("SUM A -> D! -> E")
        assert agg == PathAggregationQuery(
            GraphQuery([("A", "D"), ("D", "E"), ("D", "D")]), "sum"
        )

    def test_statement_autodetects(self):
        assert isinstance(parse_statement("SUM A -> B"), PathAggregationQuery)
        assert isinstance(parse_statement("A -> B"), GraphQuery)
        assert parse_statement("'sum' -> B") == GraphQuery([("sum", "B")])


ERROR_TABLE = [
    # (input, message fragment, expected position)
    ("", "empty query", 0),
    ("   ", "empty query", 0),
    ("{}", "element set cannot be empty", 1),
    ("{(A,B),}", "'('", 7),
    ("{(A B)}", "','", 4),
    ("{(A,B)", "'}'", 6),
    ("(A->B", "')'", 5),
    ("A ->", "open-ended single node", 0),
    ("-> A", "open-ended single node", 0),
    ("A", "a path needs at least two nodes", 0),
    ("A -> -> B", "unexpected '->'", 5),
    ("A -> B)", "trailing input", 6),
    ("A->B C->D", "trailing input", 5),
    ("'oops", "unclosed quote", 0),
    ("A -> B; x", "unexpected character ';'", 6),
    ("[ ] -> B", "composite step needs at least one node", 2),
    ("[A, ] -> B", "node name", 4),
    ("A -> B -> JOIN", "a path", 14),
    ("AND -> B", "quote 'AND'", 0),
    ("A -> OR", "unexpected end of query", 7),
    ("A -> A", "repeats node 'A'", 0),
    ("SUM A->B OR C->D", "single graph query", 4),
    ("A -> B JOIN B -> C", "path join is undefined", 0),
]


class TestErrorPositions:
    @pytest.mark.parametrize("text,fragment,position", ERROR_TABLE)
    def test_malformed_input_is_positioned(self, text, fragment, position):
        with pytest.raises(QuerySyntaxError) as e:
            parse_statement(text)
        assert fragment in str(e.value)
        assert e.value.position == position

    def test_missing_function_name(self):
        with pytest.raises(QuerySyntaxError, match="function name") as e:
            parse_aggregation("A -> B")
        assert e.value.position == 0

    def test_unknown_function_did_you_mean(self):
        with pytest.raises(QuerySyntaxError, match="did you mean 'SUM'"):
            parse_statement_and_lower_unknown_function()

    def test_caret_rendering(self):
        with pytest.raises(QuerySyntaxError) as e:
            parse_query("A -> B )")
        rendered = render_syntax_error(e.value)
        lines = rendered.splitlines()
        assert lines[1] == "  A -> B )"
        assert lines[2] == "         ^"

    def test_caret_rendering_with_line_number(self):
        with pytest.raises(QuerySyntaxError) as e:
            parse_workload("A -> B\nC -> )\n")
        assert e.value.line == 2
        assert render_syntax_error(e.value).startswith("line 2: ")


def parse_statement_and_lower_unknown_function():
    from repro.lang import lower_statement

    ast = parse_statement_ast("A -> B")
    bad = Aggregate(Name("sim"), ast, Span(0, 0))
    lower_statement(bad, source="SIM A -> B")


class TestHyphenQuotingRegression:
    """Pinned regression for the hyphenated-identifier ambiguity.

    ``A-1 -> B`` lexes ``A-1`` as one word, so an unparser printing the
    label bare round-trips — but only because of the lexer's ``-(?!>)``
    rule.  Labels like ``a->b`` or ``a b`` would re-lex differently, so
    the canonical unparser must quote anything that is not one safe bare
    word.  These cases are pinned so the quoting rule cannot regress.
    """

    @pytest.mark.parametrize(
        "label",
        [
            "hub-1", "hub_2", "42", "a.b.c", "-",  # safe bare words
        ],
    )
    def test_safe_words_stay_bare(self, label):
        assert render_name(label) == label
        q = GraphQuery([(label, "zz")])
        assert parse_query(unparse(q)) == q

    @pytest.mark.parametrize(
        "label",
        [
            "a->b",      # would re-lex as word, arrow, word
            "a b",       # whitespace splits
            "a,b", "a(b)", "a#b", "{x}", "[x]", "x!",
            "it's",      # quote needs escaping
            "back\\slash",
            "new\nline", "tab\there",
            "AND", "or", "Join", "not",   # reserved keywords
            "sum", "AVG",                 # aggregate function names
            "",          # empty label
        ],
    )
    def test_unsafe_words_are_quoted_and_roundtrip(self, label):
        rendered = render_name(label)
        assert rendered.startswith("'") and rendered.endswith("'")
        q = GraphQuery([(label, "zz")])
        assert parse_query(unparse(q)) == q

    def test_non_string_label_has_no_text_form(self):
        q = GraphQuery([(1, 2)])
        with pytest.raises(UnparseError):
            unparse(q)
        assert try_unparse(q) is None


class TestCanonicalUnparse:
    def test_chain_recovery(self):
        q = GraphQuery([("A", "D"), ("D", "E"), ("D", "D")])
        assert unparse(q) == "A -> D! -> E"

    def test_lone_self_edge(self):
        assert unparse(GraphQuery([("X", "X")])) == "X!"

    def test_non_path_falls_back_to_element_set(self):
        q = GraphQuery([("A", "B"), ("A", "C")])
        assert unparse(q) == "{(A,B), (A,C)}"
        cyc = GraphQuery([("A", "B"), ("B", "A")])
        assert unparse(cyc) == "{(A,B), (B,A)}"

    def test_off_chain_measure_falls_back(self):
        q = GraphQuery([("A", "B"), ("C", "C")])
        assert unparse(q) == "{(A,B), (C,C)}"

    def test_minimal_parens(self):
        a, b, c = (GraphQuery([(x, "z")]) for x in "abc")
        assert unparse(Or(Or(a, b), c)) == "a -> z OR b -> z OR c -> z"
        assert unparse(Or(a, Or(b, c))) == "a -> z OR (b -> z OR c -> z)"
        assert unparse(And(Or(a, b), c)) == "(a -> z OR b -> z) AND c -> z"
        assert unparse(Or(a, And(b, c))) == "a -> z OR b -> z AND c -> z"
        assert (
            unparse(AndNot(a, And(b, c)))
            == "a -> z AND NOT (b -> z AND c -> z)"
        )

    def test_aggregation(self):
        agg = PathAggregationQuery(GraphQuery([("A", "B")]), "avg")
        assert unparse(agg) == "AVG A -> B"

    def test_canonical_is_idempotent(self):
        for text in [
            "A->D!->E",
            "{(D,D)}",
            "sum  {(A,B),(B,C)}",
            "(A->B OR C->D) AND NOT {(E,F)}",
            "'New York' -> 'Los Angeles'",
            "[A,G] -> I",
            "A -> B -> JOIN B! -> C",
        ]:
            once = canonical(text)
            assert canonical(once) == once

    def test_unparse_ast_preserves_surface(self):
        for text in [
            "-> [A, G] -> I ->",
            "A -> B -> JOIN B -> C JOIN'x'-> y",
            "SUM A -> 'New York'!",
        ]:
            ast = parse_statement_ast(text)
            assert parse_statement_ast(unparse_ast(ast)) == ast


class TestDiagnostics:
    def test_did_you_mean(self):
        ast = parse_query_ast("A -> Dd -> E")
        diags = diagnose(ast, ["A", "D", "E", "G"])
        assert len(diags) == 1
        assert diags[0].label == "Dd"
        assert diags[0].position == 5
        assert "did you mean 'D'" in diags[0].message

    def test_known_labels_are_silent(self):
        ast = parse_query_ast("A -> D")
        assert diagnose(ast, ["A", "D"]) == []

    def test_no_suggestion_when_nothing_close(self):
        ast = parse_query_ast("zzzzz -> A")
        (diag,) = diagnose(ast, ["A", "B"])
        assert "did you mean" not in diag.message

    def test_empty_catalog_is_silent(self):
        ast = parse_query_ast("A -> B")
        assert diagnose(ast, []) == []

    def test_engine_catalog(self, figure2_engine):
        ast = parse_query_ast("A -> Q -> EE")
        labels = [d.label for d in diagnose(ast, figure2_engine.catalog.nodes())]
        assert labels == ["Q", "EE"]


class TestWorkloads:
    WORKLOAD = (
        "# figure 2 queries\n"
        "A -> D -> E\n"
        "\n"
        "SUM E->F->G  # aggregation\n"
    )

    def test_parse_workload_lines(self):
        statements = parse_workload(self.WORKLOAD)
        assert [s.line for s in statements] == [2, 4]
        assert statements[0].query == GraphQuery([("A", "D"), ("D", "E")])
        assert isinstance(statements[1].query, PathAggregationQuery)

    def test_parse_workload_error_carries_line(self):
        with pytest.raises(QuerySyntaxError) as e:
            parse_workload("A -> B\n\nC -> \n")
        assert e.value.line == 3

    def test_format_preserves_comments_and_blanks(self):
        formatted = format_workload(self.WORKLOAD)
        assert formatted == (
            "# figure 2 queries\n"
            "A -> D -> E\n"
            "\n"
            "SUM E -> F -> G  # aggregation\n"
        )

    def test_format_is_idempotent(self):
        once = format_workload(self.WORKLOAD)
        assert format_workload(once) == once

    def test_format_preserves_meaning(self):
        before = [s.query for s in parse_workload(self.WORKLOAD)]
        after = [s.query for s in parse_workload(format_workload(self.WORKLOAD))]
        assert before == after

    def test_hash_inside_quotes_is_not_a_comment(self):
        statements = parse_workload("'a#b' -> C\n")
        assert statements[0].query == GraphQuery([("a#b", "C")])
        assert format_workload("'a#b' -> C\n") == "'a#b' -> C\n"


class TestPackageSurface:
    def test_package_reexports(self):
        import repro
        import repro.lang as lang

        assert repro.parse_query is lang.parse_query
        from repro.errors import QuerySyntaxError as canonical_error

        assert lang.QuerySyntaxError is canonical_error
