"""Layered query-language front-end for the path algebra.

The pipeline is four small layers, each importable on its own::

    text ──tokenize──▶ tokens ──parse──▶ AST ──lower──▶ QueryExpr
                                          ▲                 │
                                          └──── unparse ◀───┘

* :mod:`repro.lang.lexer` — position-tracking tokens (``#`` comments,
  quoted labels with escapes);
* :mod:`repro.lang.parser` — recursive descent to the typed AST of
  :mod:`repro.lang.ast`: paths with open ends (``A -> D ->``,
  ``-> G -> I``), composite steps ``[A,G] -> I``, measured-node markers
  ``D!``, the path-join ``JOIN`` / ``⋈``, element sets, booleans;
* :mod:`repro.lang.lower` — AST to the core query objects, with
  positioned errors and :func:`diagnose` did-you-mean hints against an
  engine catalog;
* :mod:`repro.lang.unparse` — the canonical text of a query, satisfying
  the round-trip law ``lower(parse(unparse(q))) == q``.

:func:`parse_query` / :func:`parse_aggregation` are the text-in,
core-query-object-out entry points.
"""

from __future__ import annotations

from ..core.aggregates import FUNCTIONS
from ..core.memo import BoundedMemo
from ..core.query import PathAggregationQuery, QueryExpr
from ..errors import QuerySyntaxError
from .ast import (
    Aggregate,
    AndExpr,
    AndNotExpr,
    ElementSet,
    JoinExpr,
    Name,
    Node,
    OrExpr,
    PathPattern,
    QueryNode,
    Span,
    Step,
)
from .lexer import Token, line_and_column, tokenize
from .lower import Diagnostic, diagnose, lower_query, lower_statement
from .parser import (
    KEYWORDS,
    parse_aggregation_ast,
    parse_query_ast,
    parse_statement_ast,
)
from .unparse import (
    SAFE_BARE_RE,
    UnparseError,
    render_name,
    try_unparse,
    unparse,
    unparse_ast,
)
from .workload import (
    WorkloadStatement,
    format_workload,
    iter_workload_lines,
    parse_workload,
    render_syntax_error,
)

__all__ = [
    # text → core objects
    "parse_query",
    "parse_aggregation",
    "parse_statement",
    "QuerySyntaxError",
    # layers
    "tokenize",
    "Token",
    "line_and_column",
    "parse_query_ast",
    "parse_aggregation_ast",
    "parse_statement_ast",
    "lower_query",
    "lower_statement",
    "KEYWORDS",
    # AST
    "Span",
    "Name",
    "Node",
    "Step",
    "PathPattern",
    "JoinExpr",
    "ElementSet",
    "AndExpr",
    "OrExpr",
    "AndNotExpr",
    "Aggregate",
    "QueryNode",
    # canonical text
    "unparse",
    "try_unparse",
    "unparse_ast",
    "canonical",
    "UnparseError",
    "SAFE_BARE_RE",
    "render_name",
    # diagnostics & workloads
    "Diagnostic",
    "diagnose",
    "render_syntax_error",
    "WorkloadStatement",
    "parse_workload",
    "iter_workload_lines",
    "format_workload",
]


def parse_query(text: str) -> QueryExpr:
    """Parse query text into a (possibly compound) query expression."""
    return lower_query(parse_query_ast(text), source=text)


def parse_aggregation(text: str) -> PathAggregationQuery:
    """Parse ``FUNC <query>`` into a path-aggregation query.

    The leading word must name a registered aggregate (SUM, MIN, MAX,
    COUNT, AVG, or anything added via ``register_function``); the rest
    must reduce to an atomic graph query (boolean combinations have no
    single path structure to aggregate over).
    """
    result = lower_statement(parse_aggregation_ast(text), source=text)
    assert isinstance(result, PathAggregationQuery)
    return result


_PARSED = BoundedMemo()


def parse_statement(text: str):
    """Parse one workload statement, auto-detecting aggregations.

    A statement whose leading bare word names a registered aggregate
    function parses as an aggregation; everything else as a query (a
    *quoted* leading word always starts a query).

    Memoized (bounded LRU) on the text and the registered function names
    — ``register_function`` changes how a leading word parses.  Query
    objects are immutable, so a repeat gets the same object; a syntax
    error raises afresh every time.
    """
    key = (text, tuple(FUNCTIONS))
    query = _PARSED.get(key)
    if query is None:
        query = lower_statement(parse_statement_ast(text), source=text)
        _PARSED.put(key, query)
    return query


def canonical(text: str) -> str:
    """The canonical spelling of a statement: parse, lower, unparse.

    ``canonical`` is idempotent and canonical text lowers to the same
    query object as the original.
    """
    return unparse(parse_statement(text))
