"""EXPLAIN plans: render the chosen rewrite without executing it.

``explain(engine, query)`` describes the **same**
:class:`~repro.core.PhysicalPlan` object the interpreter executes —
``engine.physical_plan(query)`` is the single source of truth, and this
module builds the EXPLAIN dict from it (no independent re-planning) only
when asked — as deterministic text or JSON: which materialized views the
set-cover rewriter chose, the residual base bitmaps, the canonical
conjunction order, the estimated partition-spanning joins (§6.1), and the
§4.2/§5.1.1 SQL statement.  Nothing is fetched and no I/O counters move,
so the output is a stable, goldenable contract of the planner.

``explain(..., analyze=True)`` additionally executes the query under a
private :class:`~repro.obs.trace.Tracer` and attaches the measured
span tree plus actual counters (rows matched, cache hits/misses,
partitions joined) — the EXPLAIN ANALYZE counterpart.
"""

from __future__ import annotations

import json

from ..core.query import GraphQuery, PathAggregationQuery
from ..core.sqlgen import render_aggregation, render_graph_query
from .trace import Tracer

__all__ = ["explain", "explain_dict", "render_plan_text"]


def explain_dict(engine, query, analyze: bool = False) -> dict:
    """Structured plan for ``query``, built from the memoized physical plan
    the interpreter executes (``engine.physical_plan(query)``); with
    ``analyze`` the query is also executed under a temporary tracer and
    the measured counters + span tree are attached under ``"execution"``."""
    if not isinstance(query, (GraphQuery, PathAggregationQuery)):
        raise TypeError(f"cannot explain {type(query).__name__}")
    physical = engine.physical_plan(query)
    if physical.kind == "graph":
        plan = _graph_ir(engine, physical)
    else:
        plan = _aggregation_ir(engine, physical)
    if analyze:
        plan["execution"] = _analyze(engine, query)
    return plan


# -- the EXPLAIN dict --------------------------------------------------------


def _token(token) -> str:
    """Display string for an edge (``u->v``) or a view/column name."""
    if isinstance(token, str):
        return token
    try:
        u, v = token
        return f"{u}->{v}"
    except (TypeError, ValueError):
        return repr(token)


def _edges(elements) -> list[str]:
    return sorted(_token(e) for e in elements)


def _conjunction_dicts(parts) -> list[dict]:
    return [
        {"kind": part.kind, "token": _token(part.token), "covers": _edges(part.covered)}
        for part in parts or []
    ]


def _partition_estimate(engine, elements) -> dict:
    """Partitions the query's element columns span, per the §6.1 layout.

    Unknown elements (no column) occupy no partition; a query spanning
    k partitions pays k-1 recid re-joins at measure-fetch time.
    """
    known_ids = []
    for element in elements:
        edge_id = engine.catalog.get_id(element)
        if edge_id is not None and engine.relation.has_element(edge_id):
            known_ids.append(edge_id)
    spanned = len(engine.relation.partitions_for(known_ids)) if known_ids else 0
    return {"spanned": spanned, "estimated_joins": max(spanned - 1, 0)}


def _graph_ir(engine, physical) -> dict:
    query, plan, parts = physical.query, physical.logical, physical.parts
    views = engine._graph_views
    return {
        "type": "graph-query",
        "query": " & ".join(_edges(query.elements)),
        "elements": _edges(query.elements),
        "views": [
            {"name": name, "covers": _edges(views[name].elements)}
            for name in sorted(plan.view_names)
        ],
        "residual_elements": _edges(plan.residual_elements),
        "conjunction": _conjunction_dicts(parts),
        "answerable": parts is not None,
        "structural_columns": plan.n_structural_columns(),
        "saved_columns": plan.saved_columns(),
        "measure_columns": len(plan.fetch_elements),
        "partitions": _partition_estimate(engine, plan.fetch_elements),
        "sql": render_graph_query(plan, engine.catalog),
    }


def _aggregation_ir(engine, physical) -> dict:
    query, plan, parts = physical.query, physical.logical, physical.parts
    measured = frozenset(engine._measured_nodes)
    agg_views = engine._agg_views
    graph_views = engine._graph_views
    path_dicts = []
    for path_plan in plan.path_plans:
        segments = []
        for segment in path_plan.segments:
            if segment.kind == "view":
                view = agg_views[segment.view_name]
                segments.append(
                    {
                        "kind": "view",
                        "name": segment.view_name,
                        "covers": _edges(view.elements(measured)),
                    }
                )
            else:
                segments.append({"kind": "raw", "element": _token(segment.element)})
        path_dicts.append({"path": str(path_plan.path), "segments": segments})
    return {
        "type": "path-aggregation",
        "query": " & ".join(_edges(query.query.elements)),
        "function": query.function,
        "elements": _edges(query.query.elements),
        "aggregate_views": [
            {
                "name": name,
                "columns": list(agg_views[name].column_names()),
                "covers": _edges(agg_views[name].elements(measured)),
            }
            for name in sorted(plan.structural_agg_view_names)
        ],
        "views": [
            {"name": name, "covers": _edges(graph_views[name].elements)}
            for name in sorted(plan.structural_view_names)
        ],
        "residual_elements": _edges(plan.residual_elements),
        "conjunction": _conjunction_dicts(parts),
        "answerable": parts is not None,
        "paths": path_dicts,
        "structural_columns": plan.n_structural_columns(),
        "measure_columns": plan.n_measure_columns(),
        "segments": dict(zip(("view", "raw"), plan.segment_counts(), strict=True)),
        "partitions": _partition_estimate(engine, query.query.elements),
        "sql": render_aggregation(plan, engine.catalog),
    }


def _analyze(engine, query) -> dict:
    # The tracer rides on this one call's environment snapshot; installing
    # it on the engine would flip tracing under concurrently running queries.
    tracer = Tracer()
    result = engine._run(query, tracer=tracer)
    trace = tracer.last
    root = trace.root if trace is not None else None
    counters: dict[str, float] = {}
    if root is not None:
        for span in root.walk():
            for key, value in span.counters.items():
                counters[key] = counters.get(key, 0) + value
        # rows_matched appears on both the root and the conjunction span;
        # report the root's authoritative result-set size, not the sum.
        if "rows_matched" in root.counters:
            counters["rows_matched"] = root.counters["rows_matched"]
    return {
        "result_records": len(result),
        "epoch": result.epoch,
        "counters": {k: counters[k] for k in sorted(counters)},
        "trace": trace.to_dict() if trace is not None else None,
    }


def render_plan_text(plan: dict) -> str:
    """Deterministic text rendering of an :func:`explain_dict` plan."""
    lines: list[str] = []
    if plan["type"] == "graph-query":
        lines.append(f"GraphQuery |elements|={len(plan['elements'])}")
    else:
        lines.append(f"PathAggregationQuery function={plan['function']}")
        lines.append(f"  maximal paths: {len(plan['paths'])}")
        agg_names = [v["name"] for v in plan["aggregate_views"]]
        lines.append(f"  aggregate views used: {agg_names or '-'}")
    view_names = [v["name"] for v in plan["views"]]
    lines.append(f"  graph views used: {view_names or '-'}")
    lines.append(f"  residual element bitmaps: {len(plan['residual_elements'])}")
    if plan["type"] == "graph-query":
        lines.append(
            f"  structural columns: {plan['structural_columns']} "
            f"(saves {plan['saved_columns']})"
        )
    else:
        lines.append(f"  structural columns: {plan['structural_columns']}")
    lines.append(f"  measure columns: {plan['measure_columns']}")
    if not plan["answerable"]:
        lines.append("  conjunction: (unindexed element -> empty answer)")
    elif plan["conjunction"]:
        lines.append("  conjunction order:")
        for i, part in enumerate(plan["conjunction"], 1):
            covers = ", ".join(part["covers"])
            lines.append(
                f"    {i}. {part['kind']} {part['token']} covers {{{covers}}}"
            )
    if plan["type"] == "path-aggregation" and plan["paths"]:
        lines.append("  path tiling:")
        for path in plan["paths"]:
            rendered = []
            for segment in path["segments"]:
                if segment["kind"] == "view":
                    rendered.append(f"[{segment['name']}]")
                else:
                    rendered.append(segment["element"])
            lines.append(f"    {path['path']}: " + " + ".join(rendered))
    partitions = plan["partitions"]
    lines.append(
        f"  partitions: {partitions['spanned']} "
        f"(estimated joins: {partitions['estimated_joins']})"
    )
    execution = plan.get("execution")
    if execution is not None:
        lines.append(
            f"  actual: {execution['result_records']} records "
            f"(epoch {execution['epoch']})"
        )
        for key, value in execution["counters"].items():
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"    {key}: {shown}")
    lines.append("SQL:")
    lines.append(plan["sql"])
    return "\n".join(lines)


def explain(engine, query, analyze: bool = False, fmt: str = "text") -> str:
    """EXPLAIN (or EXPLAIN ANALYZE with ``analyze=True``) for ``query``.

    ``fmt`` is ``"text"`` or ``"json"``; both renderings are deterministic
    for a fixed engine state (the analyze trace adds wall-clock timings,
    which of course vary run to run).

    Both renderings lead with the query's **canonical text** (the
    :func:`repro.lang.unparse` spelling, which re-parses to the same
    query) when the query has one — text output as a ``query:`` first
    line, JSON output as a ``"query_text"`` key.  The plan dict itself
    stays exactly :func:`explain_dict`'s.
    """
    from ..lang import try_unparse

    plan = explain_dict(engine, query, analyze=analyze)
    canonical = try_unparse(query)
    if fmt == "json":
        if canonical is not None:
            plan = dict(plan, query_text=canonical)
        return json.dumps(plan, indent=2, sort_keys=True)
    if fmt == "text":
        text = render_plan_text(plan)
        if canonical is not None:
            text = f"query: {canonical}\n{text}"
        return text
    raise ValueError(f"unknown explain format {fmt!r}")
