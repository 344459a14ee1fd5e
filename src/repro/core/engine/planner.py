"""The planner layer: one serializable physical plan per query.

:class:`Planner` turns a :class:`GraphQuery` or
:class:`PathAggregationQuery` into a :class:`PhysicalPlan` — the *single*
source of truth consumed by the interpreter (which ANDs ``plan.parts``
and caches the answer under ``plan.key``), by the EXPLAIN renderer
(:mod:`repro.obs.explain` serializes ``plan.to_dict()`` instead of
re-deriving anything), and by the tracer (whose rewrite-span counters
read the same plan).  A physical plan bundles:

* the **logical rewrite** (:class:`GraphQueryPlan` /
  :class:`AggregationPlan`) the §5.3 set-cover rewriter chose;
* the **canonical conjunction parts** — views first, then residual base
  bitmaps, in :func:`canonical_parts` order — or ``None`` when a residual
  element has no column anywhere (the answer is empty without touching a
  bitmap);
* the **storage refs** — each part resolved once to the
  ``(kind, edge id | view name)`` pair the storage layer folds
  (:meth:`~repro.columnstore.table.MasterRelation.fold`) and the process
  pool ships to its workers, so no shard re-resolves a part;
* the **answer key** — the edge-set the parts cover together, which
  is the bitmap-cache key of the whole answer (None when not cacheable);
* fetch/aggregation metadata (measure elements, needed sub-aggregates);
* an eagerly built **IR dict**: the JSON-serializable plan description,
  including cost estimates, the generated SQL, and the backend's shard
  count.

Plans are memoized per query in a bounded LRU; the facade invalidates the
memo on *every* mutation (loads, appends, view changes, resharding), so a
cached plan is always consistent with the engine state it will execute
against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..aggregates import get_function
from ..memo import BoundedMemo
from ..query import GraphQuery, PathAggregationQuery
from ..record import Edge
from ..rewrite import (
    AggregationPlan,
    ConjunctionPart,
    GraphQueryPlan,
    canonical_parts,
    plan_aggregation,
    plan_graph_query,
)
from ..sqlgen import render_aggregation, render_graph_query
from .operators import part_token

__all__ = ["PhysicalPlan", "Planner"]


def _answer_key(parts: list[ConjunctionPart] | None) -> frozenset[Edge] | None:
    """The bitmap-cache key of the plan's answer: the union of the parts'
    covered edge-sets, or None — not cacheable — when there are no parts
    or one certifies nothing (its bitmap is then not determined by the
    covered set)."""
    if not parts or any(not part.covered for part in parts):
        return None
    return frozenset().union(*(part.covered for part in parts))


def _storage_refs(catalog, parts: list[ConjunctionPart]) -> tuple:
    """The parts as storage-level ``(kind, token)`` refs: elements become
    their integer column ids, views pass their storage names through.  A
    small picklable tuple with no dependence on the catalog object."""
    return tuple(
        (part.kind, catalog.get_id(part.token) if part.kind == "element" else part.token)
        for part in parts
    )


@dataclass
class PhysicalPlan:
    """Everything needed to execute — or faithfully describe — one query."""

    kind: str  # "graph" | "aggregation"
    query: GraphQuery | PathAggregationQuery
    logical: GraphQueryPlan | AggregationPlan
    parts: list[ConjunctionPart] | None
    refs: tuple | None  # _storage_refs(parts)
    key: frozenset[Edge] | None  # _answer_key(parts)
    fetch_elements: tuple
    needed_functions: tuple[str, ...]
    shards: int
    epoch: int  # engine epoch at plan time (informational; execution
    # always keys caches on the engine's *current* epoch)
    ir: dict = field(repr=False)

    def to_dict(self) -> dict:
        """The serializable plan IR (a private copy — callers may annotate
        it, e.g. EXPLAIN ANALYZE attaches an ``execution`` section)."""
        return copy.deepcopy(self.ir)


# -- IR construction ---------------------------------------------------------


def _edge_str(edge) -> str:
    try:
        u, v = edge
        return f"{u}->{v}"
    except (TypeError, ValueError):
        return repr(edge)


def _edges(elements) -> list[str]:
    return sorted(_edge_str(e) for e in elements)


def _conjunction_dicts(parts) -> list[dict]:
    out = []
    for part in parts or []:
        out.append(
            {
                "kind": part.kind,
                "token": part_token(part),
                "covers": _edges(part.covered),
            }
        )
    return out


class Planner:
    """Plans queries against one engine's views, catalog, and backend.

    Owns the plan memo (a :class:`~repro.core.memo.BoundedMemo`, so a
    long-running daemon keeps a bounded number of plans); the facade calls
    :meth:`invalidate` on every mutation.
    """

    def __init__(self, engine):
        self._engine = engine
        self._memo = BoundedMemo()

    def invalidate(self) -> None:
        self._memo.clear()

    # -- public entry points -------------------------------------------------

    def physical_plan(
        self, query: GraphQuery | PathAggregationQuery
    ) -> PhysicalPlan:
        plan = self._memo.get(query)
        if plan is None:
            if isinstance(query, PathAggregationQuery):
                plan = self._plan_aggregation(query)
            elif isinstance(query, GraphQuery):
                plan = self._plan_graph(query)
            else:
                raise TypeError(f"cannot plan {type(query).__name__}")
            self._memo.put(query, plan)
        return plan

    # -- graph queries -------------------------------------------------------

    def _plan_graph(self, query: GraphQuery) -> PhysicalPlan:
        engine = self._engine
        logical = plan_graph_query(query, engine._graph_views)
        parts = self._graph_parts(logical)
        return PhysicalPlan(
            kind="graph",
            query=query,
            logical=logical,
            parts=parts,
            refs=_storage_refs(engine.catalog, parts) if parts else None,
            key=_answer_key(parts),
            fetch_elements=tuple(logical.fetch_elements),
            needed_functions=(),
            shards=engine.n_shards,
            epoch=engine.epoch,
            ir=self._graph_ir(query, logical, parts),
        )

    def _graph_parts(
        self, plan: GraphQueryPlan
    ) -> list[ConjunctionPart] | None:
        """Conjunction inputs for a graph-query plan, canonically ordered;
        None when a residual element has no column (empty answer)."""
        engine = self._engine
        parts = [
            ConjunctionPart("graph-view", name, engine._graph_views[name].elements)
            for name in plan.view_names
        ]
        for element in plan.residual_elements:
            edge_id = engine.catalog.get_id(element)
            if edge_id is None or not engine.relation.has_element(edge_id):
                return None
            parts.append(ConjunctionPart("element", element, frozenset((element,))))
        return canonical_parts(parts)

    def _graph_ir(self, query, plan, parts) -> dict:
        engine = self._engine
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
            "partitions": self._partition_estimate(plan.fetch_elements),
            "shards": engine.n_shards,
            "sql": render_graph_query(plan, engine.catalog),
        }

    # -- path aggregation ----------------------------------------------------

    def _plan_aggregation(self, query: PathAggregationQuery) -> PhysicalPlan:
        engine = self._engine
        logical = plan_aggregation(
            query,
            engine._agg_views,
            engine._graph_views,
            frozenset(engine._measured_nodes),
        )
        parts = self._aggregation_parts(logical)
        function = get_function(query.function)
        needed = (
            (function.name,)
            if function.distributive
            else tuple(function.sub_aggregates)
        )
        return PhysicalPlan(
            kind="aggregation",
            query=query,
            logical=logical,
            parts=parts,
            refs=_storage_refs(engine.catalog, parts) if parts else None,
            key=_answer_key(parts),
            fetch_elements=tuple(query.query.elements),
            needed_functions=needed,
            shards=engine.n_shards,
            epoch=engine.epoch,
            ir=self._aggregation_ir(query, logical, parts),
        )

    def _aggregation_parts(
        self, plan: AggregationPlan
    ) -> list[ConjunctionPart] | None:
        """Conjunction inputs for an aggregation plan's structural condition;
        None when a residual element has no column (empty answer)."""
        engine = self._engine
        measured = frozenset(engine._measured_nodes)
        parts = []
        for name in plan.structural_agg_view_names:
            view = engine._agg_views[name]
            parts.append(
                ConjunctionPart(
                    "agg-view",
                    view.column_names()[0],
                    frozenset(view.elements(measured)),
                )
            )
        for name in plan.structural_view_names:
            parts.append(
                ConjunctionPart(
                    "graph-view", name, engine._graph_views[name].elements
                )
            )
        for element in plan.residual_elements:
            edge_id = engine.catalog.get_id(element)
            if edge_id is None or not engine.relation.has_element(edge_id):
                return None
            parts.append(ConjunctionPart("element", element, frozenset((element,))))
        return canonical_parts(parts)

    def _aggregation_ir(self, query, plan, parts) -> dict:
        engine = self._engine
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
                    segments.append(
                        {"kind": "raw", "element": _edge_str(segment.element)}
                    )
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
            "segments": dict(
                zip(("view", "raw"), plan.segment_counts(), strict=True)
            ),
            "partitions": self._partition_estimate(query.query.elements),
            "shards": engine.n_shards,
            "sql": render_aggregation(plan, engine.catalog),
        }

    # -- shared estimates ----------------------------------------------------

    def _partition_estimate(self, elements) -> dict:
        """Partitions the query's element columns span, per the §6.1 layout.

        Unknown elements (no column) occupy no partition; a query spanning
        k partitions pays k-1 recid re-joins at measure-fetch time.
        """
        engine = self._engine
        known_ids = []
        for element in elements:
            edge_id = engine.catalog.get_id(element)
            if edge_id is not None and engine.relation.has_element(edge_id):
                known_ids.append(edge_id)
        spanned = (
            len(engine.relation.partitions_for(known_ids)) if known_ids else 0
        )
        return {"spanned": spanned, "estimated_joins": max(spanned - 1, 0)}
