"""The planner layer: one physical plan per query.

:class:`Planner` turns a :class:`GraphQuery` or
:class:`PathAggregationQuery` into a :class:`PhysicalPlan` — the *single*
source of truth consumed by the interpreter (which folds ``plan.refs``
and caches the answer under ``plan.key``), by EXPLAIN
(:mod:`repro.obs.explain` builds its dict, SQL text and partition
estimate from this same memoized object, only when asked), and by the
tracer (whose rewrite-span counters read the same plan).  A physical plan
bundles:

* the **logical rewrite** (:class:`GraphQueryPlan` /
  :class:`AggregationPlan`) the §5.3 set-cover rewriter chose;
* the **canonical conjunction parts** — views first, then residual base
  bitmaps, in :func:`canonical_parts` order — or ``None`` when a residual
  element has no column anywhere (the answer is empty without touching a
  bitmap);
* the **storage refs** — each part resolved once to the
  ``(kind, edge id | view name)`` pair the storage layer folds
  (:meth:`~repro.columnstore.table.MasterRelation.fold`), so no fold
  re-resolves a part;
* the **answer key** — the edge-set the parts cover together, which
  is the bitmap-cache key of the whole answer (None when not cacheable);
* fetch/aggregation metadata (measure elements, needed sub-aggregates).

Plans are memoized per query in a bounded LRU; the facade invalidates the
memo on *every* mutation (loads, appends, view changes), so a
cached plan is always consistent with the engine state it will execute
against.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Everything needed to execute one query."""

    kind: str  # "graph" | "aggregation"
    query: GraphQuery | PathAggregationQuery
    logical: GraphQueryPlan | AggregationPlan
    parts: list[ConjunctionPart] | None
    refs: tuple | None  # _storage_refs(parts)
    key: frozenset[Edge] | None  # _answer_key(parts)
    fetch_elements: tuple
    needed_functions: tuple[str, ...]


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

    def physical_plan(
        self, query: GraphQuery | PathAggregationQuery
    ) -> PhysicalPlan:
        plan = self._memo.get(query)
        if plan is None:
            plan = self._plan(query)
            self._memo.put(query, plan)
        return plan

    def _plan(self, query: GraphQuery | PathAggregationQuery) -> PhysicalPlan:
        engine = self._engine
        graph_views = engine._graph_views
        if isinstance(query, PathAggregationQuery):
            measured = frozenset(engine._measured_nodes)
            logical = plan_aggregation(query, engine._agg_views, graph_views, measured)
            parts = []
            for name in logical.structural_agg_view_names:
                view = engine._agg_views[name]
                covered = frozenset(view.elements(measured))
                parts.append(ConjunctionPart("agg-view", view.column_names()[0], covered))
            view_names = logical.structural_view_names
            function = get_function(query.function)
            needed = (
                (function.name,) if function.distributive else tuple(function.sub_aggregates)
            )
            kind, fetch_elements = "aggregation", tuple(query.query.elements)
        elif isinstance(query, GraphQuery):
            logical = plan_graph_query(query, graph_views)
            parts, view_names, needed = [], logical.view_names, ()
            kind, fetch_elements = "graph", tuple(logical.fetch_elements)
        else:
            raise TypeError(f"cannot plan {type(query).__name__}")
        parts += [
            ConjunctionPart("graph-view", name, graph_views[name].elements)
            for name in view_names
        ]
        for element in logical.residual_elements:
            edge_id = engine.catalog.get_id(element)
            if edge_id is None or not engine.relation.has_element(edge_id):
                parts = None  # no column anywhere: the answer is empty
                break
            parts.append(ConjunctionPart("element", element, frozenset((element,))))
        else:
            parts = canonical_parts(parts)
        return PhysicalPlan(
            kind=kind,
            query=query,
            logical=logical,
            parts=parts,
            refs=_storage_refs(engine.catalog, parts) if parts else None,
            key=_answer_key(parts),
            fetch_elements=fetch_elements,
            needed_functions=needed,
        )
