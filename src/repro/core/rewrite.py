"""Query rewriting over materialized views (Section 5.3).

Given the views present in the database, a graph query is answered by
ANDing a *cover* of its element set: some view bitmaps (each a subset of
the query) plus the plain ``b_i`` bitmaps of the residue.  The cover is
chosen by the single-universe greedy set cover, an H(n)-approximation.

A path-aggregation query additionally *tiles* each maximal path with
non-overlapping aggregate graph views: every tile replaces its elements'
measure columns with one pre-aggregated ``mp`` column, and its elements'
bitmaps with the single ``bp``.  Tiles must match the query path exactly
over their interval (same traversed edges *and* the same included node
measures) so the pre-aggregate composes with raw measures via path-join.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass, field
from typing import Hashable

from .paths import Path
from .query import GraphQuery, PathAggregationQuery
from .record import Edge
from .setcover import greedy_cover_query
from .views import AggregateGraphView, GraphView

__all__ = [
    "GraphQueryPlan",
    "PathSegment",
    "PathPlan",
    "AggregationPlan",
    "ConjunctionPart",
    "canonical_parts",
    "plan_graph_query",
    "prune_unavailable_views",
    "tile_path",
    "plan_aggregation",
    "segment_elements",
]


def prune_unavailable_views(
    graph_views: dict[str, GraphView],
    agg_views: dict[str, AggregateGraphView],
    relation,
) -> list[str]:
    """Graceful degradation: drop view *definitions* whose backing columns
    are absent from ``relation``.

    The persistence layer refuses to load a view file that fails its
    integrity check, leaving the relation without that bitmap / column
    pair.  Planning against such a phantom view would crash at fetch time,
    so this removes the orphaned definitions (mutating both mappings); the
    planners then cover those elements with the base ``b_i`` bitmaps and
    raw measure columns, keeping query answers identical — just without
    the view's speedup.  Returns the dropped view names.
    """
    dropped: list[str] = []
    for name in list(graph_views):
        if not relation.has_graph_view(name):
            del graph_views[name]
            dropped.append(name)
    for name, view in list(agg_views.items()):
        columns = [f"{name}:{fn}" for fn in view.stored_functions()]
        if all(relation.has_aggregate_view(c) for c in columns):
            continue
        # A partially loaded view (some sub-aggregate columns survived) is
        # unusable; drop the survivors so the relation stays consistent.
        for column in columns:
            relation.drop_aggregate_view(column)
        del agg_views[name]
        dropped.append(name)
    return dropped


@dataclass(frozen=True)
class ConjunctionPart:
    """One input of a structural bitmap conjunction.

    ``kind`` names the bitmap column to fetch — ``"element"`` (a base
    ``b_i``), ``"graph-view"`` (``bv_j``), or ``"agg-view"`` (``bp_l``) —
    ``token`` identifies it (the edge, or the view/column name), and
    ``covered`` is the set of query elements whose containment the bitmap
    certifies.  A part's bitmap always equals the AND of the base bitmaps
    of its covered elements, which is what lets the bitmap cache key an
    answer on its *covered edge-set* alone: two plans that reach the same
    covered set through different parts (views vs raw bitmaps) produce
    bit-identical answers.
    """

    kind: str
    token: object
    covered: frozenset[Edge]

    def sort_key(self) -> tuple:
        return (tuple(sorted(map(repr, self.covered))), self.kind, repr(self.token))


def canonical_parts(parts: Sequence[ConjunctionPart]) -> list[ConjunctionPart]:
    """Deterministic evaluation order for a conjunction's parts.

    Sorting by covered edge-set makes the order — and so the plan, its
    EXPLAIN text and its SQL — a function of the parts alone, whatever
    order the rewriter produced them in; the AND is the same either way.
    Parts whose coverage is already implied by the accumulated prefix are
    dropped: their bitmap is a superset of the running conjunction, so
    ANDing it is a no-op.
    """
    ordered = sorted(parts, key=ConjunctionPart.sort_key)
    out: list[ConjunctionPart] = []
    covered: set[Edge] = set()
    for part in ordered:
        # Keep parts with an empty covered set (they constrain without
        # covering, so the subset rule does not apply to them).
        if part.covered and part.covered <= covered:
            continue
        covered |= part.covered
        out.append(part)
    return out


@dataclass
class GraphQueryPlan:
    """Execution plan for a plain graph query."""

    query: GraphQuery
    view_names: list[str]
    residual_elements: list[Edge]
    fetch_elements: list[Edge]

    def n_structural_columns(self) -> int:
        """Bitmap columns this plan touches (the paper's cost unit)."""
        return len(self.view_names) + len(self.residual_elements)

    def saved_columns(self) -> int:
        """Bitmap columns the view rewrite avoided versus the no-view plan
        (the per-query benefit the §5.2 selection objective sums)."""
        return len(self.query) - self.n_structural_columns()


@dataclass(frozen=True)
class PathSegment:
    """One tile of a maximal path: a view or a raw element.

    ``kind`` is ``"view"`` (use the aggregate view named ``view_name``) or
    ``"raw"`` (fetch the single element's measure column).
    """

    kind: str
    view_name: str | None = None
    element: Edge | None = None


@dataclass
class PathPlan:
    """How one maximal path's aggregation is computed."""

    path: Path
    segments: list[PathSegment] = field(default_factory=list)

    def view_names(self) -> list[str]:
        return [s.view_name for s in self.segments if s.kind == "view"]

    def raw_elements(self) -> list[Edge]:
        return [s.element for s in self.segments if s.kind == "raw"]


@dataclass
class AggregationPlan:
    """Execution plan for a path-aggregation query."""

    query: PathAggregationQuery
    structural_view_names: list[str]
    structural_agg_view_names: list[str]
    residual_elements: list[Edge]
    path_plans: list[PathPlan] = field(default_factory=list)

    def n_structural_columns(self) -> int:
        return (
            len(self.structural_view_names)
            + len(self.structural_agg_view_names)
            + len(self.residual_elements)
        )

    def n_measure_columns(self) -> int:
        """Distinct measure columns fetched (views count one per column)."""
        names: set[str] = set()
        raws: set[Edge] = set()
        for plan in self.path_plans:
            names.update(plan.view_names())
            raws.update(plan.raw_elements())
        return len(names) + len(raws)

    def segment_counts(self) -> tuple[int, int]:
        """(view segments, raw segments) across all path tilings — the
        split the tracer's ``aggregation`` span reports at run time."""
        n_view = n_raw = 0
        for plan in self.path_plans:
            for segment in plan.segments:
                if segment.kind == "view":
                    n_view += 1
                else:
                    n_raw += 1
        return n_view, n_raw


def plan_graph_query(
    query: GraphQuery, graph_views: Mapping[str, GraphView]
) -> GraphQueryPlan:
    """Rewrite a graph query against the available graph views."""
    view_sets = {name: view.elements for name, view in graph_views.items()}
    chosen, residue = greedy_cover_query(query.elements, view_sets)
    return GraphQueryPlan(
        query=query,
        view_names=[str(name) for name in chosen],
        residual_elements=sorted(residue, key=repr),
        fetch_elements=sorted(query.elements, key=repr),
    )


def segment_elements(
    path: Path, start: int, stop: int, measured_nodes: Set[Hashable]
) -> frozenset[Edge]:
    """Elements of the query path over node interval ``[start, stop]``.

    Interval endpoints inherit the path's openness when they coincide with
    the path's own endpoints; interior interval boundaries are closed
    (their node measures belong to the path and must be counted by exactly
    one tile — by convention the tile that starts there owns the left
    boundary, matching closed candidate paths).
    """
    nodes = path.nodes[start : stop + 1]
    open_start = path.open_start and start == 0
    open_end = path.open_end and stop == len(path.nodes) - 1
    sub = Path(nodes, open_start=open_start, open_end=open_end)
    return frozenset(sub.elements(measured_nodes))


def _occurrences(haystack: Sequence[Hashable], needle: Sequence[Hashable]) -> list[int]:
    window = len(needle)
    return [
        i
        for i in range(len(haystack) - window + 1)
        if tuple(haystack[i : i + window]) == tuple(needle)
    ]


def tile_path(
    path: Path,
    agg_views: Mapping[str, AggregateGraphView],
    measured_nodes: Set[Hashable] = frozenset(),
    function: str = "sum",
) -> PathPlan:
    """Tile a maximal path with non-overlapping aggregate views.

    Views are considered longest-first (the monotonicity property says
    longer tiles save more); a view is placed at an occurrence of its node
    sequence if it does not overlap an already placed tile and its stored
    elements match the query path's elements over that interval.  Residual
    positions become raw single-element segments.
    """
    usable = [
        (name, view)
        for name, view in agg_views.items()
        if view.stored_functions()
        and _compatible_functions(view.function, function)
    ]
    usable.sort(key=lambda nv: (-len(nv[1].path.edges()), nv[0]))
    n_edges = len(path.edges())
    edge_taken = [False] * n_edges
    placed: list[tuple[int, str, frozenset[Edge]]] = []  # (start idx, name, covered)
    for name, view in usable:
        needle = view.path.nodes
        if len(needle) < 2 or view.path.is_single_node():
            continue
        for start in _occurrences(path.nodes, needle):
            stop = start + len(needle) - 1
            span = range(start, stop)
            if any(edge_taken[i] for i in span):
                continue
            covered = frozenset(view.elements(measured_nodes))
            expected = segment_elements(path, start, stop, measured_nodes)
            if covered != expected:
                continue
            for i in span:
                edge_taken[i] = True
            placed.append((start, name, covered))
            break  # one placement per view per path

    placed.sort()
    segments: list[PathSegment] = []
    owner_of: dict[Edge, str] = {}
    for _, name, covered in placed:
        for element in covered:
            owner_of[element] = name
    emitted_views: set[str] = set()
    # Walk the path's element sequence; emit a view segment when entering a
    # tiled region, raw segments elsewhere.
    for element in path.elements(measured_nodes):
        owner = owner_of.get(element)
        if owner is not None:
            if owner not in emitted_views:
                segments.append(PathSegment(kind="view", view_name=owner))
                emitted_views.add(owner)
            continue
        segments.append(PathSegment(kind="raw", element=element))
    return PathPlan(path=path, segments=segments)


def _stored_for(function_name: str) -> frozenset[str]:
    from .aggregates import get_function

    fn = get_function(function_name)
    return frozenset((fn.name,) if fn.distributive else fn.sub_aggregates)


def _compatible_functions(view_function: str, query_function: str) -> bool:
    """A view tile can serve a query when every partial the query needs is
    stored by the view — or is COUNT, which over matched rows equals the
    tile's element count and needs no storage (so a SUM view answers AVG
    queries, and an AVG view answers SUM and COUNT queries)."""
    provides = _stored_for(view_function) | {"count"}
    requires = _stored_for(query_function)
    return requires <= provides


def plan_aggregation(
    query: PathAggregationQuery,
    agg_views: Mapping[str, AggregateGraphView],
    graph_views: Mapping[str, GraphView],
    measured_nodes: Set[Hashable] = frozenset(),
) -> AggregationPlan:
    """Rewrite a path-aggregation query against all available views.

    Per maximal path, tile with aggregate views.  The structural condition
    then reuses the ``bp`` bitmaps of every tile for free coverage, covers
    the remainder greedily with graph views, and falls back to ``b_i``
    bitmaps for the residue.
    """
    path_plans = [
        tile_path(path, agg_views, measured_nodes, function=query.function)
        for path in query.maximal_paths()
    ]
    used_agg_names: list[str] = []
    covered: set[Edge] = set()
    for plan in path_plans:
        for name in plan.view_names():
            if name not in used_agg_names:
                used_agg_names.append(name)
                covered |= set(agg_views[name].elements(measured_nodes))

    universe = query.query.elements
    residue_universe = frozenset(universe - covered)
    view_sets = {name: view.elements for name, view in graph_views.items()}
    # Graph views must still be subsets of the *whole* query to be valid,
    # but their marginal gain is on the uncovered residue.
    usable = {
        name: elems & residue_universe
        for name, elems in view_sets.items()
        if elems <= universe
    }
    chosen, residue = greedy_cover_query(residue_universe, usable)
    return AggregationPlan(
        query=query,
        structural_view_names=[str(name) for name in chosen],
        structural_agg_view_names=used_agg_names,
        residual_elements=sorted(residue, key=repr),
        path_plans=path_plans,
    )
