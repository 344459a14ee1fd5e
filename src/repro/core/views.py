"""Materialized graph views and aggregate graph views (Section 5.1).

Two view species extend the master relation's schema:

* :class:`GraphView` — one bitmap column ``bv`` holding the precomputed
  conjunction of the bitmaps of an element set ``B``; using it for a query
  ``Gq ⊇ B`` replaces ``|B|`` bitmap fetches with one (Section 5.1.1).
* :class:`AggregateGraphView` — for a path ``p`` and aggregate function
  ``F``, a measure column ``mp`` with ``F`` pre-applied along ``p`` per
  record (or the distributive sub-aggregates, for algebraic ``F``) plus the
  bitmap ``bp`` of records containing ``p`` (Section 5.1.2).

Both species obey a **monotonicity property** that drives candidate
pruning; the ``supersedes`` helpers implement those definitions verbatim.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from typing import Hashable

from .aggregates import get_function
from .paths import Path
from .query import GraphQuery
from .record import Edge

__all__ = [
    "GraphView",
    "AggregateGraphView",
    "graph_view_supersedes",
]


class GraphView:
    """A precomputed bitmap conjunction over a set of structural elements."""

    __slots__ = ("name", "elements")

    def __init__(self, name: str, elements: Iterable[Edge]):
        elems = frozenset(elements)
        if len(elems) < 2:
            raise ValueError(
                "a graph view must cover at least two elements; single-element "
                "bitmaps already exist as the b_i columns"
            )
        self.name = name
        self.elements = elems

    def __repr__(self) -> str:
        return f"GraphView({self.name!r}, |B|={len(self.elements)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphView):
            return NotImplemented
        return self.name == other.name and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.name, self.elements))


def graph_view_supersedes(
    larger: Set[Edge], smaller: Set[Edge], workload: Iterable[GraphQuery]
) -> bool:
    """Monotonicity property (graph views), Section 5.2.

    ``larger`` supersedes ``smaller`` iff ``smaller ⊂ larger`` and every
    workload query containing ``smaller`` also contains ``larger`` — then
    the bigger view helps wherever the smaller one would, and saves more.
    """
    smaller = frozenset(smaller)
    larger = frozenset(larger)
    if not (smaller < larger):
        return False
    return all(
        larger <= q.elements for q in workload if smaller <= q.elements
    )


class AggregateGraphView:
    """Pre-aggregated measures along a path, plus the path's bitmap.

    For a distributive function one stored column suffices; for an
    algebraic one (AVG) the view stores each distributive sub-aggregate
    (sum, count) so supergraph queries can still be answered exactly
    (Section 5.1.2).  ``column_names`` lists the stored ``mp`` columns in
    the master relation.
    """

    __slots__ = ("name", "path", "function")

    def __init__(self, name: str, path: Path, function: str = "sum"):
        if len(path) < 1 or (len(path) == 1 and not path.elements(frozenset())):
            raise ValueError("an aggregate view needs a path with >= 1 edge")
        self.name = name
        self.path = path
        self.function = function.lower()
        get_function(self.function)  # validate eagerly

    def __repr__(self) -> str:
        return f"AggregateGraphView({self.name!r}, {self.path!r}, {self.function})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateGraphView):
            return NotImplemented
        return (
            self.name == other.name
            and self.path == other.path
            and self.function == other.function
        )

    def __hash__(self) -> int:
        return hash((self.name, self.path, self.function))

    def stored_functions(self) -> tuple[str, ...]:
        """Distributive functions actually materialized as ``mp`` columns."""
        function = get_function(self.function)
        if function.distributive:
            return (self.function,)
        return function.sub_aggregates

    def column_names(self) -> tuple[str, ...]:
        return tuple(f"{self.name}:{fn}" for fn in self.stored_functions())

    def elements(self, measured_nodes: Set[Hashable] = frozenset()) -> tuple[Edge, ...]:
        """The structural elements the view's ``bp`` bitmap conjuncts."""
        return self.path.elements(measured_nodes) or self.path.edges()
