"""Edge catalog: the universal naming scheme for structural elements.

Section 3.1 assumes nodes are labeled with a universally adopted schema so
records and queries can refer to the same identifiers.  Section 4.1 then
assigns each distinct structural element (edge, or node-as-self-edge) a
unique integer id *i*, which names the master relation's columns ``m_i``
and ``b_i``.  The catalog is the bidirectional element ↔ id mapping and
grows on demand as new elements appear in loaded records (Section 6.1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Hashable

from .record import Edge

__all__ = ["EdgeCatalog"]


class EdgeCatalog:
    """Bidirectional mapping between structural elements and column ids."""

    def __init__(self) -> None:
        self._edge_to_id: dict[Edge, int] = {}
        self._id_to_edge: list[Edge] = []

    def __len__(self) -> int:
        return len(self._id_to_edge)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._edge_to_id

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._id_to_edge)

    def intern(self, edge: Edge) -> int:
        """Return the id for ``edge``, assigning a fresh one if unseen."""
        existing = self._edge_to_id.get(edge)
        if existing is not None:
            return existing
        new_id = len(self._id_to_edge)
        self._edge_to_id[edge] = new_id
        self._id_to_edge.append(edge)
        return new_id

    def id_of(self, edge: Edge) -> int:
        """Id of a known element; KeyError if never interned."""
        return self._edge_to_id[edge]

    def get_id(self, edge: Edge) -> int | None:
        return self._edge_to_id.get(edge)

    def edge_of(self, edge_id: int) -> Edge:
        """Element for a known id; IndexError if out of range."""
        if edge_id < 0:
            raise IndexError("edge id must be non-negative")
        return self._id_to_edge[edge_id]

    def ids_of(self, edges: Iterable[Edge]) -> list[int]:
        """Ids for known elements; KeyError if any is unknown."""
        return [self._edge_to_id[e] for e in edges]

    def known_ids(self, edges: Iterable[Edge]) -> list[int] | None:
        """Ids for the elements, or None if any element is unknown.

        A query mentioning an element never seen in any record has an empty
        answer; callers use the ``None`` to short-circuit.
        """
        out: list[int] = []
        for edge in edges:
            edge_id = self._edge_to_id.get(edge)
            if edge_id is None:
                return None
            out.append(edge_id)
        return out

    def nodes(self) -> frozenset[Hashable]:
        """All node names appearing in any catalogued element."""
        out: set[Hashable] = set()
        for u, v in self._id_to_edge:
            out.add(u)
            out.add(v)
        return frozenset(out)
