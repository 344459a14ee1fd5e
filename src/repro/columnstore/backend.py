"""The storage-backend seam between the engine and its column store.

The engine's operator layer evaluates plans against *whatever* holds the
master relation's columns: the plain in-memory :class:`MasterRelation`,
the horizontally partitioned :class:`~repro.columnstore.sharded.ShardedTable`,
or a relation freshly rehydrated by the persistence layer
(:func:`~repro.columnstore.persistence.load_relation` returns either, cut
at the shard sizes its manifest records).  :class:`StorageBackend` names
the contract so the seam is explicit and checkable —
``isinstance(obj, StorageBackend)`` works because the protocol is
``runtime_checkable``.

A bitmap column is reached by the planner's ``(kind, token)`` ref, through
two methods: ``ref_bitmap(kind, token)``, the uncharged lookup, and
``fold(refs, ctx=None)``, the AND of a ref list charged to the I/O
collector one fetch per (ref, shard).  Both run the one AND,
:func:`~repro.columnstore.table.and_refs`, which the process pool's worker
and the engine's view builder call too.

Records are written by one call, ``append_columns(n_new, columns)``: per
element id the batch's ``(rows, values)``, rows local to the batch, queued
as tail chunks merged on first read.  Views then take the new rows' delta
from the builders that made them (``extend_graph_view`` /
``extend_aggregate_view``).

Three structural extras distinguish a horizontally partitioned backend:

* ``shard_relations()`` — the ordered list of record-range shards, each a
  plain :class:`MasterRelation` holding a contiguous slice of the record
  space (a single relation returns ``[self]``); the operator layer folds
  a plan's storage refs over each with one ``MasterRelation.fold`` call;
* ``shard_starts()`` — the global row offset of each shard, used by the
  order-preserving merge combiners (global row = shard start + local row);
* ``split_rows(rows)`` — global rows routed to their shards once, accepted
  by ``measures`` / ``aggregate_view_measures`` in place of ``rows`` (a
  single relation only prepares the rank lookups).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Protocol, runtime_checkable

import numpy as np

from .bitmap import Bitmap
from .column import MeasureColumn

__all__ = ["StorageBackend"]


@runtime_checkable
class StorageBackend(Protocol):
    """What the engine requires of a master-relation store.

    Method semantics match :class:`MasterRelation`, the reference
    implementation; see its docstrings for the paper mapping (``b_i``
    bitmaps, ``m_i`` measure columns, ``bv_j`` / ``(mp_l, bp_l)`` views,
    §6.1 vertical partitioning).
    """

    # -- geometry -----------------------------------------------------------

    @property
    def n_records(self) -> int: ...

    @property
    def n_element_columns(self) -> int: ...

    def element_ids(self) -> list[int]: ...

    def partitions_for(self, edge_ids: Iterable[int]) -> set[int]: ...

    # -- horizontal partitioning -------------------------------------------

    def shard_relations(self) -> list: ...

    def shard_starts(self) -> list[int]: ...

    def split_rows(self, rows: np.ndarray): ...

    # -- loading ------------------------------------------------------------

    def append_columns(self, n_new: int, columns: Mapping[int, tuple]) -> int: ...

    def set_record_count(self, n_records: int) -> None: ...

    # -- column access ------------------------------------------------------

    def has_element(self, edge_id: int) -> bool: ...

    def ref_bitmap(self, kind: str, token) -> Bitmap | None: ...

    def fold(self, refs, ctx=None) -> Bitmap: ...

    def measures(
        self, edge_id: int, rows: np.ndarray | None = None
    ) -> np.ndarray: ...

    def simulate_partition_join(
        self, edge_ids: Iterable[int], rows: np.ndarray
    ) -> None: ...

    # -- views --------------------------------------------------------------

    def add_graph_view(self, name: str, bitmap: Bitmap) -> None: ...

    def has_graph_view(self, name: str) -> bool: ...

    def add_aggregate_view(self, name: str, column: MeasureColumn) -> None: ...

    def aggregate_view_measures(
        self, name: str, rows: np.ndarray | None = None
    ) -> np.ndarray: ...

    def has_aggregate_view(self, name: str) -> bool: ...

    def drop_views(self) -> None: ...

    # -- footprint ----------------------------------------------------------

    def disk_size_bytes(self) -> int: ...
