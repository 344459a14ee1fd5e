"""Horizontal record partitioning: the sharded master relation.

The paper scales the master relation *vertically* (sub-relations of at
most 1000 columns, §6.1); :class:`ShardedTable` adds the horizontal
dimension the ROADMAP's serving goals need.  The record space is split
into contiguous **record-range shards**, each a full
:class:`~repro.columnstore.table.MasterRelation` holding that range's
slice of every measure column, edge bitmap, and view column.  Because
shards are contiguous and ordered, every merge combiner is a plain
order-preserving concatenation:

* structural bitmaps — ``Bitmap.concat`` of the per-shard segments, a
  copy of their words when the cuts fall on 64-record boundaries;
* matching rows — each shard's local indices shifted by its start offset;
* measure vectors / path aggregates — per-shard gathers written back into
  the caller's row order.

A packed measure column (:mod:`~repro.columnstore.column`) is cut at the rank
of each shard boundary, so resharding, rebalancing and merging move views of
the packed values and never expand a column to one cell per row.

The first batch into an empty table splits evenly, on multiples of 64
records once every shard would hold at least 64 (the last shard takes the
remainder), so every shard's bitmap segments are whole words.  Later
appends only touch the **last** shard (boundaries of the earlier shards
are immutable), queueing tail chunks there; ``rebalance()`` re-splits
after bulk loads.  A store saved with unaligned cuts loads with them and
answers the same: only the merge is slower, until a ``rebalance()`` or a
reshard aligns it.

On disk a table is one relation: :func:`~repro.columnstore.persistence.save_relation`
writes the merged columns and records the cuts in the manifest, and
:func:`~repro.columnstore.persistence.load_relation` cuts the loaded
columns back at exactly those sizes (:meth:`ShardedTable.cut`).  A view
is usable only while every shard holds its segment; a damaged view file
drops it from the whole table, and the engine's pruning degrades the plan
to base bitmaps.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .bitmap import _WORD_BITS, Bitmap
from .column import MeasureColumn, rank_rows
from .iostats import IOStatsCollector
from .table import MasterRelation, VerticalPartitioning

__all__ = ["RowSplit", "ShardedTable"]


class RowSplit(NamedTuple):
    """Global rows routed to their shards (:meth:`ShardedTable.split_rows`):
    per shard that holds any, ``(shard, where, local rows)`` — ``where``
    indexes the caller's row order, a slice when the rows came sorted; the
    local rows are ``RankedRows``, prepared once for every column gathered."""

    size: int
    pieces: list


def _copy_contents(source, target):
    """Fill the empty, already sized ``target`` backend with ``source``'s
    columns and views.  Packed columns are sliced or joined whole — never
    expanded to a cell per row."""
    for edge_id in source.element_ids():
        target.put_column(edge_id, source.column_for_persistence(edge_id))
    for name, bitmap in source.graph_views_for_persistence().items():
        target.add_graph_view(name, bitmap)
    for name, column in source.aggregate_views_for_persistence().items():
        target.add_aggregate_view(name, column)
    target.dropped_views = list(source.dropped_views)
    target.app_meta = source.app_meta
    return target


def _first_split(n_records: int, n_shards: int) -> list[int]:
    """Shard sizes for the first batch into an empty table: an even split,
    in whole 64-record words once every shard would hold at least one, the
    last shard taking the remainder.  Word-aligned cuts make every shard's
    bitmap segment whole words, so :meth:`Bitmap.concat` merges segments
    by copying words and the segments' words add up to the unsharded
    column's."""
    unit = _WORD_BITS if n_records >= _WORD_BITS * n_shards else 1
    base, extra = divmod(n_records // unit, n_shards)
    sizes = [unit * (base + (i < extra)) for i in range(n_shards)]
    sizes[-1] += n_records % unit
    return sizes


class ShardedTable(VerticalPartitioning):
    """A master relation horizontally partitioned into record-range shards.

    Implements the same :class:`~repro.columnstore.backend.StorageBackend`
    contract as :class:`MasterRelation`; the global accessors merge across
    shards, while the engine's operator layer reaches the per-shard
    relations through :meth:`shard_relations` for parallel evaluation.

    All shards share one I/O collector: fetching a logical column that is
    split across *k* shards records *k* (smaller) column fetches — each
    shard reads its own segment of the column.
    """

    def __init__(
        self,
        n_shards: int,
        partition_width: int = 1000,
        collector: IOStatsCollector | None = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.partition_width = partition_width
        self._collector = collector if collector is not None else IOStatsCollector()
        self.shards = [
            MasterRelation(partition_width=partition_width, collector=self._collector)
            for _ in range(n_shards)
        ]
        # (shard list, starts) behind shard_starts().
        self._cuts: tuple[list, list[int]] | None = None
        self.dropped_views: list[tuple[str, str]] = []
        self.app_meta: dict | None = None

    # -- collector plumbing --------------------------------------------------

    @property
    def collector(self) -> IOStatsCollector:
        return self._collector

    @collector.setter
    def collector(self, value: IOStatsCollector) -> None:
        self._collector = value
        for shard in self.shards:
            shard.collector = value

    # -- geometry ------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_relations(self) -> list[MasterRelation]:
        return list(self.shards)

    def shard_starts(self) -> list[int]:
        """Global row offset of each shard, memoized on the shard list: the
        cuts move only when ``shards`` does (reshard, rebalance, a shard
        replaced in place) or at the first split, which drops the memo —
        later appends grow the last shard, whose start stays."""
        cuts = self._cuts
        if cuts is None or cuts[0] != self.shards:
            starts, offset = [], 0
            for shard in self.shards:
                starts.append(offset)
                offset += shard.n_records
            cuts = self._cuts = (list(self.shards), starts)
        return list(cuts[1])

    def split_rows(self, rows: np.ndarray) -> RowSplit:
        """Route global ``rows`` to their shards.  :meth:`measures` and
        :meth:`aggregate_view_measures` take the result in place of
        ``rows``, so a query that gathers several columns at the same rows
        routes them once.  Sorted rows (``Bitmap.to_indices``) cut into one
        contiguous slice per shard; any other order falls back to masks."""
        rows = np.asarray(rows, dtype=np.int64)
        bounds = self._bounds()
        if (rows[1:] >= rows[:-1]).all():
            cuts = np.searchsorted(rows, bounds).tolist()
            in_range = cuts[0] == 0 and cuts[-1] == rows.size
            wheres = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        else:
            sidx = np.searchsorted(bounds[1:], rows, side="right")
            in_range = rows.min() >= 0 and sidx.max() < len(self.shards)
            wheres = [sidx == i for i in range(len(self.shards))]
        if not in_range:
            raise IndexError(f"row out of range for a table of {bounds[-1]} records")
        pieces = []
        for shard, where, start in zip(self.shards, wheres, bounds):
            local = rows[where]
            if local.size:
                pieces.append((shard, where, rank_rows(local - start)))
        return RowSplit(rows.size, pieces)

    @property
    def n_records(self) -> int:
        return sum(shard.n_records for shard in self.shards)

    def element_ids(self) -> list[int]:
        ids: set[int] = set()
        for shard in self.shards:
            ids.update(shard.element_ids())
        return sorted(ids)

    # -- loading -------------------------------------------------------------

    def append_columns(self, n_new: int, columns: Mapping[int, tuple]) -> int:
        """:meth:`MasterRelation.append_columns` on the last shard (earlier
        shard boundaries are immutable); an empty table instead splits the
        batch (:func:`_first_split`), each shard taking the cells in its
        range."""
        first = self.n_records
        if first:
            self.shards[-1].append_columns(n_new, columns)
            return first
        sizes = _first_split(n_new, len(self.shards))
        bounds = np.cumsum([0, *sizes]).tolist()
        pieces: list[dict] = [{} for _ in self.shards]
        for edge_id, (rows, vals) in columns.items():
            rows, vals = np.asarray(rows, dtype=np.int64), np.asarray(vals)
            cuts = np.searchsorted(rows, bounds).tolist()
            for piece, start, lo, hi in zip(pieces, bounds, cuts, cuts[1:]):
                if hi > lo:
                    piece[edge_id] = (rows[lo:hi] - start, vals[lo:hi])
        for shard, size, piece in zip(self.shards, sizes, pieces):
            shard.append_columns(size, piece)
        self._cuts = None
        return first

    def set_record_count(self, n_records: int) -> None:
        """Declare the row count before :meth:`put_column` installs packed
        columns; the new rows spread as :meth:`append_columns` spreads them."""
        if n_records < self.n_records:
            raise ValueError("cannot shrink the relation")
        self.append_columns(n_records - self.n_records, {})

    def _bounds(self) -> list[int]:
        """Shard boundaries: every start, then the record count."""
        return [*self.shard_starts(), self.n_records]

    def put_column(self, edge_id: int, column: MeasureColumn) -> None:
        """Install a packed global column, cut at the shard boundaries; a
        shard the element never occurs in gets no column at all."""
        if len(column) != self.n_records:
            raise ValueError("column length must equal the record count")
        bounds = self._bounds()
        for shard, lo, hi in zip(self.shards, bounds, bounds[1:]):
            piece = column.slice(lo, hi)
            if piece.non_null_count():
                shard.put_column(edge_id, piece)

    def rebalance(self) -> None:
        """Re-split the record space into even contiguous ranges, cut as
        the first batch is (:func:`_first_split`).

        Loads into a non-empty table land in the last shard; rebalancing
        afterwards restores balanced shards.  Global record order, columns,
        and views are preserved bit-for-bit — only the shard boundaries move.
        """
        if len(self.shards) > 1:
            self.shards = ShardedTable.from_relation(self, len(self.shards)).shards

    @classmethod
    def from_relation(cls, relation, n_shards: int) -> "ShardedTable":
        """Horizontally partition an existing relation (or re-shard a
        sharded one) into ``n_shards`` balanced record ranges."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        return cls.cut(relation, _first_split(relation.n_records, n_shards))

    @classmethod
    def cut(cls, relation, sizes: list[int]) -> "ShardedTable":
        """Partition an existing relation into record ranges of exactly
        ``sizes`` (summing to its record count) — how a saved table loads
        at its saved cuts.  Shards take slices of the relation's columns:
        views of its words where a cut falls on a 64-record boundary."""
        table = cls(
            len(sizes),
            partition_width=relation.partition_width,
            collector=relation.collector,
        )
        for shard, n_records in zip(table.shards, sizes):
            shard.set_record_count(n_records)
        return _copy_contents(relation, table)

    def to_relation(self) -> MasterRelation:
        """Merge the shards back into one plain :class:`MasterRelation`."""
        relation = MasterRelation(
            partition_width=self.partition_width, collector=self._collector
        )
        relation.set_record_count(self.n_records)
        return _copy_contents(self, relation)

    # -- column access -------------------------------------------------------

    def has_element(self, edge_id: int) -> bool:
        return any(shard.has_element(edge_id) for shard in self.shards)

    def ref_bitmap(self, kind: str, token) -> Bitmap | None:
        """The global bitmap a ref names, uncharged: the shards' segments
        concatenated in order, all-zero in a shard that never saw the
        element — None only when no shard did."""
        segments = [shard.ref_bitmap(kind, token) for shard in self.shards]
        if all(segment is None for segment in segments):
            return None
        return Bitmap.concat(
            Bitmap.zeros(shard.n_records) if segment is None else segment
            for shard, segment in zip(self.shards, segments)
        )

    def fold(self, refs, ctx=None) -> Bitmap:
        """The global AND of ``refs``: every shard's charged
        :meth:`MasterRelation.fold`, concatenated — one fetch per (ref,
        shard), none where the shard never saw the element."""
        return Bitmap.concat(shard.fold(refs, ctx) for shard in self.shards)

    def _route_gather(self, rows: np.ndarray | RowSplit, fetch) -> np.ndarray:
        """Gather per-shard values for global ``rows``, preserving the
        caller's row order.  ``fetch(shard, local_rows)`` returns the
        shard's values; absent columns come back NaN."""
        split = rows if isinstance(rows, RowSplit) else self.split_rows(rows)
        out = np.full(split.size, np.nan)
        for shard, where, local in split.pieces:
            out[where] = fetch(shard, local)
        return out

    def measures(
        self, edge_id: int, rows: np.ndarray | RowSplit | None = None
    ) -> np.ndarray:
        if rows is None:
            return np.concatenate(
                [
                    shard.measures(edge_id)
                    if shard.has_element(edge_id)
                    else np.full(shard.n_records, np.nan)
                    for shard in self.shards
                ]
            )
        return self._route_gather(
            rows,
            lambda shard, local: shard.measures(edge_id, local)
            if shard.has_element(edge_id)
            else np.full(local.size, np.nan),
        )

    # -- views ---------------------------------------------------------------

    def add_graph_view(self, name: str, bitmap: Bitmap) -> None:
        """Store a graph view, split into per-shard bitmap segments."""
        if bitmap.length != self.n_records:
            raise ValueError("view bitmap length must equal the record count")
        bounds = self._bounds()
        for shard, lo, hi in zip(self.shards, bounds, bounds[1:]):
            shard.add_graph_view(name, bitmap.slice(lo, hi))

    def has_graph_view(self, name: str) -> bool:
        """A view is usable only when *every* shard holds its segment (a
        shard-local integrity failure degrades the view globally)."""
        return all(shard.has_graph_view(name) for shard in self.shards)

    def graph_view_names(self) -> list[str]:
        names = set(self.shards[0].graph_view_names())
        for shard in self.shards[1:]:
            names &= set(shard.graph_view_names())
        return sorted(names)

    def drop_graph_view(self, name: str) -> None:
        for shard in self.shards:
            shard.drop_graph_view(name)

    def _lagging(self, n_delta: int):
        """``(shard, lo, hi)`` per shard a view delta (the newest ``n_delta``
        rows) reaches: the slice of it that shard's view segment lags by."""
        bounds = self._bounds()
        old = bounds[-1] - n_delta
        for shard, lo, hi in zip(self.shards, bounds, bounds[1:]):
            if hi > old:
                yield shard, max(lo - old, 0), hi - old

    def extend_graph_view(self, name: str, delta: Bitmap) -> None:
        for shard, lo, hi in self._lagging(delta.length):
            shard.extend_graph_view(name, delta.slice(lo, hi))

    def add_aggregate_view(self, name: str, column: MeasureColumn) -> None:
        if len(column) != self.n_records:
            raise ValueError("view column length must equal the record count")
        bounds = self._bounds()
        for shard, lo, hi in zip(self.shards, bounds, bounds[1:]):
            shard.add_aggregate_view(name, column.slice(lo, hi))

    def aggregate_view_measures(
        self, name: str, rows: np.ndarray | RowSplit | None = None
    ) -> np.ndarray:
        if rows is None:
            return np.concatenate(
                [shard.aggregate_view_measures(name) for shard in self.shards]
            )
        return self._route_gather(
            rows, lambda shard, local: shard.aggregate_view_measures(name, local)
        )

    def has_aggregate_view(self, name: str) -> bool:
        return all(shard.has_aggregate_view(name) for shard in self.shards)

    def aggregate_view_names(self) -> list[str]:
        names = set(self.shards[0].aggregate_view_names())
        for shard in self.shards[1:]:
            names &= set(shard.aggregate_view_names())
        return sorted(names)

    def drop_aggregate_view(self, name: str) -> None:
        for shard in self.shards:
            shard.drop_aggregate_view(name)

    def extend_aggregate_view(self, name: str, delta: MeasureColumn) -> None:
        for shard, lo, hi in self._lagging(len(delta)):
            shard.extend_aggregate_view(name, delta.slice(lo, hi))

    def drop_views(self) -> None:
        for shard in self.shards:
            shard.drop_views()

    # -- footprint -----------------------------------------------------------

    def base_size_bytes(self, model: str = "sparse") -> int:
        return sum(shard.base_size_bytes(model) for shard in self.shards)

    def views_size_bytes(self) -> int:
        return sum(shard.views_size_bytes() for shard in self.shards)

    def disk_size_bytes(self) -> int:
        return self.base_size_bytes() + self.views_size_bytes()

    # -- merged access for persistence/materialization ----------------------

    def _merged_column(self, edge_id: int) -> MeasureColumn:
        return MeasureColumn.concat(
            shard.column_for_persistence(edge_id)
            if shard.has_element(edge_id)
            else MeasureColumn.nulls(shard.n_records)
            for shard in self.shards
        )

    def column_for_persistence(self, edge_id: int) -> MeasureColumn:
        """Merged global column (no I/O accounting) — the same contract as
        :meth:`MasterRelation.column_for_persistence`, used by view
        materialization and format conversion."""
        if not self.has_element(edge_id):
            raise KeyError(f"no column for element id {edge_id}")
        return self._merged_column(edge_id)

    def graph_views_for_persistence(self) -> dict[str, Bitmap]:
        return {
            name: Bitmap.concat(
                shard.graph_views_for_persistence()[name] for shard in self.shards
            )
            for name in self.graph_view_names()
        }

    def aggregate_views_for_persistence(self) -> dict[str, MeasureColumn]:
        return {
            name: MeasureColumn.concat(
                shard.aggregate_views_for_persistence()[name] for shard in self.shards
            )
            for name in self.aggregate_view_names()
        }
