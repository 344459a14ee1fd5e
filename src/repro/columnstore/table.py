"""The master relation ``R(recid, m1..mn, b1..bn, views…)``.

Section 4.1's storage abstraction: one relational table whose rows are
graph records and whose columns are, per distinct structural element *i*,

* a measure column ``m_i`` (NULL when the record lacks element *i*), and
* a bitmap column ``b_i`` marking the records that contain element *i*.

Materialized graph views add bitmap columns ``bv_j`` and aggregate graph
views add column pairs ``(mp_l, bp_l)`` (Section 5.1.3).

Physically each measure column is sparse — the packed values of the records
containing the element, ranked by the edge bitmap (see
:mod:`~repro.columnstore.column`) — in RAM exactly as on disk, so database
size is governed by the number of recorded measures, not ``n_records ×
n_columns``.  ``base_size_bytes("dense")`` keeps the counterfactual behind
the paper's observation that a dense column store's footprint is independent
of record density (Figure 4).

Per Section 6.1 the relation is **vertically partitioned** into
sub-relations of at most ``partition_width`` element columns; a query whose
elements span several sub-relations must re-join them on ``recid``, which
this class simulates faithfully (sorted recid-set intersection per extra
partition) so the Figure 5 degradation is reproduced.

Column accesses are reported to an :class:`~repro.columnstore.iostats.IOStatsCollector`
— the unit of the paper's cost model.

Every storage class looks a bitmap column up by the planner's ``(kind,
token)`` ref, uncharged (``ref_bitmap``), and :func:`and_refs` is the one
AND over that lookup (§3.2) that the charged :meth:`MasterRelation.fold`,
the process pool's worker and the engine's view builder all run.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bitmap import Bitmap
from .column import MeasureColumn, RankedRows, rank_rows, sorted_cells
from .iostats import IOStatsCollector

__all__ = ["MasterRelation", "and_refs"]


def and_refs(
    lookup: Callable[[str, object], Bitmap | None],
    refs: Sequence[tuple[str, object]],
    length: int,
    check: Callable[[], None] | None = None,
    read: list | None = None,
) -> Bitmap:
    """The AND of the bitmaps ``lookup(kind, token)`` returns for ``refs``.

    ``lookup`` is a storage class's ``ref_bitmap``: a bitmap of ``length``
    bits, or None for an element that storage never saw, which makes the
    answer all-zero without ending the fold — the cost model charges every
    ref.  No refs AND to all-zero as well.  ``check``, when given, runs
    before every ref and stops the fold by raising (a deadline, a cancel).
    ``read``, when given, receives the kind of every ref whose bitmap was
    read, so a caller can charge for the refs read before a stop.
    """
    bitmaps = []
    absent = False
    for kind, token in refs:
        if check is not None:
            check()
        bitmap = lookup(kind, token)
        if bitmap is None:
            absent = True
            continue
        bitmaps.append(bitmap)
        if read is not None:
            read.append(kind)
    if absent or not bitmaps:
        return Bitmap.zeros(length)
    return bitmaps[0] if len(bitmaps) == 1 else Bitmap.and_all(bitmaps)


class VerticalPartitioning:
    """§6.1 geometry shared by the plain and the sharded relation: element
    ``i`` lives in sub-relation ``i // partition_width`` (in every shard)."""

    @property
    def n_element_columns(self) -> int:
        return len(self.element_ids())

    def partition_of(self, edge_id: int) -> int:
        """Index of the sub-relation holding element ``edge_id``."""
        return edge_id // self.partition_width

    @property
    def n_partitions(self) -> int:
        ids = self.element_ids()
        return self.partition_of(max(ids)) + 1 if ids else 0

    def partitions_for(self, edge_ids: Iterable[int]) -> set[int]:
        return {self.partition_of(i) for i in edge_ids}

    def simulate_partition_join(self, edge_ids: Iterable[int], rows: np.ndarray) -> None:
        """Model the recid re-join when a query spans sub-relations.

        Performs one sorted intersection of the matching recid set per
        partition beyond the first, so both wall-clock time and the
        ``partitions_joined`` counter reflect the spanning cost that
        Figure 5 measures.
        """
        partitions = self.partitions_for(edge_ids)
        self.collector.record_partition_join(len(partitions))
        for _ in range(max(len(partitions) - 1, 0)):
            np.intersect1d(rows, rows, assume_unique=True)


class MasterRelation(VerticalPartitioning):
    """Columnar storage for a collection of graph records."""

    def __init__(
        self,
        partition_width: int = 1000,
        collector: IOStatsCollector | None = None,
    ):
        if partition_width < 1:
            raise ValueError("partition_width must be >= 1")
        self.partition_width = partition_width
        self.collector = collector if collector is not None else IOStatsCollector()
        self._n_records = 0
        # Per element column id: the packed column, which may lag behind
        # the record count, and the (rows, values) appended row by row since
        # it was last merged.  _column() folds the tail in on first use.
        self._columns: dict[int, MeasureColumn] = {}
        self._tails: dict[int, tuple[list[int], list[float]]] = {}
        self._graph_views: dict[str, Bitmap] = {}
        self._aggregate_views: dict[str, MeasureColumn] = {}
        # Views the persistence layer refused to load (name, reason) —
        # populated by load_relation when a view file fails verification.
        self.dropped_views: list[tuple[str, str]] = []
        # Application metadata persisted inside the manifest (committed in
        # the same atomic swap as the columns); None until loaded/saved.
        self.app_meta: dict | None = None

    # -- loading -------------------------------------------------------------

    def append_row(self, cells: Mapping[int, float]) -> int:
        """Append one record row; ``cells`` maps element id → measure.

        Returns the row index (position in every column / bitmap).
        """
        if not cells:
            raise ValueError("a record row must have at least one measure")
        row = self._n_records
        for edge_id, value in cells.items():
            if edge_id < 0:
                raise ValueError("element ids must be non-negative")
            rows, vals = self._tails.setdefault(edge_id, ([], []))
            rows.append(row)
            vals.append(float(value))
        self._n_records += 1
        return row

    def load_sparse_column(
        self, edge_id: int, row_indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Bulk-load one element column from parallel (row, value) arrays.

        Fast path used by the workload generators; rows must not exceed the
        current record count set via :meth:`set_record_count`.  Rows are
        sorted once if they arrive unsorted; a row given twice (here or by
        an earlier load of the same column) is a ``ValueError``.
        """
        if self.has_element(edge_id):
            loaded = self._column(edge_id)
            row_indices = np.concatenate([loaded.validity.to_indices(), row_indices])
            values = np.concatenate([loaded.packed(), values])
        rows, vals = sorted_cells(row_indices, values, self._n_records)
        self._columns[edge_id] = MeasureColumn(
            vals, Bitmap.from_indices(self._n_records, rows)
        )

    def put_column(self, edge_id: int, column: MeasureColumn) -> None:
        """Install an already packed element column (load and reshard)."""
        if len(column) != self._n_records:
            raise ValueError("column length must equal the record count")
        self._columns[edge_id] = column
        self._tails.pop(edge_id, None)

    def set_record_count(self, n_records: int) -> None:
        """Declare the number of rows before sparse-column bulk loading."""
        if n_records < self._n_records:
            raise ValueError("cannot shrink the relation")
        self._n_records = n_records

    # -- geometry ---------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self._n_records

    def shard_relations(self) -> list["MasterRelation"]:
        """Record-range shards (the :class:`StorageBackend` seam): a plain
        relation is its own single shard covering every record."""
        return [self]

    def shard_starts(self) -> list[int]:
        """Global row offset of each shard; ``[0]`` for a single relation."""
        return [0]

    def split_rows(self, rows: np.ndarray) -> RankedRows:
        """What :meth:`measures` gathers at, prepared once for a query
        that gathers several columns; a single relation routes nothing and
        only prepares the rank lookups."""
        return rank_rows(rows)

    def element_ids(self) -> list[int]:
        """All element column ids, ascending."""
        return sorted(self._columns.keys() | self._tails.keys())

    # -- column access -------------------------------------------------------------

    def _column(self, edge_id: int) -> MeasureColumn:
        """The element's packed column at the current record count, folding
        in whatever rows were appended since it was last asked for.

        Readers run concurrently (appends do not), so the merge builds a
        new column and publishes it with one assignment before retiring the
        tail — and reads the tail *first*: a reader that finds no tail then
        finds the column some other reader already merged.
        """
        tail = self._tails.get(edge_id)
        column = self._columns.get(edge_id)
        if column is None:
            if tail is None:
                raise KeyError(f"no column for element id {edge_id}")
            column = MeasureColumn.nulls(0)
        elif len(column) == self._n_records:
            return column
        rows, vals = tail if tail is not None else ((), ())
        column = column.appended(rows, vals, self._n_records)
        self._columns[edge_id] = column
        self._tails.pop(edge_id, None)
        return column

    def has_element(self, edge_id: int) -> bool:
        return edge_id in self._columns or edge_id in self._tails

    def ref_bitmap(self, kind: str, token) -> Bitmap | None:
        """The bitmap column a planner ref names, uncharged: ``b_i`` for
        ``("element", i)`` — None when this relation (shard) never saw
        element *i* — else a graph view's ``bv_j`` or an aggregate view's
        ``bp_l``.  A missing view is a ``KeyError``, a stale one raises."""
        if kind == "element":
            column = self._columns.get(token)
            if column is not None and len(column) == self._n_records:
                return column.validity  # up to date: the fold's common case
            if column is None and token not in self._tails:
                return None
            return self._column(token).validity
        if kind == "graph-view":
            bitmap = self._graph_views[token]
        else:
            bitmap = self._aggregate_views[token].validity
        self._check_fresh(bitmap.length, token)
        return bitmap

    def fold(self, refs, ctx=None) -> Bitmap:
        """AND the bitmap columns named by ``refs`` (:func:`and_refs`) and
        charge the I/O with one collector call.

        ``ctx`` (a :class:`repro.resilience.QueryContext` or None) is
        checked before every ref.  The charge is one fetch per ref read,
        a stopped fold's included: an element this relation (shard) never
        saw is an all-zero segment with no charge — the planner has
        already checked it exists somewhere.
        """
        read: list[str] = []
        try:
            return and_refs(
                self.ref_bitmap, refs, self._n_records,
                None if ctx is None else ctx.check, read,
            )
        finally:
            # Every bitmap read is n_records long: one size for all.
            n_base = read.count("element")
            nbytes = len(read) * 8 * ((self._n_records + 63) // 64)
            self.collector.record_bitmap_fetches(n_base, len(read) - n_base, nbytes)

    def measures(
        self, edge_id: int, rows: np.ndarray | RankedRows | None = None
    ) -> np.ndarray:
        """Fetch measure column ``m_i`` (counted as one measure fetch).

        With ``rows`` given, gathers only those positions (NaN = NULL);
        otherwise returns the full column.
        """
        column = self._column(edge_id)
        out = column.values() if rows is None else column.take(rows)
        self.collector.record_measure_fetch(int(out.size))
        return out

    # -- views -----------------------------------------------------------------------

    def add_graph_view(self, name: str, bitmap: Bitmap) -> None:
        """Store a graph view: one precomputed bitmap column (§5.1.1)."""
        if bitmap.length != self._n_records:
            raise ValueError("view bitmap length must equal the record count")
        if name in self._graph_views:
            raise ValueError(f"graph view {name!r} already exists")
        self._graph_views[name] = bitmap

    def graph_view_names(self) -> list[str]:
        return sorted(self._graph_views)

    def has_graph_view(self, name: str) -> bool:
        return name in self._graph_views

    def drop_graph_view(self, name: str) -> None:
        """Remove one graph view's bitmap column (missing names are a no-op,
        so degraded loads can be re-pruned idempotently)."""
        self._graph_views.pop(name, None)

    def _check_fresh(self, length: int, name: str) -> None:
        if length != self._n_records:
            raise RuntimeError(
                f"view {name!r} is stale ({length} bits for "
                f"{self._n_records} records); extend it after appending "
                "records (see extend_graph_view / extend_aggregate_view)"
            )

    def extend_graph_view(self, name: str, flags) -> None:
        """Incremental maintenance: append one precomputed bit per newly
        appended record to a graph view's bitmap."""
        self._graph_views[name] = self._graph_views[name].extended(flags)

    def extend_aggregate_view(self, name: str, cells) -> None:
        """Incremental maintenance: append one precomputed aggregate (or
        NULL) per newly appended record to an aggregate view's column."""
        self._aggregate_views[name] = self._aggregate_views[name].extended(cells)

    def add_aggregate_view(self, name: str, column: MeasureColumn) -> None:
        """Store an aggregate graph view ``(mp_l, bp_l)`` (§5.1.2).

        The column's validity bitmap doubles as ``bp_l`` — a record has a
        stored aggregate exactly when it contains the path.
        """
        if len(column) != self._n_records:
            raise ValueError("view column length must equal the record count")
        if name in self._aggregate_views:
            raise ValueError(f"aggregate view {name!r} already exists")
        self._aggregate_views[name] = column

    def aggregate_view_names(self) -> list[str]:
        return sorted(self._aggregate_views)

    def has_aggregate_view(self, name: str) -> bool:
        return name in self._aggregate_views

    def drop_aggregate_view(self, name: str) -> None:
        """Remove one aggregate view's column pair (missing names are a
        no-op, so degraded loads can be re-pruned idempotently)."""
        self._aggregate_views.pop(name, None)

    def aggregate_view_measures(
        self, name: str, rows: np.ndarray | RankedRows | None = None
    ) -> np.ndarray:
        """Fetch ``mp_l`` for an aggregate view (counted as a view fetch)."""
        column = self._aggregate_views[name]
        self._check_fresh(len(column), name)
        out = column.values() if rows is None else column.take(rows)
        self.collector.record_measure_fetch(int(out.size), is_view=True)
        return out

    def drop_views(self) -> None:
        """Remove all materialized views (used by budget-sweep benchmarks)."""
        self._graph_views.clear()
        self._aggregate_views.clear()

    # -- footprint ---------------------------------------------------------------------

    def base_size_bytes(self, model: str = "sparse") -> int:
        """On-disk footprint of measure + bitmap columns (no views).

        ``model="sparse"`` counts only non-NULL cells (vertical compression,
        the footprint our persistence layer actually writes); ``"dense"``
        counts every cell, MonetDB-BAT-style — the model under which the
        column store's size is independent of record density (Figure 4).
        """
        if model not in ("sparse", "dense"):
            raise ValueError(f"unknown size model {model!r}")
        total = 0
        for edge_id in self.element_ids():
            column = self._column(edge_id)
            if model == "sparse":
                total += column.nbytes()  # m_i (sparse) incl. validity
            else:
                total += column.nbytes_dense()
            total += column.validity.nbytes()  # b_i stored explicitly
        # recid key column: one int64 per record.
        total += 8 * self._n_records
        return total

    def views_size_bytes(self) -> int:
        """On-disk footprint of the materialized views."""
        total = sum(bm.nbytes() for bm in self._graph_views.values())
        for column in self._aggregate_views.values():
            total += column.nbytes() + column.validity.nbytes()
        return total

    def disk_size_bytes(self) -> int:
        return self.base_size_bytes() + self.views_size_bytes()

    # -- internal access for persistence ---------------------------------------------

    def column_for_persistence(self, edge_id: int) -> MeasureColumn:
        return self._column(edge_id)

    def graph_views_for_persistence(self) -> dict[str, Bitmap]:
        return dict(self._graph_views)

    def aggregate_views_for_persistence(self) -> dict[str, MeasureColumn]:
        return dict(self._aggregate_views)
