"""The master relation ``R(recid, m1..mn, b1..bn, views…)``.

Section 4.1's storage abstraction: one relational table whose rows are
graph records and whose columns are, per distinct structural element *i*,

* a measure column ``m_i`` (NULL when the record lacks element *i*), and
* a bitmap column ``b_i`` marking the records that contain element *i*.

Materialized graph views add bitmap columns ``bv_j`` and aggregate graph
views add column pairs ``(mp_l, bp_l)`` (Section 5.1.3).

Physically each measure column is sparse (values for the records containing
the element plus a validity bitmap) so database size is governed by the
number of recorded measures, not ``n_records × n_columns`` — matching the
paper's observation that the column store's footprint is independent of
record density (Figure 4).

Per Section 6.1 the relation is **vertically partitioned** into
sub-relations of at most ``partition_width`` element columns; a query whose
elements span several sub-relations must re-join them on ``recid``, which
this class simulates faithfully (sorted recid-set intersection per extra
partition) so the Figure 5 degradation is reproduced.

Column accesses are reported to an :class:`~repro.columnstore.iostats.IOStatsCollector`
— the unit of the paper's cost model.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from .bitmap import Bitmap
from .column import MeasureColumn
from .iostats import IOStatsCollector

__all__ = ["MasterRelation"]


class MasterRelation:
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
        # Per element column id: parallel lists of (row index, value) pairs
        # accumulated during load, finalized lazily into MeasureColumns.
        self._pending_rows: dict[int, list[int]] = {}
        self._pending_vals: dict[int, list[float]] = {}
        self._columns: dict[int, MeasureColumn] = {}
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
            self._pending_rows.setdefault(edge_id, []).append(row)
            self._pending_vals.setdefault(edge_id, []).append(float(value))
            self._columns.pop(edge_id, None)
        self._n_records += 1
        return row

    def append_rows(self, rows: Iterable[Mapping[int, float]]) -> list[int]:
        return [self.append_row(r) for r in rows]

    def load_sparse_column(
        self, edge_id: int, row_indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Bulk-load one element column from parallel (row, value) arrays.

        Fast path used by the workload generators; rows must not exceed the
        current record count set via :meth:`set_record_count`.
        """
        rows = np.asarray(row_indices, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if rows.shape != vals.shape:
            raise ValueError("row/value arrays must be parallel")
        if rows.size and (rows.min() < 0 or rows.max() >= self._n_records):
            raise IndexError("row index out of range; call set_record_count first")
        self._pending_rows.setdefault(edge_id, []).extend(rows.tolist())
        self._pending_vals.setdefault(edge_id, []).extend(vals.tolist())
        self._columns.pop(edge_id, None)

    def set_record_count(self, n_records: int) -> None:
        """Declare the number of rows before sparse-column bulk loading."""
        if n_records < self._n_records:
            raise ValueError("cannot shrink the relation")
        self._n_records = n_records
        self._columns.clear()

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

    def split_rows(self, rows: np.ndarray) -> np.ndarray:
        """What :meth:`measures` gathers at, prepared once for a query
        that gathers several columns; a single relation routes nothing."""
        return np.asarray(rows, dtype=np.int64)

    def element_ids(self) -> list[int]:
        """All element column ids, ascending."""
        ids = set(self._pending_rows) | set(self._columns)
        return sorted(ids)

    @property
    def n_element_columns(self) -> int:
        return len(set(self._pending_rows) | set(self._columns))

    def partition_of(self, edge_id: int) -> int:
        """Index of the sub-relation holding element ``edge_id`` (§6.1)."""
        return edge_id // self.partition_width

    @property
    def n_partitions(self) -> int:
        ids = self.element_ids()
        if not ids:
            return 0
        return self.partition_of(max(ids)) + 1

    def partitions_for(self, edge_ids: Iterable[int]) -> set[int]:
        return {self.partition_of(i) for i in edge_ids}

    # -- column access -------------------------------------------------------------

    def _materialize_column(self, edge_id: int) -> MeasureColumn:
        column = self._columns.get(edge_id)
        # A cached column is only valid while the relation hasn't grown:
        # appending a record that lacks this element leaves the cached
        # entry untouched but one bit short, so length-check rather than
        # trusting presence.
        if column is not None and len(column) == self._n_records:
            return column
        rows = self._pending_rows.get(edge_id)
        if rows is None:
            raise KeyError(f"no column for element id {edge_id}")
        values = np.full(self._n_records, np.nan)
        row_arr = np.asarray(rows, dtype=np.int64)
        values[row_arr] = np.asarray(self._pending_vals[edge_id], dtype=np.float64)
        validity = Bitmap.from_indices(self._n_records, row_arr)
        column = MeasureColumn(values, validity)
        self._columns[edge_id] = column
        return column

    def has_element(self, edge_id: int) -> bool:
        return edge_id in self._pending_rows or edge_id in self._columns

    def bitmap(self, edge_id: int) -> Bitmap:
        """Fetch bitmap column ``b_i`` (counted as one bitmap fetch)."""
        column = self._materialize_column(edge_id)
        bitmap = column.validity
        self.collector.record_bitmap_fetch(is_view=False, nbytes=bitmap.nbytes())
        return bitmap

    def measures(self, edge_id: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Fetch measure column ``m_i`` (counted as one measure fetch).

        With ``rows`` given, gathers only those positions (NaN = NULL);
        otherwise returns the full column.
        """
        column = self._materialize_column(edge_id)
        if rows is None:
            out = column.values()
            self.collector.record_measure_fetch(len(out))
            return out
        out = column.take(rows)
        self.collector.record_measure_fetch(int(out.size))
        return out

    def simulate_partition_join(self, edge_ids: Iterable[int], rows: np.ndarray) -> None:
        """Model the recid re-join when a query spans sub-relations (§6.1).

        Performs one sorted intersection of the matching recid set per
        partition beyond the first, so both wall-clock time and the
        ``partitions_joined`` counter reflect the spanning cost that
        Figure 5 measures.
        """
        partitions = self.partitions_for(edge_ids)
        self.collector.record_partition_join(len(partitions))
        for _ in range(max(len(partitions) - 1, 0)):
            np.intersect1d(rows, rows, assume_unique=True)

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

    def view_bitmap(self, name: str) -> Bitmap:
        """Fetch a graph-view bitmap ``bv_j`` (counted as a view fetch)."""
        bitmap = self._graph_views[name]
        self._check_fresh(bitmap.length, name)
        self.collector.record_bitmap_fetch(is_view=True, nbytes=bitmap.nbytes())
        return bitmap

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

    def aggregate_view_bitmap(self, name: str) -> Bitmap:
        """Fetch ``bp_l`` for an aggregate view (counted as a view fetch)."""
        column = self._aggregate_views[name]
        self._check_fresh(len(column), name)
        bitmap = column.validity
        self.collector.record_bitmap_fetch(is_view=True, nbytes=bitmap.nbytes())
        return bitmap

    def aggregate_view_measures(
        self, name: str, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Fetch ``mp_l`` for an aggregate view (counted as a view fetch)."""
        column = self._aggregate_views[name]
        self._check_fresh(len(column), name)
        if rows is None:
            out = column.values()
            self.collector.record_measure_fetch(len(out), is_view=True)
            return out
        out = column.take(rows)
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
            column = self._materialize_column(edge_id)
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
        return self._materialize_column(edge_id)

    def graph_views_for_persistence(self) -> dict[str, Bitmap]:
        return dict(self._graph_views)

    def aggregate_views_for_persistence(self) -> dict[str, MeasureColumn]:
        return dict(self._aggregate_views)
