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

The relation holds no horizontal cut.  :meth:`MasterRelation.fold` ANDs
any record range ``[start, stop)`` of its bitmaps (slices of the words
when the range starts on a 64-record boundary); how a query's records are
split into ranges, if at all, is the shard runner's per-query decision
(:mod:`repro.core.engine.interpreter`).

Column accesses are reported to an :class:`~repro.columnstore.iostats.IOStatsCollector`
— the unit of the paper's cost model.

A bitmap column is looked up by the planner's ``(kind, token)`` ref,
uncharged (``ref_bitmap``), and :func:`and_refs` is the one AND over that
lookup (§3.2) that the charged :meth:`MasterRelation.fold`, the process
pool's worker and the engine's view builder all run.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bitmap import Bitmap
from .column import MeasureColumn, RankedRows
from .iostats import IOStatsCollector

__all__ = ["MasterRelation", "and_refs"]


def and_refs(
    lookup: Callable[[str, object], Bitmap | None],
    refs: Sequence[tuple[str, object]],
    length: int,
    check: Callable[[], None] | None = None,
    read: list | None = None,
    start: int = 0,
) -> Bitmap:
    """The AND of bits ``[start, start + length)`` of the bitmaps
    ``lookup(kind, token)`` returns for ``refs``: one record range's segment
    of the conjunction, or all of it.

    ``lookup`` is a storage class's ``ref_bitmap`` (the relation's, or a
    process-pool worker's mapped store's): a bitmap covering the range, or
    None for an element that storage never saw, which makes the
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
    if len(bitmaps) == 1 and start == 0 and bitmaps[0].length == length:
        return bitmaps[0]
    return Bitmap.and_all(bitmaps, start, start + length)


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
        # Per element column id: the packed column, which may lag behind
        # the record count, and the (first row, rows, values) chunks appended
        # since (see append_columns).  _column() folds the tail in on first use.
        self._columns: dict[int, MeasureColumn] = {}
        self._tails: dict[int, list[tuple]] = {}
        self._graph_views: dict[str, Bitmap] = {}
        self._aggregate_views: dict[str, MeasureColumn] = {}
        # Views the persistence layer refused to load (name, reason) —
        # populated by load_relation when a view file fails verification.
        self.dropped_views: list[tuple[str, str]] = []
        # Application metadata persisted inside the manifest (committed in
        # the same atomic swap as the columns); None until loaded/saved.
        self.app_meta: dict | None = None

    # -- loading -------------------------------------------------------------

    def append_columns(self, n_new: int, columns: Mapping[int, tuple]) -> int:
        """Append ``n_new`` rows given as columns: element id → ``(rows,
        values)``, rows in ``[0, n_new)``, ascending and unique.  Returns
        the first new row.

        No column is merged or copied: the cells queue on the column's
        tail, merged on its first read.  Arrays (bulk loads) queue as one chunk.
        Lists (transposed records) extend the tail's last list chunk, kept
        in relation rows: a chunk per small batch would cost ~290 bytes per
        column, where a cell costs ~40.
        """
        first = self._n_records
        at = list(range(first, first + n_new)).__getitem__
        for edge_id, (rows, vals) in columns.items():
            tail = self._tails.setdefault(edge_id, [])
            if isinstance(rows, np.ndarray):
                tail.append((first, rows, vals))
                continue
            if not tail or isinstance(tail[-1][1], np.ndarray):
                tail.append((0, [], []))
            _, known_rows, known_vals = tail[-1]
            known_rows += map(at, rows)
            known_vals += vals
        self._n_records = first + n_new
        return first

    def put_column(self, edge_id: int, column: MeasureColumn) -> None:
        """Install an already packed element column (load)."""
        if len(column) != self._n_records:
            raise ValueError("column length must equal the record count")
        self._columns[edge_id] = column
        self._tails.pop(edge_id, None)

    def set_record_count(self, n_records: int) -> None:
        """Declare the number of rows before :meth:`put_column` installs
        packed columns (load)."""
        if n_records < self._n_records:
            raise ValueError("cannot shrink the relation")
        self.append_columns(n_records - self._n_records, {})

    # -- geometry ---------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self._n_records

    def element_ids(self) -> list[int]:
        """All element column ids, ascending."""
        return sorted(self._columns.keys() | self._tails.keys())

    @property
    def n_element_columns(self) -> int:
        return len(self.element_ids())

    def partition_of(self, edge_id: int) -> int:
        """Index of the §6.1 sub-relation holding element ``edge_id``."""
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

    # -- column access -------------------------------------------------------------

    def _column(self, edge_id: int) -> MeasureColumn:
        """The element's packed column at the current record count, folding
        in the tail chunks appended since it was last asked for.

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
        chunks = tail or [(0, (), ())]
        rows = [np.asarray(rows, dtype=np.int64) + first for first, rows, _ in chunks]
        vals = [np.asarray(vals, dtype=np.float64) for _, _, vals in chunks]
        column = column.appended(np.concatenate(rows), np.concatenate(vals), self._n_records)
        self._columns[edge_id] = column
        self._tails.pop(edge_id, None)
        return column

    def has_element(self, edge_id: int) -> bool:
        return edge_id in self._columns or edge_id in self._tails

    def ref_bitmap(self, kind: str, token) -> Bitmap | None:
        """The bitmap column a planner ref names, uncharged: ``b_i`` for
        ``("element", i)`` — None when the relation never saw element *i*
        — else a graph view's ``bv_j`` or an aggregate view's ``bp_l``.
        A missing view is a ``KeyError``, a stale one raises."""
        if kind == "element":
            column = self._columns.get(token)
            if column is not None:
                # Up to date: the fold's common case, paid per ref, so the
                # length test reads the slots, not two properties.
                bitmap = column._validity
                if bitmap._length == self._n_records:
                    return bitmap
            elif token not in self._tails:
                return None
            return self._column(token).validity
        if kind == "graph-view":
            bitmap = self._graph_views[token]
        else:
            bitmap = self._aggregate_views[token].validity
        self._check_fresh(bitmap.length, token)
        return bitmap

    def fold(self, refs, ctx=None, start: int = 0, stop: int | None = None) -> Bitmap:
        """AND the bitmap columns named by ``refs`` (:func:`and_refs`) over
        records ``[start, stop)`` — every record by default — and charge
        the I/O with one collector call.

        A range's fold ANDs its segment of each column, the fold a
        process-pool worker runs over its mapped store; the whole range's
        segment is the column itself.  ``ctx`` (a
        :class:`repro.resilience.QueryContext` or None) is checked before
        every ref.  The charge is one fetch per ref read, a stopped fold's
        included, of the range's words; an element the relation never
        saw is an all-zero answer with no charge.
        """
        if stop is None:
            stop = self._n_records
        read: list[str] = []
        try:
            return and_refs(
                self.ref_bitmap, refs, stop - start,
                None if ctx is None else ctx.check, read, start,
            )
        finally:
            # Every segment read is the same length: one size for all.
            n_base = read.count("element")
            nbytes = len(read) * 8 * ((stop - start + 63) // 64)
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

    def extend_graph_view(self, name: str, delta: Bitmap) -> None:
        """Incremental maintenance: append the view's bits for new rows."""
        self._graph_views[name] = Bitmap.concat([self._graph_views[name], delta])

    def extend_aggregate_view(self, name: str, delta: MeasureColumn) -> None:
        """Incremental maintenance: append the view's cells for new rows."""
        column = self._aggregate_views[name]
        self._aggregate_views[name] = MeasureColumn.concat([column, delta])

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
