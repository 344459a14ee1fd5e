"""Measure columns of the master relation.

Section 4.1 stores, for every distinct edge id *i*, one measure column
``m_i``: the value recorded on edge *i* of each graph record, or NULL when
the record does not contain the edge.  NULLs are suppressed: a column holds
only its non-NULL float64 values, packed in row order, next to the validity
bitmap — which for ``m_i`` *is* the edge bitmap ``b_i``.  The value of row
``r`` sits at position ``rank(b_i, r)``, the number of set bits below ``r``,
answered from a cumulative-popcount directory over the bitmap's words (the
NULL-compressed column with a Jacobson-style rank index of "Columnar Storage
and List-based Processing for GDBMSs").  The directory is derived from the
words whenever a column is built and never persisted; RAM, the ``.npy``
generation files and the process pool's mmap attachment share the layout.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .bitmap import _WORD_BITS, Bitmap, popcount_each

__all__ = ["MeasureColumn", "RankedRows", "rank_rows", "sorted_cells"]


class RankedRows(NamedTuple):
    """Row positions prepared for rank lookups, once for every column a query
    gathers at them: per row, word index, single-bit mask, mask of bits below;
    and the largest row as unsigned (so a negative row is larger than any
    column), which is all a column needs for its bounds check."""

    word: np.ndarray
    bit: np.ndarray
    below: np.ndarray
    top: int

    @property
    def size(self) -> int:
        return self.word.size


def rank_rows(rows: np.ndarray) -> RankedRows:
    rows = np.asarray(rows, dtype=np.int64)
    unsigned = rows.view(np.uint64)
    bit = np.uint64(1) << (unsigned & np.uint64(63))  # 64-bit words
    top = int(unsigned.max()) if rows.size else -1
    return RankedRows(rows >> 6, bit, bit - np.uint64(1), top)


def sorted_cells(rows, vals, n_records: int) -> tuple[np.ndarray, np.ndarray]:
    """One column's parallel (row, value) arrays, validated for a bulk load
    of ``n_records`` rows: every row in ``[0, n_records)``, sorted once if
    unsorted, a repeated row rejected (ranks need one value per set bit)."""
    rows = np.asarray(rows, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if rows.shape != vals.shape or rows.ndim != 1:
        raise ValueError("row/value arrays must be parallel")
    if rows.size and (rows.min() < 0 or rows.max() >= n_records):
        raise IndexError(f"row index outside the batch's rows [0, {n_records})")
    if (rows[1:] <= rows[:-1]).any():
        order = np.argsort(rows, kind="stable")
        rows, vals = rows[order], vals[order]
        if (rows[1:] == rows[:-1]).any():
            raise ValueError("duplicate row indices in a sparse column load")
    return rows, vals


class MeasureColumn:
    """An immutable NULL-able column of float64 measure values, stored as
    the packed non-NULL values plus the validity bitmap that ranks them."""

    __slots__ = ("_vals", "_validity", "_words", "_rank")

    def __init__(self, vals: np.ndarray, validity: Bitmap):
        vals = np.asarray(vals, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("measure column must be one-dimensional")
        words = validity.words()
        # rank[w] = set bits in words[:w]; one trailing entry so the rank of
        # the column's end needs no special case.
        rank = np.zeros(words.size + 1, dtype=np.uint32)
        np.cumsum(popcount_each(words), dtype=np.uint32, out=rank[1:])
        if len(vals) != rank[-1]:
            raise ValueError(
                f"{len(vals)} packed values for {rank[-1]} set validity bits"
            )
        self._vals = vals
        self._validity = validity
        self._words = words
        self._rank = rank

    # -- construction -------------------------------------------------------

    @classmethod
    def from_optionals(cls, cells: Iterable[float | None]) -> "MeasureColumn":
        """Build from Python optionals; ``None`` becomes NULL."""
        cells = list(cells)
        return cls(
            [float(c) for c in cells if c is not None],
            Bitmap.from_bools([c is not None for c in cells]),
        )

    @classmethod
    def nulls(cls, length: int) -> "MeasureColumn":
        """An all-NULL column."""
        return cls(np.empty(0), Bitmap.zeros(length))

    def appended(self, rows, vals, length: int) -> "MeasureColumn":
        """A copy grown to ``length`` rows with ``vals`` at the new ``rows``
        (ascending, past the current end); every other new row is NULL.
        Copies the packed values and the bitmap words and rebuilds the rank
        directory — ``8·non_null + n/8 + n/16`` bytes, against the dense
        column's ``8·n`` — with no growth buffer to amortise it."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows[0] < len(self) or (rows[1:] <= rows[:-1]).any()):
            raise ValueError("appended rows must ascend past the column's end")
        validity = self._validity.resized(length)
        if not rows.size:
            return MeasureColumn(self._vals, validity)
        return MeasureColumn(
            np.concatenate([self._vals, np.asarray(vals, dtype=np.float64)]),
            validity | Bitmap.from_indices(length, rows),
        )

    def slice(self, start: int, stop: int) -> "MeasureColumn":
        """Rows ``[start, stop)``: the packed values cut at the two ranks
        (a view, no copy) and the matching bitmap segment — how a column is
        split over record-range shards."""
        return MeasureColumn(
            self._vals[self.rank(start) : self.rank(stop)],
            self._validity.slice(start, stop),
        )

    @staticmethod
    def concat(columns: Iterable["MeasureColumn"]) -> "MeasureColumn":
        """Order-preserving concatenation (the inverse of :meth:`slice`)."""
        columns = list(columns)
        if len(columns) == 1:
            return columns[0]
        return MeasureColumn(
            np.concatenate([c._vals for c in columns]) if columns else np.empty(0),
            Bitmap.concat(c._validity for c in columns),
        )

    # -- protocol -------------------------------------------------------------

    def __len__(self) -> int:
        return self._validity.length

    def __getitem__(self, index: int) -> float | None:
        if self._validity[index]:
            return float(self._vals[self.rank(index % len(self))])
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasureColumn):
            return NotImplemented
        return self._validity == other._validity and bool(
            np.array_equal(self._vals, other._vals)
        )

    def __repr__(self) -> str:
        return f"MeasureColumn(length={len(self)}, non_null={self.non_null_count()})"

    # -- access ----------------------------------------------------------------

    @property
    def validity(self) -> Bitmap:
        """Bitmap of non-NULL cells.

        For a measure column ``m_i`` this is by construction exactly the
        paper's edge bitmap ``b_i``: a record has a measure on edge *i* iff
        it contains edge *i*.
        """
        return self._validity

    def packed(self) -> np.ndarray:
        """Read-only view of the non-NULL values in row order (what the
        ``_vals.npy`` file holds)."""
        view = self._vals.view()
        view.setflags(write=False)
        return view

    def values(self) -> np.ndarray:
        """The column expanded to one float64 per row; NULL cells are NaN."""
        out = np.full(len(self), np.nan)
        out[self._validity.to_indices()] = self._vals
        return out

    def non_null_count(self) -> int:
        return len(self._vals)

    def rank(self, row: int) -> int:
        """Non-NULL cells in rows ``[0, row)`` — the packed position of
        ``row``'s value when it has one."""
        word, bit = divmod(row, _WORD_BITS)
        count = int(self._rank[word])
        if bit:
            below = int(self._words[word]) & ((1 << bit) - 1)
            count += bin(below).count("1")
        return count

    def take(self, rows: np.ndarray | RankedRows) -> np.ndarray:
        """Gather cells at ``rows`` (row positions in ``[0, len)``, any
        order; anything else is an ``IndexError``); NULLs come back NaN.
        One vectorized rank and one ``take``; rows that all hold a value —
        every row a graph query matched — need no patching."""
        if not isinstance(rows, RankedRows):
            rows = rank_rows(rows)
        if rows.top >= len(self):
            raise IndexError(f"row out of range for a column of {len(self)} rows")
        words = self._words[rows.word]
        below = popcount_each(words & rows.below)
        pos = np.add(self._rank[rows.word], below, dtype=np.intp)
        present = words & rows.bit
        if present.all():
            return self._vals[pos]
        if not self._vals.size:
            return np.full(rows.size, np.nan)
        return np.where(present != 0, self._vals.take(pos, mode="clip"), np.nan)

    def nbytes(self) -> int:
        """Storage footprint: packed values plus validity bitmap — what the
        column occupies in RAM and on disk (the rank directory is derived)."""
        return int(self._vals.nbytes) + self._validity.nbytes()

    def nbytes_dense(self) -> int:
        """Footprint under MonetDB-style dense (BAT) storage, a value slot
        per row, NULLs included — the counterfactual behind Figure 4's
        observation that the column store's size is *independent of record
        density*: ``n_columns × n_records`` cells whatever they hold."""
        return 8 * len(self) + self._validity.nbytes()
