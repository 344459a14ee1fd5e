"""The packed, rank-indexed measure column against a dense NaN reference.

One property suite for the one representation: whatever is done to a
column — gather, append, cut over shards, join, save and load — must read
back exactly as the same operation on a plain float64 array with NaN for
NULL.  Lengths sit on both sides of the 64-bit word and 512-bit block
edges, and every property runs on both popcount paths (``lut`` pins the
byte-LUT that numpy < 2.0 uses).
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import (
    Bitmap,
    MasterRelation,
    MeasureColumn,
    bitmap as bitmap_module,
    load_relation,
    save_relation,
)
from repro.columnstore.column import rank_rows
from repro.core import GraphAnalyticsEngine
from repro.core.engine import range_tasks

AB = ("A", "B")

LENGTHS = [0, 1, 63, 64, 65, 511, 512, 513]
both_popcounts = pytest.mark.parametrize("lut", [False, True], ids=["native", "lut"])


def popcount_path(lut: bool):
    """Pin the byte-LUT popcount, or leave whatever this numpy has."""
    if lut:
        return mock.patch.object(bitmap_module, "_HAS_BITWISE_COUNT", False)
    return nullcontext()


@st.composite
def dense_columns(draw, lengths=LENGTHS):
    """A dense float64 reference column: NaN = NULL."""
    n = draw(st.sampled_from(lengths))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.where(rng.random(n) < density, rng.normal(size=n), np.nan)


def pack(dense: np.ndarray) -> MeasureColumn:
    present = ~np.isnan(dense)
    return MeasureColumn(dense[present], Bitmap.from_bools(present))


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def cells_of(dense: np.ndarray) -> list:
    return [None if np.isnan(v) else float(v) for v in dense]


@both_popcounts
class TestAgainstDenseReference:
    @given(dense=dense_columns(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_take(self, lut, dense, seed):
        with popcount_path(lut):
            column = pack(dense)
            rng = np.random.default_rng(seed)
            n = len(dense)
            everywhere = rng.integers(0, n, size=rng.integers(0, 2 * n + 1)) if n else []
            present = np.nonzero(~np.isnan(dense))[0]
            null = np.nonzero(np.isnan(dense))[0]
            for rows in (
                np.sort(everywhere),          # sorted, repeats, NULLs
                np.asarray(everywhere),       # any order
                present,                      # what a graph query gathers
                null,
                np.empty(0, dtype=np.int64),
            ):
                rows = np.asarray(rows, dtype=np.int64)
                assert same(column.take(rows), dense[rows])
                assert same(column.take(rank_rows(rows)), dense[rows])

    @given(dense=dense_columns())
    @settings(max_examples=40, deadline=None)
    def test_reads(self, lut, dense):
        with popcount_path(lut):
            column = pack(dense)
            assert len(column) == len(dense)
            assert same(column.values(), dense)
            assert column.validity == Bitmap.from_bools(~np.isnan(dense))
            assert column.non_null_count() == int((~np.isnan(dense)).sum())
            assert column.nbytes() == 8 * column.non_null_count() + column.validity.nbytes()
            assert column.nbytes_dense() == 8 * len(dense) + column.validity.nbytes()
            assert [column[i] for i in range(len(dense))] == cells_of(dense)
            assert column == MeasureColumn.from_optionals(cells_of(dense))
            for row in {0, len(dense) // 2, len(dense)}:
                assert column.rank(row) == int((~np.isnan(dense[:row])).sum())

    @given(dense=dense_columns(), tail=dense_columns([0, 1, 16, 64, 65]))
    @settings(max_examples=40, deadline=None)
    def test_extended(self, lut, dense, tail):
        with popcount_path(lut):
            rows = np.flatnonzero(~np.isnan(tail))
            grown = pack(dense).appended(rows + len(dense), tail[rows], len(dense) + len(tail))
            assert same(grown.values(), np.concatenate([dense, tail]))
            assert grown == pack(np.concatenate([dense, tail]))

    @given(dense=dense_columns(), cuts=st.lists(st.floats(0, 1), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_slice_and_concat(self, lut, dense, cuts):
        with popcount_path(lut):
            column = pack(dense)
            n = len(dense)
            bounds = [0, *sorted(int(c * n) for c in cuts), n]
            pieces = [pack(dense[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
            joined = MeasureColumn.concat(pieces)
            assert joined == column
            assert same(joined.values(), dense)

    @given(dense=dense_columns(), n_shards=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_sharded_round_trip(self, lut, dense, n_shards):
        with popcount_path(lut):
            relation = MasterRelation()
            relation.set_record_count(len(dense))
            relation.put_column(3, pack(dense))
            relation.add_aggregate_view("a:sum", pack(dense))
            column = relation.column_for_persistence(3)
            rows = np.arange(len(dense))[::-1]
            assert same(relation.measures(3), dense)
            assert same(relation.measures(3, rows), dense[rows])
            assert same(relation.measures(3, rank_rows(rows)), dense[rows])
            assert same(relation.aggregate_view_measures("a:sum", rows), dense[rows])
            # Folds over the runner's ranges, or any other cut, merge to
            # the column; none copies it.
            for bounds in (
                [(start, stop) for _, start, stop in range_tasks(len(dense), n_shards)],
                [(part[0], part[-1] + 1) if part.size else (0, 0)
                 for part in np.array_split(np.arange(len(dense)), n_shards)],
            ):
                segments = [relation.fold([("element", 3)], None, lo, hi) for lo, hi in bounds]
                assert Bitmap.concat(segments) == pack(dense).validity
            assert relation.column_for_persistence(3) is column
            assert relation.aggregate_views_for_persistence()["a:sum"] == pack(dense)

    @given(dense=dense_columns())
    @settings(max_examples=20, deadline=None)
    def test_save_load(self, lut, dense, tmp_path_factory):
        with popcount_path(lut):
            relation = MasterRelation()
            relation.set_record_count(len(dense))
            relation.put_column(0, pack(dense))
            relation.add_aggregate_view("a:sum", pack(dense))
            db, again = tmp_path_factory.mktemp("db"), tmp_path_factory.mktemp("again")
            save_relation(relation, db)
            # A loaded store saves again as what it loaded, the columns whole.
            save_relation(load_relation(db), again)
            rows = np.arange(len(dense))
            for loaded in (load_relation(db), load_relation(again)):
                assert loaded.column_for_persistence(0) == pack(dense)
                assert same(loaded.measures(0, rows), dense)
                assert same(loaded.aggregate_view_measures("a:sum", rows), dense)

    @given(
        dense=dense_columns([0, 1, 63, 64, 65]),
        batches=st.lists(dense_columns([1, 2, 64]), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_appends_extend_the_packed_tail(self, lut, dense, batches):
        """Rows appended one at a time and read between batches are the
        dense reference grown by the same rows; a column that gained no cell
        still grows to the record count.  Lists and arrays alternate, so a
        tail holds list chunks and array chunks in turn."""
        with popcount_path(lut):
            relation = MasterRelation()
            relation.set_record_count(len(dense))
            relation.put_column(0, pack(dense))
            reference = dense
            for batch in batches:
                for k, value in enumerate(batch):
                    wrap = np.array if k % 2 else list
                    cells = {1: (wrap([0]), wrap([1.0]))}
                    if not np.isnan(value):
                        cells[0] = (wrap([0]), wrap([value]))
                    relation.append_columns(1, cells)
                reference = np.concatenate([reference, batch])
                rows = np.arange(len(reference))
                assert same(relation.measures(0, rows), reference)
                assert relation.ref_bitmap("element", 0) == Bitmap.from_bools(~np.isnan(reference))
                assert relation.ref_bitmap("element", 1).count() == len(reference) - len(dense)


class TestConstruction:
    def test_from_optionals(self):
        col = MeasureColumn.from_optionals([1.0, None, 3.5])
        assert [col[i] for i in range(3)] == [1.0, None, 3.5]
        assert col[-1] == 3.5
        assert col.packed().tolist() == [1.0, 3.5]

    def test_nulls(self):
        col = MeasureColumn.nulls(5)
        assert len(col) == 5 and col.non_null_count() == 0
        assert np.isnan(col.take(np.arange(5))).all()

    def test_values_must_match_popcount(self):
        with pytest.raises(ValueError, match="packed values"):
            MeasureColumn(np.zeros(3), Bitmap.from_indices(4, [0, 1]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            MeasureColumn(np.zeros((2, 2)), Bitmap.ones(4))

    def test_packed_is_readonly(self):
        with pytest.raises(ValueError):
            MeasureColumn.from_optionals([1.0]).packed()[0] = 9.0

    def test_appended_rows_must_ascend_past_the_end(self):
        col = MeasureColumn.from_optionals([1.0, None])
        with pytest.raises(ValueError):
            col.appended([1], [2.0], 3)
        with pytest.raises(ValueError):
            col.appended([3, 2], [2.0, 3.0], 4)

    def test_inequality_on_values(self):
        a = MeasureColumn.from_optionals([1.0, 2.0])
        assert a != MeasureColumn.from_optionals([1.0, 3.0])
        assert a != MeasureColumn.from_optionals([1.0, None])


class TestTakeBounds:
    """A row outside ``[0, len)`` is an error, not a NULL — the bitmap's
    last word has clear bits past the end that would otherwise answer."""

    @pytest.mark.parametrize("row", [3, 5, 63, 64, 10**6, -1, -3])
    def test_out_of_range_row_raises(self, row):
        col = MeasureColumn.from_optionals([1.0, None, 2.0])
        for rows in (np.array([row]), np.array([0, row, 2]), rank_rows(np.array([row]))):
            with pytest.raises(IndexError):
                col.take(rows)

    def test_last_row_and_empty_gather_are_in_range(self):
        col = MeasureColumn.from_optionals([1.0, None, 2.0])
        assert col.take(np.array([2, 0])).tolist() == [2.0, 1.0]
        assert col.take(np.empty(0, dtype=np.int64)).size == 0
        assert MeasureColumn.nulls(0).take(np.empty(0, dtype=np.int64)).size == 0

    @pytest.mark.parametrize("shards", [1, 3])
    def test_relation_gather_past_the_end_raises(self, shards):
        relation = MasterRelation()
        relation.append_columns(6, {0: (np.arange(6), np.arange(1.0, 7.0))})
        # The runner's ranges cover the records exactly, and no further.
        ranges = range_tasks(6, shards)
        assert [stop - start for _, start, stop in ranges] == ([2, 2, 2] if shards > 1 else [6])
        assert Bitmap.concat(
            [relation.fold([("element", 0)], None, start, stop) for _, start, stop in ranges]
        ) == Bitmap.ones(6)
        with pytest.raises(IndexError):
            relation.measures(0, np.array([1, 6]))
        with pytest.raises(IndexError):
            relation.measures(0, rank_rows(np.array([-1])))


class TestBuilder:
    """A view column grows by each append's delta through ``concat``."""

    def test_builds_in_order(self):
        col = MeasureColumn.concat(
            [MeasureColumn.from_optionals([1.0]), MeasureColumn.from_optionals([None, 2.0])]
        )
        assert [col[i] for i in range(3)] == [1.0, None, 2.0]

    def test_pad_to(self):
        col = MeasureColumn.concat([MeasureColumn.from_optionals([5.0]), MeasureColumn.nulls(3)])
        assert len(col) == 4
        assert col.non_null_count() == 1

    def test_pad_shorter_rejected(self):
        col = MeasureColumn.from_optionals([1.0, 2.0])
        with pytest.raises(ValueError):
            col.appended([1], [3.0], 3)


class TestSparseLoad:
    """``load_columnar``: rows are positions in the batch's record ids."""

    def test_unsorted_rows_are_sorted_once(self):
        engine = GraphAnalyticsEngine()
        engine.load_columnar(list("abcde"), {AB: (np.array([4, 0, 2]), np.array([4.0, 0.5, 2.0]))})
        assert engine.relation.ref_bitmap("element", 0).to_indices().tolist() == [0, 2, 4]
        assert engine.relation.measures(0, np.array([0, 2, 4])).tolist() == [0.5, 2.0, 4.0]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_duplicate_rows_rejected(self, shards):
        engine = GraphAnalyticsEngine(shards=shards)
        with pytest.raises(ValueError, match="duplicate"):
            engine.load_columnar(list("abcd"), {AB: (np.array([1, 3, 1]), np.array([1.0, 2.0, 3.0]))})

    def test_second_load_merges_and_rejects_overlap(self):
        engine = GraphAnalyticsEngine()
        engine.load_columnar(["a", "b"], {AB: (np.array([1]), np.array([1.0]))})
        engine.load_columnar(["c", "d"], {AB: (np.array([1, 0]), np.array([3.0, 0.5]))})
        assert same(engine.relation.measures(0), np.array([np.nan, 1.0, 0.5, 3.0]))
        # A row of an earlier batch cannot be written again.
        with pytest.raises(IndexError):
            engine.load_columnar(["e"], {AB: (np.array([-3]), np.array([9.0]))})
        with pytest.raises(ValueError, match="duplicate"):
            engine.load_columnar(["e", "f"], {AB: (np.array([1, 1]), np.array([9.0, 9.0]))})
        assert same(engine.relation.measures(0), np.array([np.nan, 1.0, 0.5, 3.0]))


class TestConcurrentTailMerge:
    def test_readers_racing_to_merge_a_tail_all_see_it(self):
        """Readers share the executor's read lock, so several can find the
        same unmerged tail at once; each must come away with the merged
        column and none may publish one that lost the appended cells."""
        import sys
        import threading
        import time

        class YieldingDict(dict):
            """Hands the interpreter to another reader around every read,
            publish and retire, so the interleavings between them occur."""

            def get(self, key, default=None):
                time.sleep(0)
                value = super().get(key, default)
                time.sleep(0)
                return value

            def pop(self, key, default=None):
                time.sleep(0)
                value = super().pop(key, default)
                time.sleep(0)
                return value

            def __setitem__(self, key, value):
                time.sleep(0)
                super().__setitem__(key, value)
                time.sleep(0)

        n_threads, rounds = 8, 150
        relation = MasterRelation()
        relation._columns, relation._tails = YieldingDict(), YieldingDict()
        reference: list[float] = []
        failures: list[str] = []
        barrier = threading.Barrier(n_threads + 1, timeout=30)

        def reader():
            for _ in range(rounds):
                barrier.wait()
                rows = np.arange(len(reference))
                got = relation.measures(0, rows)
                if not same(got, np.asarray(reference)):
                    failures.append(f"{len(reference)} rows: {got[-4:]}")
                barrier.wait()

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for i in range(rounds):
                for j in range(3):  # appends are exclusive: no reader is running
                    value = float(3 * i + j)
                    present = (i + j) % 2 == 0
                    cells = {1: ([0], [1.0])}
                    if present:
                        cells[0] = ([0], [value])
                    relation.append_columns(1, cells)
                    reference.append(value if present else np.nan)
                barrier.wait()   # release the readers onto the fresh tail
                barrier.wait()   # and wait for all of them
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert relation.column_for_persistence(0) == pack(np.asarray(reference))
