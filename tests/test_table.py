"""Tests for the master relation: loading, fetching, views, partitioning.

What a column *holds* — row appends, sparse loads, gathers — is checked
against a dense reference in ``test_column.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore import (
    Bitmap,
    IOStatsCollector,
    MasterRelation,
    MeasureColumn,
)
from repro.columnstore.column import sorted_cells
from repro.core.engine import range_tasks


def make_relation(**kwargs) -> MasterRelation:
    """Rows {0: 1, 1: 2}, {1: 3, 2: 4}, {0: 5, 2: 6} as one batch."""
    relation = MasterRelation(**kwargs)
    relation.append_columns(
        3, {0: ([0, 2], [1.0, 5.0]), 1: ([0, 1], [2.0, 3.0]), 2: ([1, 2], [4.0, 6.0])}
    )
    return relation


class TestLoading:
    def test_append_rows_count(self):
        relation = make_relation()
        assert relation.n_records == 3
        assert relation.n_element_columns == 3

    @pytest.mark.parametrize("shards", [1, 2])
    def test_append_rows_returns_the_row_indices(self, shards):
        relation = make_relation()
        assert relation.append_columns(2, {0: ([0], [7.0]), 2: ([1], [8.0])}) == 3
        assert relation.append_columns(1, {2: ([0], [9.0])}) == 5
        assert relation.measures(0, np.array([2, 3])).tolist() == [5.0, 7.0]
        assert relation.measures(2, np.array([4, 5])).tolist() == [8.0, 9.0]
        # Folds over the runner's ranges see the appended rows.
        ranges = range_tasks(relation.n_records, shards)
        segments = [relation.fold([("element", 2)], None, lo, hi) for _, lo, hi in ranges]
        assert Bitmap.concat(segments).to_indices().tolist() == [1, 2, 4, 5]

    def test_unknown_column_raises(self):
        assert make_relation().ref_bitmap("element", 99) is None
        with pytest.raises(KeyError):
            make_relation().measures(99)
        with pytest.raises(KeyError):
            make_relation().ref_bitmap("graph-view", "nope")

    def test_has_element(self):
        relation = make_relation()
        assert relation.has_element(0)
        assert not relation.has_element(99)

    def test_sparse_load_out_of_range_row(self):
        for row in (2, 5, -1):
            with pytest.raises(IndexError):
                sorted_cells(np.array([row]), np.array([1.0]), 2)

    def test_cannot_shrink(self):
        relation = make_relation()
        with pytest.raises(ValueError):
            relation.set_record_count(1)

    def test_stale_view_detected_after_append(self):
        relation = make_relation()
        relation.add_graph_view("v", Bitmap.zeros(3))
        relation.append_columns(1, {0: ([0], [1.0])})
        with pytest.raises(RuntimeError, match="stale"):
            relation.ref_bitmap("graph-view", "v")
        relation.extend_graph_view("v", Bitmap.ones(1))
        assert relation.ref_bitmap("graph-view", "v").to_indices().tolist() == [3]

    def test_stale_aggregate_view_detected(self):
        relation = make_relation()
        relation.add_aggregate_view("a:sum", MeasureColumn.from_optionals([1.0, None, 2.0]))
        relation.append_columns(1, {0: ([0], [1.0])})
        with pytest.raises(RuntimeError, match="stale"):
            relation.ref_bitmap("agg-view", "a:sum")
        relation.extend_aggregate_view("a:sum", MeasureColumn.from_optionals([5.0]))
        assert relation.aggregate_view_measures("a:sum")[3] == 5.0


class TestPartitioning:
    def test_partition_of(self):
        relation = MasterRelation(partition_width=10)
        assert relation.partition_of(0) == 0
        assert relation.partition_of(9) == 0
        assert relation.partition_of(10) == 1

    def test_n_partitions(self):
        relation = MasterRelation(partition_width=10)
        relation.append_columns(1, {0: ([0], [1.0]), 25: ([0], [2.0])})
        assert relation.n_partitions == 3  # ids 0..25 span partitions 0,1,2

    def test_partitions_for(self):
        relation = MasterRelation(partition_width=10)
        assert relation.partitions_for([1, 5, 11, 25]) == {0, 1, 2}

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            MasterRelation(partition_width=0)

    def test_partition_join_counts(self):
        collector = IOStatsCollector()
        relation = MasterRelation(partition_width=1, collector=collector)
        relation.append_columns(1, {0: ([0], [1.0]), 1: ([0], [2.0]), 2: ([0], [3.0])})
        relation.simulate_partition_join([0, 1, 2], np.array([0]))
        assert collector.stats.partitions_joined == 3

    def test_single_partition_no_join(self):
        collector = IOStatsCollector()
        relation = MasterRelation(partition_width=100, collector=collector)
        relation.append_columns(1, {0: ([0], [1.0]), 1: ([0], [2.0])})
        relation.simulate_partition_join([0, 1], np.array([0]))
        assert collector.stats.partitions_joined == 0


class TestViews:
    def test_add_and_fetch_graph_view(self):
        relation = make_relation()
        bitmap = Bitmap.from_indices(3, [0])
        relation.add_graph_view("gv1", bitmap)
        assert relation.ref_bitmap("graph-view", "gv1") == bitmap
        assert relation.graph_view_names() == ["gv1"]

    def test_graph_view_wrong_length(self):
        relation = make_relation()
        with pytest.raises(ValueError):
            relation.add_graph_view("gv1", Bitmap.zeros(2))

    def test_duplicate_graph_view(self):
        relation = make_relation()
        relation.add_graph_view("gv1", Bitmap.zeros(3))
        with pytest.raises(ValueError):
            relation.add_graph_view("gv1", Bitmap.zeros(3))

    def test_aggregate_view_roundtrip(self):
        relation = make_relation()
        column = MeasureColumn.from_optionals([None, 7.0, 9.0])
        relation.add_aggregate_view("av1:sum", column)
        assert relation.ref_bitmap("agg-view", "av1:sum").to_indices().tolist() == [1, 2]
        values = relation.aggregate_view_measures("av1:sum", np.array([1, 2]))
        assert values.tolist() == [7.0, 9.0]

    def test_aggregate_view_wrong_length(self):
        relation = make_relation()
        with pytest.raises(ValueError):
            relation.add_aggregate_view("av1:sum", MeasureColumn.nulls(5))

    def test_drop_views(self):
        relation = make_relation()
        relation.add_graph_view("gv1", Bitmap.zeros(3))
        relation.add_aggregate_view("av1:sum", MeasureColumn.nulls(3))
        relation.drop_views()
        assert relation.graph_view_names() == []
        assert relation.aggregate_view_names() == []


class TestStatsAccounting:
    def test_bitmap_fetch_counted(self):
        relation = make_relation()
        relation.collector.reset()
        relation.fold([("element", 0), ("element", 1)])
        assert relation.collector.stats.bitmap_columns_fetched == 2

    def test_measure_fetch_counted_with_values(self):
        relation = make_relation()
        relation.collector.reset()
        relation.measures(0, np.array([0, 2]))
        stats = relation.collector.stats
        assert stats.measure_columns_fetched == 1
        assert stats.measure_values_fetched == 2

    def test_view_fetch_counted_separately(self):
        relation = make_relation()
        relation.add_graph_view("gv1", Bitmap.zeros(3))
        relation.collector.reset()
        relation.fold([("graph-view", "gv1")])
        stats = relation.collector.stats
        assert stats.view_bitmaps_fetched == 1
        assert stats.bitmap_columns_fetched == 0

    def test_total_columns(self):
        relation = make_relation()
        relation.collector.reset()
        relation.fold([("element", 0)])
        relation.measures(1)
        assert relation.collector.stats.total_columns_fetched() == 2


class TestFootprint:
    def test_base_size_positive(self):
        assert make_relation().base_size_bytes() > 0

    def test_dense_at_least_sparse(self):
        relation = make_relation()
        assert relation.base_size_bytes("dense") >= relation.base_size_bytes("sparse")

    def test_dense_model_density_independent(self):
        sparse_rel = MasterRelation()
        dense_rel = MasterRelation()
        # sparse: 5 records have each edge; dense: all 50 do.
        sparse_rel.append_columns(50, {e: (np.arange(5), np.ones(5)) for e in range(10)})
        dense_rel.append_columns(50, {e: (np.arange(50), np.ones(50)) for e in range(10)})
        assert sparse_rel.base_size_bytes("dense") == dense_rel.base_size_bytes("dense")
        assert sparse_rel.base_size_bytes("sparse") < dense_rel.base_size_bytes("sparse")

    def test_views_add_size(self):
        relation = make_relation()
        before = relation.disk_size_bytes()
        relation.add_graph_view("gv1", Bitmap.zeros(3))
        assert relation.disk_size_bytes() > before

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_relation().base_size_bytes("bogus")
