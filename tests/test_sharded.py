"""Shard-parallel storage layer: geometry, routing, persistence, serving.

The :class:`ShardedTable` backend horizontally partitions the master
relation into contiguous record-range shards behind the same
``StorageBackend`` contract as :class:`MasterRelation`.  These tests pin
the invariants the operator layer relies on: balanced even splits,
order-preserving routing and gathers, bit-identical rebalance /
from-relation / to-relation round trips, crash-safe per-shard
persistence with root-generation commit semantics, and the engine- and
executor-level sharding seams (``shards=N``, ``reshard``, parallel
ingest, the shard mapper)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.columnstore import (
    Bitmap,
    MasterRelation,
    MeasureColumn,
    ShardedTable,
    StorageBackend,
    is_sharded_dir,
    load_sharded,
    save_sharded,
)
from repro.core import GraphAnalyticsEngine, GraphQuery, PathAggregationQuery
from repro.core.engine import INLINE, ShardRunner
from repro.errors import CorruptionError, ManifestError, PersistenceError
from repro.exec import BitmapCache, QueryExecutor
from repro.workloads import build_dataset, sample_path_queries
from tests import faultinject as fi

# -- fixtures ----------------------------------------------------------------


def _reference_relation(n_records: int = 10) -> MasterRelation:
    """An unsharded relation with columns spanning shard boundaries."""
    rel = MasterRelation(partition_width=2)
    rel.set_record_count(n_records)
    rel.load_sparse_column(
        0, np.arange(0, n_records, 2), np.arange(0, n_records, 2) + 1.0
    )
    rel.load_sparse_column(
        1, np.arange(1, n_records, 3), np.full(len(range(1, n_records, 3)), 7.0)
    )
    rel.load_sparse_column(2, np.array([0, n_records - 1]), np.array([3.0, 4.0]))
    rel.add_graph_view("gv1", Bitmap.from_indices(n_records, [0, n_records - 1]))
    rel.add_aggregate_view(
        "av1:sum",
        MeasureColumn.from_optionals([5.0] + [None] * (n_records - 2) + [6.0]),
    )
    return rel


def _sharded_table(n_shards: int = 3, n_records: int = 10) -> ShardedTable:
    return ShardedTable.from_relation(_reference_relation(n_records), n_shards)


@pytest.fixture(scope="module")
def records():
    return list(build_dataset("NY", n_records=60, seed=7).to_records())


@pytest.fixture(scope="module")
def queries(records):
    corpus = build_dataset("NY", n_records=60, seed=7)
    return sample_path_queries(corpus, 12, 3, distribution="zipf", seed=4)


def _assert_tables_equal(a, b) -> None:
    assert a.n_records == b.n_records
    assert a.element_ids() == b.element_ids()
    for edge_id in a.element_ids():
        assert a.ref_bitmap("element", edge_id) == b.ref_bitmap("element", edge_id)
        np.testing.assert_array_equal(
            a.measures(edge_id), b.measures(edge_id)
        )
    assert a.graph_view_names() == b.graph_view_names()
    for name in a.graph_view_names():
        assert a.ref_bitmap("graph-view", name) == b.ref_bitmap("graph-view", name)
    assert a.aggregate_view_names() == b.aggregate_view_names()
    for name in a.aggregate_view_names():
        assert a.ref_bitmap("agg-view", name) == b.ref_bitmap("agg-view", name)


# -- geometry ----------------------------------------------------------------


class TestGeometry:
    def test_backend_protocol(self):
        assert isinstance(ShardedTable(2), StorageBackend)
        assert isinstance(MasterRelation(), StorageBackend)

    def test_unsharded_relation_is_one_shard(self):
        rel = MasterRelation()
        assert rel.shard_relations() == [rel]
        assert rel.shard_starts() == [0]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardedTable(0)

    def test_even_split(self):
        table = ShardedTable(4)
        table.set_record_count(10)
        assert [s.n_records for s in table.shards] == [3, 3, 2, 2]
        assert table.shard_starts() == [0, 3, 6, 8]
        assert table.n_records == 10

    def test_growth_extends_last_shard_only(self):
        table = ShardedTable(3)
        table.set_record_count(6)
        table.set_record_count(9)
        assert [s.n_records for s in table.shards] == [2, 2, 5]

    def test_shrink_rejected(self):
        table = ShardedTable(2)
        table.set_record_count(4)
        with pytest.raises(ValueError):
            table.set_record_count(3)

    def test_append_row_returns_global_index(self):
        table = ShardedTable(3)
        table.set_record_count(6)
        assert table.append_row({0: 1.0}) == 6
        assert table.append_row({1: 2.0}) == 7
        assert [s.n_records for s in table.shards] == [2, 2, 4]


# -- routing -----------------------------------------------------------------


class TestRouting:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 10])
    def test_columns_match_reference(self, n_shards):
        _assert_tables_equal(_sharded_table(n_shards), _reference_relation())

    def test_measure_gather_preserves_row_order(self):
        table = _sharded_table(3)
        rows = np.array([9, 0, 4, 2])
        np.testing.assert_array_equal(
            table.measures(0, rows), _reference_relation().measures(0, rows)
        )

    @pytest.mark.parametrize(
        "rows", [[0, 2, 3, 4, 8, 9], [9, 0, 4, 2, 4], [5], [], [3, 3, 7]]
    )
    def test_split_rows_once_serves_every_column_with_the_same_counts(self, rows):
        """A query routes its rows once (``split_rows``) and gathers every
        column through the result: same values, same order and the same
        column/value counts as routing per call — sorted rows or not."""
        rows = np.array(rows, dtype=np.int64)
        reference = _reference_relation()
        per_call, once = _sharded_table(3), _sharded_table(3)
        per_call.collector.reset()
        once.collector.reset()
        split = once.split_rows(rows)
        assert split.size == rows.size
        if (np.diff(rows) >= 0).all():
            assert all(isinstance(where, slice) for _, where, _ in split.pieces)
        for edge_id in (0, 1, 2):
            want = reference.measures(edge_id, rows)
            np.testing.assert_array_equal(per_call.measures(edge_id, rows), want)
            np.testing.assert_array_equal(once.measures(edge_id, split), want)
        np.testing.assert_array_equal(
            once.aggregate_view_measures("av1:sum", split),
            reference.aggregate_view_measures("av1:sum", rows),
        )
        per_call.aggregate_view_measures("av1:sum", rows)
        assert once.collector.stats == per_call.collector.stats

    def test_load_sparse_column_validates(self):
        table = ShardedTable(2)
        table.set_record_count(4)
        with pytest.raises(IndexError):
            table.load_sparse_column(0, np.array([4]), np.array([1.0]))
        with pytest.raises(ValueError):
            table.load_sparse_column(0, np.array([0, 1]), np.array([1.0]))


# -- rebalance and conversion ------------------------------------------------


class TestRebalanceAndConversion:
    def test_round_trip_to_relation(self):
        _assert_tables_equal(_sharded_table(4).to_relation(), _reference_relation())

    def test_rebalance_after_appends(self):
        table = _sharded_table(4)
        for i in range(6):
            table.append_row({0: 100.0 + i})
        # Incremental view maintenance, as the engine does on append.
        table.extend_graph_view("gv1", [False] * 6)
        table.extend_aggregate_view("av1:sum", [None] * 6)
        skewed = [s.n_records for s in table.shards]
        reference = table.to_relation()
        table.rebalance()
        assert [s.n_records for s in table.shards] == [4, 4, 4, 4] != skewed
        _assert_tables_equal(table, reference)

    def test_reshard_preserves_content(self):
        table = _sharded_table(2)
        again = ShardedTable.from_relation(table, 5)
        assert again.n_shards == 5
        _assert_tables_equal(again, table)


# -- views -------------------------------------------------------------------


class TestShardedViews:
    def test_view_split_and_merge(self):
        table = _sharded_table(3)
        assert table.ref_bitmap("graph-view", "gv1").to_indices().tolist() == [0, 9]
        assert all(s.has_graph_view("gv1") for s in table.shards)

    def test_view_usable_only_when_in_every_shard(self):
        table = _sharded_table(3)
        table.shards[1].drop_graph_view("gv1")
        assert not table.has_graph_view("gv1")
        assert "gv1" not in table.graph_view_names()

    def test_extend_views_on_append(self):
        table = _sharded_table(3)
        table.append_row({0: 9.0})
        table.extend_graph_view("gv1", [True])
        table.extend_aggregate_view("av1:sum", [8.0])
        assert table.ref_bitmap("graph-view", "gv1").to_indices().tolist() == [0, 9, 10]
        assert table.ref_bitmap("agg-view", "av1:sum")[10]

    def test_drop_views_clears_all_shards(self):
        table = _sharded_table(3)
        table.drop_views()
        assert table.graph_view_names() == []
        assert table.aggregate_view_names() == []


# -- persistence -------------------------------------------------------------


def _shard_dir(db, index: int):
    manifest = json.loads((db / "shards.json").read_text())
    return db / manifest["directory"] / f"shard-{index:03d}"


class TestShardedPersistence:
    def test_round_trip(self, tmp_path):
        table = _sharded_table(3)
        db = tmp_path / "db"
        save_sharded(table, db, app_meta={"k": 1})
        assert is_sharded_dir(db) and not is_sharded_dir(tmp_path)
        loaded = load_sharded(db)
        assert loaded.n_shards == 3
        assert loaded.app_meta == {"k": 1}
        _assert_tables_equal(loaded, table)

    def test_crash_mid_save_preserves_previous_generation(self, tmp_path):
        table = _sharded_table(3)
        db = tmp_path / "db"
        save_sharded(table, db)
        table.append_row({0: 9.0})
        # Sweep the crash through every per-shard save stage: whichever
        # instant the process dies, the committed generation survives.
        for stage in range(3):
            with pytest.raises(fi.SimulatedCrash):
                with fi.crash_at_stage(stage):
                    save_sharded(table, db)
            assert load_sharded(db).n_records == 10
        # The next clean save commits the new state and collects debris.
        save_sharded(table, db)
        assert load_sharded(db).n_records == 11
        children = sorted(p.name for p in db.iterdir())
        assert children == [json.loads((db / "shards.json").read_text())["directory"], "shards.json"]

    def test_generation_gc(self, tmp_path):
        table = _sharded_table(2)
        db = tmp_path / "db"
        save_sharded(table, db)
        save_sharded(table, db)
        save_sharded(table, db)
        assert sorted(p.name for p in db.iterdir()) == ["gen-000003", "shards.json"]

    def test_manifest_garbage(self, tmp_path):
        db = tmp_path / "db"
        save_sharded(_sharded_table(2), db)
        (db / "shards.json").write_text("{nope")
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_sharded(db)

    def test_manifest_missing_fields(self, tmp_path):
        db = tmp_path / "db"
        save_sharded(_sharded_table(2), db)
        (db / "shards.json").write_text(json.dumps({"format_version": 1}))
        with pytest.raises(ManifestError, match="missing fields"):
            load_sharded(db)

    def test_unsupported_format_version(self, tmp_path):
        db = tmp_path / "db"
        save_sharded(_sharded_table(2), db)
        manifest = json.loads((db / "shards.json").read_text())
        manifest["format_version"] = 99
        (db / "shards.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="format_version"):
            load_sharded(db)

    def test_shard_count_mismatch(self, tmp_path):
        db = tmp_path / "db"
        save_sharded(_sharded_table(2), db)
        manifest = json.loads((db / "shards.json").read_text())
        manifest["shard_records"] = [1, 9]
        (db / "shards.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="expects"):
            load_sharded(db)

    def test_not_a_sharded_dir(self, tmp_path):
        with pytest.raises(PersistenceError, match="shards.json"):
            load_sharded(tmp_path)

    def test_corrupt_shard_column_detected(self, tmp_path):
        db = tmp_path / "db"
        save_sharded(_sharded_table(3), db)
        fi.flip_bit(fi.data_file(_shard_dir(db, 1), "m0_vals.npy"))
        with pytest.raises(CorruptionError, match="CRC32"):
            load_sharded(db)

    def test_damaged_view_in_one_shard_drops_view_globally(self, tmp_path):
        db = tmp_path / "db"
        save_sharded(_sharded_table(3), db)
        fi.data_file(_shard_dir(db, 2), "gv_gv1.npy").unlink()
        with pytest.warns(RuntimeWarning, match="gv1"):
            loaded = load_sharded(db)
        # The view is gone from the table (one missing segment makes the
        # global view unanswerable) but base columns still verify.
        assert not loaded.has_graph_view("gv1")
        assert "gv1" in [name for name, _ in loaded.dropped_views]
        assert loaded.ref_bitmap("element", 0) == _reference_relation().ref_bitmap("element", 0)


# -- engine-level sharding ---------------------------------------------------


class TestEngineSharding:
    def test_sharded_engine_matches_unsharded(self, records, queries):
        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        sharded = GraphAnalyticsEngine(shards=4)
        sharded.load_records(records)
        assert sharded.n_shards == 4
        for query in queries:
            assert (
                sharded.query(query).record_ids
                == plain.query(query).record_ids
            )
            agg = PathAggregationQuery(query, "sum")
            assert sharded.aggregate(agg).path_values.keys() == (
                plain.aggregate(agg).path_values.keys()
            )

    def test_bulk_load_routes_chunks_to_shards(self, records, queries):
        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        sharded = GraphAnalyticsEngine(shards=4)
        assert sharded.load_records(iter(records)) == len(records)
        # Even contiguous record ranges, same global record order.
        base, extra = divmod(len(records), 4)
        assert [s.n_records for s in sharded.relation.shard_relations()] == [
            base + (i < extra) for i in range(4)
        ]
        all_rows = np.arange(len(records))
        assert sharded.record_ids_at(all_rows) == plain.record_ids_at(all_rows)
        for query in queries:
            got, expected = sharded.query(query), plain.query(query)
            assert got.record_ids == expected.record_ids
            for element, values in expected.measures.items():
                np.testing.assert_array_equal(got.measures[element], values)
        # A second bulk load (non-empty engine) rebalances to even ranges.
        sharded.load_records(records[:7])
        sizes = [s.n_records for s in sharded.relation.shard_relations()]
        assert sum(sizes) == len(records) + 7 and max(sizes) - min(sizes) <= 1

    def test_bulk_load_smaller_than_shard_count(self, records):
        engine = GraphAnalyticsEngine(shards=4)
        assert engine.load_records(records[:2]) == 2
        assert [s.n_records for s in engine.relation.shard_relations()] == [1, 1, 0, 0]
        element = next(iter(records[1].elements()))
        assert records[1].record_id in engine.query(GraphQuery([element])).record_ids

    def test_reshard_bumps_epoch_and_keeps_answers(self, records, queries):
        engine = GraphAnalyticsEngine(shards=2)
        engine.load_records(records)
        before = [engine.query(q, fetch_measures=False).record_ids for q in queries]
        epoch = engine.epoch
        engine.reshard(5)
        assert engine.n_shards == 5
        assert engine.epoch > epoch
        after = [engine.query(q, fetch_measures=False).record_ids for q in queries]
        assert after == before
        engine.reshard(1)  # flatten back to a plain MasterRelation
        assert engine.n_shards == 1
        assert not isinstance(engine.relation, ShardedTable)

    def test_save_load_round_trip(self, tmp_path, records, queries):
        engine = GraphAnalyticsEngine(shards=3)
        engine.load_records(records)
        engine.materialize_graph_views(queries[:4], budget=2)
        db = tmp_path / "db"
        engine.save(db)
        assert is_sharded_dir(db)
        loaded = GraphAnalyticsEngine.load(db)
        assert loaded.n_shards == 3
        assert sorted(loaded.graph_views) == sorted(engine.graph_views)
        resharded = GraphAnalyticsEngine.load(db, shards=6)
        assert resharded.n_shards == 6
        for query in queries:
            expected = engine.query(query).record_ids
            assert loaded.query(query).record_ids == expected
            assert resharded.query(query).record_ids == expected

    def test_shard_runner_seam(self, records, queries):
        engine = GraphAnalyticsEngine(shards=4)
        engine.load_records(records)
        expected = [engine.query(q, fetch_measures=False).record_ids for q in queries]
        fanouts = []

        class CountingRunner(ShardRunner):
            def map(self, fn, tasks):
                fanouts.append(len(tasks))
                return super().map(fn, tasks)

        engine.use_shard_runner(CountingRunner())
        got = [engine.query(q, fetch_measures=False).record_ids for q in queries]
        assert got == expected
        assert fanouts and all(n == 4 for n in fanouts)
        engine.use_shard_runner(None)
        assert engine._runner is INLINE

    def test_append_after_load_extends_last_shard(self, records):
        engine = GraphAnalyticsEngine(shards=3)
        engine.load_records(records[:30])
        sizes = [s.n_records for s in engine.relation.shard_relations()]
        engine.append_records(records[30:40])
        grown = [s.n_records for s in engine.relation.shard_relations()]
        assert grown[:2] == sizes[:2]
        assert grown[2] == sizes[2] + 10
        assert engine.n_records == 40


# -- cache keys and the executor's shard pool --------------------------------


class TestShardAwareServing:
    def test_cache_keys_isolate_shards(self):
        cache = BitmapCache(1 << 20)
        bitmaps = {0: Bitmap.from_indices(4, [0]), 1: Bitmap.from_indices(4, [1])}
        elements = frozenset([("A", "B")])
        for shard, expected in bitmaps.items():
            got = cache.get_or_compute(
                7, elements, lambda s=shard: bitmaps[s], shard=shard
            )
            assert got == expected
        # Both entries live side by side; neither lookup collides.
        assert cache.lookup(7, elements, shard=0) == bitmaps[0]
        assert cache.lookup(7, elements, shard=1) == bitmaps[1]

    def test_executor_installs_and_removes_shard_pool(self, records, queries):
        from repro.obs import MetricsRegistry

        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        expected = [plain.query(q).record_ids for q in queries]
        engine = GraphAnalyticsEngine(shards=4)
        engine.load_records(records)
        registry = MetricsRegistry()
        with QueryExecutor(engine, jobs=4, cache_mb=8, registry=registry) as ex:
            results = ex.run_batch(list(queries))
            assert registry.get("engine.shards").value == 4
        assert [r.record_ids for r in results] == expected
        assert registry.get("exec.shard_tasks").value > 0
        # close() must restore the inline runner so later serial use is safe.
        assert engine._runner is INLINE

    def test_serial_executor_keeps_inline_runner(self, records):
        engine = GraphAnalyticsEngine(shards=2)
        engine.load_records(records[:10])
        with QueryExecutor(engine, jobs=1) as ex:
            assert ex.exec_mode == "serial"
            assert engine._runner is INLINE
            ex.run_one(GraphQuery([next(iter(records[0].elements()))]))
        assert engine._runner is INLINE
