"""Record-range folds: geometry, gathers, persistence, serving.

The relation holds no cut.  A query's records are cut per query by the
shard runner into ``engine.n_shards`` ranges (:func:`range_tasks`) — when
fanning out pays — and each range folds its segment of the one
relation's bitmaps.  These tests pin the invariants the operator layer
relies on: balanced even cuts, word-aligned once every range gets a word,
range folds whose concatenation is the relation's fold, order-preserving
gathers, range counts that move no data (reshard, load at any count),
crash-safe persistence as one relation with no stored cut, the engine-
and executor-level seams (``shards=N``, ``reshard``, the shard runner),
and a stateful model that folds a relation over changing range counts
against an unsharded twin."""

from __future__ import annotations

import json
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    rule,
)

from repro.baselines import RowStore
from repro.columnstore import (
    Bitmap,
    MasterRelation,
    MeasureColumn,
    RelationBitmapReader,
    and_refs,
    load_relation,
    save_relation,
)
from repro.columnstore.column import rank_rows
from repro.core import GraphAnalyticsEngine, GraphQuery, GraphRecord, PathAggregationQuery
from repro.core.engine import INLINE, ShardRunner, range_tasks
from repro.core.engine import facade
from repro.errors import CorruptionError, ManifestError, PersistenceError
from repro.exec import QueryExecutor
from repro.workloads import build_dataset, sample_path_queries
from tests import faultinject as fi

# -- fixtures ----------------------------------------------------------------


def _reference_relation(n_records: int = 10) -> MasterRelation:
    """A relation with columns spanning range boundaries."""
    rel = MasterRelation(partition_width=2)
    rel.append_columns(n_records, {
        0: (np.arange(0, n_records, 2), np.arange(0, n_records, 2) + 1.0),
        1: (np.arange(1, n_records, 3), np.full(len(range(1, n_records, 3)), 7.0)),
        2: (np.array([0, n_records - 1]), np.array([3.0, 4.0])),
    })
    rel.add_graph_view("gv1", Bitmap.from_indices(n_records, [0, n_records - 1]))
    rel.add_aggregate_view(
        "av1:sum",
        MeasureColumn.from_optionals([5.0] + [None] * (n_records - 2) + [6.0]),
    )
    return rel


def _refs(relation) -> list[tuple[str, object]]:
    """One ref per bitmap column the relation holds."""
    return (
        [("element", i) for i in relation.element_ids()]
        + [("graph-view", name) for name in relation.graph_view_names()]
        + [("agg-view", name) for name in relation.aggregate_view_names()]
    )


def _sizes_of(n_records: int, k: int) -> list[int]:
    """Range sizes of the runner's cut of ``n_records`` into ``k``."""
    return [stop - start for _, start, stop in range_tasks(n_records, k)]


def _shard_folds(relation, refs, k: int) -> list[Bitmap]:
    """The relation's fold over each range of the runner's ``k``-cut."""
    return [
        relation.fold(refs, None, start, stop)
        for _, start, stop in range_tasks(relation.n_records, k)
    ]


@pytest.fixture(scope="module")
def records():
    return list(build_dataset("NY", n_records=60, seed=7).to_records())


@pytest.fixture(scope="module")
def queries(records):
    corpus = build_dataset("NY", n_records=60, seed=7)
    return sample_path_queries(corpus, 12, 3, distribution="zipf", seed=4)


def _assert_tables_equal(a, b, k: int = 3) -> None:
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
    # Each range folds its segment: concatenated, the whole column.
    for ref in _refs(a):
        assert Bitmap.concat(_shard_folds(a, [ref], k)) == b.ref_bitmap(*ref)


# -- geometry ----------------------------------------------------------------


class TestGeometry:
    def test_unsharded_relation_is_one_shard(self):
        rel = MasterRelation()
        rel.append_columns(5, {})
        rel.append_columns(2, {})
        assert range_tasks(rel.n_records, 1) == [(0, 0, 7)]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            GraphAnalyticsEngine(shards=0)
        engine = GraphAnalyticsEngine(shards=2)
        with pytest.raises(ValueError):
            engine.reshard(0)
        assert engine.n_shards == 2

    def test_even_split(self):
        assert _sizes_of(10, 4) == [3, 3, 2, 2]
        assert [task.start for task in range_tasks(10, 4)] == [0, 3, 6, 8]

    def test_growth_extends_last_shard_only(self):
        """Once every range holds a word, growth within the cut's last
        word count lands in the last range alone: the cut is whole words
        and the last range takes the remainder."""
        assert _sizes_of(6, 3) == [2, 2, 2]
        assert _sizes_of(9, 3) == [3, 3, 3]
        assert _sizes_of(200, 3) == [64, 64, 72]
        assert _sizes_of(255, 3) == [64, 64, 127]
        assert _sizes_of(256, 3) == [128, 64, 64]

    def test_shrink_rejected(self):
        rel = MasterRelation()
        rel.set_record_count(4)
        with pytest.raises(ValueError):
            rel.set_record_count(3)

    def test_append_columns_returns_global_index(self):
        rel = MasterRelation()
        assert rel.append_columns(5, {0: ([0, 2, 4], [1.0, 2.0, 3.0])}) == 0
        assert rel.append_columns(1, {0: ([0], [4.0])}) == 5
        assert rel.append_columns(1, {1: ([0], [5.0])}) == 6
        np.testing.assert_array_equal(
            rel.measures(0), [1.0, np.nan, 2.0, np.nan, 3.0, 4.0, np.nan]
        )
        assert _sizes_of(7, 3) == [3, 2, 2]
        assert [seg.to_indices().tolist() for seg in _shard_folds(rel, [("element", 1)], 3)] == [
            [], [], [1]
        ]


# -- gathers -----------------------------------------------------------------


class TestRouting:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 10])
    def test_columns_match_reference(self, n_shards):
        _assert_tables_equal(_reference_relation(), _reference_relation(), n_shards)

    def test_measure_gather_preserves_row_order(self):
        rel = _reference_relation()
        rows = np.array([9, 0, 4, 2])
        np.testing.assert_array_equal(rel.measures(0, rows), rel.measures(0)[rows])
        np.testing.assert_array_equal(rel.measures(0, rows)[1:], [1.0, 5.0, 3.0])

    @pytest.mark.parametrize(
        "rows", [[0, 2, 3, 4, 8, 9], [9, 0, 4, 2, 4], [5], [], [3, 3, 7]]
    )
    def test_split_rows_once_serves_every_column_with_the_same_counts(self, rows):
        """A query ranks its rows once (``rank_rows``) and gathers every
        column through the result: same values, same order and the same
        column/value counts as per call — sorted rows or not."""
        rows = np.array(rows, dtype=np.int64)
        reference = _reference_relation()
        per_call, once = _reference_relation(), _reference_relation()
        per_call.collector.reset()
        once.collector.reset()
        ranked = rank_rows(rows)
        assert ranked.size == rows.size
        for edge_id in (0, 1, 2):
            want = reference.measures(edge_id, rows)
            np.testing.assert_array_equal(per_call.measures(edge_id, rows), want)
            np.testing.assert_array_equal(once.measures(edge_id, ranked), want)
        np.testing.assert_array_equal(
            once.aggregate_view_measures("av1:sum", ranked),
            reference.aggregate_view_measures("av1:sum", rows),
        )
        per_call.aggregate_view_measures("av1:sum", rows)
        assert once.collector.stats == per_call.collector.stats

    def test_load_columnar_validates(self):
        engine = GraphAnalyticsEngine(shards=2)
        ids = ["r0", "r1", "r2", "r3"]
        with pytest.raises(IndexError):
            engine.load_columnar(ids, {("A", "B"): (np.array([4]), np.array([1.0]))})
        with pytest.raises(ValueError):
            engine.load_columnar(ids, {("A", "B"): (np.array([0, 1]), np.array([1.0]))})
        assert engine.n_records == 0 and engine.relation.element_ids() == []


# -- re-cuts -----------------------------------------------------------------


class TestRebalanceAndConversion:
    def test_round_trip_to_relation(self):
        assert range_tasks(10, 1) == [(0, 0, 10)]
        _assert_tables_equal(_reference_relation(), _reference_relation(), 1)

    def test_rebalance_after_appends(self):
        """What a stored cut needed ``rebalance`` for after appends, every
        query's cut does by itself: it is even over the grown relation."""
        rel, reference = _reference_relation(), _reference_relation()
        for table in (rel, reference):
            table.append_columns(6, {0: (np.arange(6), 100.0 + np.arange(6))})
            # Incremental view maintenance, as the engine does on append.
            table.extend_graph_view("gv1", Bitmap.zeros(6))
            table.extend_aggregate_view("av1:sum", MeasureColumn.nulls(6))
        assert _sizes_of(rel.n_records, 4) == [4, 4, 4, 4]
        _assert_tables_equal(rel, reference, 4)

    def test_reshard_preserves_content(self):
        _assert_tables_equal(_reference_relation(), _reference_relation(), 5)
        engine = GraphAnalyticsEngine(shards=2)
        relation = engine.relation
        engine.reshard(5)
        assert engine.n_shards == 5 and engine.relation is relation


# -- views -------------------------------------------------------------------


class TestShardedViews:
    def test_view_split_and_merge(self):
        rel = _reference_relation()
        assert rel.ref_bitmap("graph-view", "gv1").to_indices().tolist() == [0, 9]
        segments = _shard_folds(rel, [("graph-view", "gv1")], 3)
        assert [len(s) for s in segments] == _sizes_of(10, 3)
        assert [s.to_indices().tolist() for s in segments] == [[0], [], [2]]

    def test_view_usable_only_when_in_every_shard(self):
        """A view is one column of the one relation: dropped, it is gone
        from every range at once."""
        rel = _reference_relation()
        rel.drop_graph_view("gv1")
        assert not rel.has_graph_view("gv1")
        assert "gv1" not in rel.graph_view_names()
        for _, start, stop in range_tasks(rel.n_records, 3):
            with pytest.raises(KeyError):
                rel.fold([("graph-view", "gv1")], None, start, stop)

    def test_extend_views_on_append(self):
        rel = _reference_relation()
        rel.append_columns(1, {0: ([0], [9.0])})
        rel.extend_graph_view("gv1", Bitmap.ones(1))
        rel.extend_aggregate_view("av1:sum", MeasureColumn.from_optionals([8.0]))
        assert rel.ref_bitmap("graph-view", "gv1").to_indices().tolist() == [0, 9, 10]
        assert rel.ref_bitmap("agg-view", "av1:sum")[10]
        # Views grown from empty: every range's segment of the grown view
        # covers its range.
        rel = MasterRelation()
        rel.add_graph_view("gv1", Bitmap.zeros(0))
        rel.add_aggregate_view("av1:sum", MeasureColumn.nulls(0))
        rel.append_columns(5, {0: ([1, 4], [1.0, 2.0])})
        rel.extend_graph_view("gv1", Bitmap.from_indices(5, [1, 4]))
        rel.extend_aggregate_view("av1:sum", MeasureColumn.from_optionals([None, 1.0, None, None, 2.0]))
        assert [len(s) for s in _shard_folds(rel, [("graph-view", "gv1")], 3)] == [2, 2, 1]
        assert rel.ref_bitmap("graph-view", "gv1").to_indices().tolist() == [1, 4]
        assert rel.aggregate_view_measures("av1:sum", np.array([4, 1])).tolist() == [2.0, 1.0]

    def test_drop_views_clears_all_shards(self):
        rel = _reference_relation()
        rel.drop_views()
        assert rel.graph_view_names() == []
        assert rel.aggregate_view_names() == []


# -- persistence -------------------------------------------------------------


def _uneven_engine(extra: int = 0) -> GraphAnalyticsEngine:
    """A 3-range engine of 600 records (+ ``extra``): 400 loaded, the
    rest appended, with one graph view and one aggregate view."""
    records = [
        GraphRecord(f"r{i}", {
            ("A", "B"): float(i),
            **({("B", "C"): 2.0} if i % 3 == 0 else {}),
            **({("C", "D"): 0.5} if i % 5 < 2 else {}),
            **({("D", "E"): 1.0} if i >= 300 else {}),
        })
        for i in range(600 + extra)
    ]
    engine = GraphAnalyticsEngine(shards=3)
    engine.load_records(records[:400])
    engine.append_records(records[400:])
    chain = GraphQuery.from_node_chain("A", "B", "C", "D")
    engine.materialize_graph_views([chain], budget=1)
    engine.materialize_aggregate_views([PathAggregationQuery(chain, "sum")], budget=1)
    return engine


def _words_root(bitmap) -> np.ndarray:
    words = bitmap.words()
    while words.base is not None:
        words = words.base
    return words


def _store_with_cuts(db, cuts) -> None:
    """Give the store at ``db`` the ``shard_records`` key a format-4
    store written before cuts left storage carries."""
    manifest = fi.live_manifest(db)
    manifest["shard_records"] = cuts
    (db / "manifest.json").write_text(json.dumps(manifest))


class TestShardedPersistence:
    """A relation saves as one relation with no cut in its manifest; a
    format-4 store that still carries ``shard_records`` loads, the key
    ignored."""

    def test_round_trip(self, tmp_path):
        rel = _reference_relation(600)
        db = tmp_path / "db"
        save_relation(rel, db, app_meta={"k": 1})
        assert "shard_records" not in fi.live_manifest(db)
        loaded = load_relation(db)
        assert loaded.app_meta == {"k": 1}
        _assert_tables_equal(loaded, rel)
        for got, expected in zip(_shard_folds(loaded, [("element", 0)], 3),
                                 _shard_folds(rel, [("element", 0)], 3)):
            assert got == expected
        # Word-aligned cuts: every range's segment of a column is a view of
        # the one loaded array.
        column = loaded.ref_bitmap("element", 0)
        roots = {
            id(_words_root(column.slice(start, stop)))
            for _, start, stop in range_tasks(loaded.n_records, 3)
        }
        assert roots == {id(_words_root(column))}

    def test_engine_round_trip_keeps_cuts_views_and_meta(self, tmp_path):
        engine = _uneven_engine()
        db = tmp_path / "db"
        engine.save(db)
        assert "shard_records" not in fi.live_manifest(db)
        loaded = GraphAnalyticsEngine.load(db, shards=3)
        assert loaded.n_shards == engine.n_shards == 3
        assert sorted(loaded.graph_views) == sorted(engine.graph_views)
        assert sorted(loaded.aggregate_views) == sorted(engine.aggregate_views)
        assert loaded.relation.app_meta == engine._engine_meta()
        _assert_tables_equal(loaded.relation, engine.relation)
        chain = GraphQuery.from_node_chain("A", "B", "C", "D")
        assert loaded.query(chain).record_ids == engine.query(chain).record_ids
        agg = PathAggregationQuery(chain, "sum")
        got, want = loaded.aggregate(agg).path_values, engine.aggregate(agg).path_values
        assert got.keys() == want.keys()
        for path, values in want.items():
            np.testing.assert_array_equal(got[path], values)

    def test_load_repartitions(self, tmp_path):
        engine = _uneven_engine()
        db = tmp_path / "db"
        engine.save(db)
        chain = GraphQuery.from_node_chain("A", "B", "C")
        expected = engine.query(chain).record_ids
        assert GraphAnalyticsEngine.load(db).n_shards == 1
        for shards in (1, 2, 5):
            loaded = GraphAnalyticsEngine.load(db, shards=shards)
            assert loaded.n_shards == shards
            assert _sizes_of(loaded.n_records, shards) == (
                _aligned_sizes(600, shards) if shards > 1 else [600]
            )
            assert loaded.query(chain).record_ids == expected

    def test_crash_mid_save_preserves_previous_generation(self, tmp_path):
        old, new = _uneven_engine(), _uneven_engine(extra=7)
        stages = fi.save_stage_labels(new.relation, tmp_path / "stages")
        commit = stages.index("committed")
        for i, label in enumerate(stages):
            db = tmp_path / f"db{i}"
            old.save(db)
            with fi.crash_at_stage(i), pytest.raises(fi.SimulatedCrash):
                new.save(db)
            loaded = GraphAnalyticsEngine.load(db)
            want = 600 if i < commit else 607
            assert loaded.n_records == want, f"stage {label!r}"
            assert sorted(loaded.graph_views) == sorted(old.graph_views)
            # The next clean save commits and collects the crash's debris.
            new.save(db)
            assert GraphAnalyticsEngine.load(db).n_records == 607
            live = fi.live_manifest(db)["directory"]
            assert sorted(p.name for p in db.iterdir()) == [live, "manifest.json"]

    def test_generation_gc(self, tmp_path):
        rel = _reference_relation()
        db = tmp_path / "db"
        save_relation(rel, db)
        save_relation(rel, db)
        save_relation(rel, db)
        assert sorted(p.name for p in db.iterdir()) == ["gen-000003", "manifest.json"]

    def test_manifest_garbage(self, tmp_path):
        db = tmp_path / "db"
        save_relation(_reference_relation(), db)
        (db / "manifest.json").write_text("{nope")
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_relation(db)

    def test_manifest_missing_fields(self, tmp_path):
        db = tmp_path / "db"
        save_relation(_reference_relation(), db)
        manifest = fi.live_manifest(db)
        del manifest["n_records"]
        (db / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="missing fields"):
            load_relation(db)

    def test_unsupported_format_version(self, tmp_path):
        db = tmp_path / "db"
        save_relation(_reference_relation(), db)
        manifest = fi.live_manifest(db)
        manifest["format_version"] = 3
        (db / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="re-save"):
            load_relation(db)

    def test_shard_count_mismatch(self, tmp_path):
        """A stored cut that does not even cut the records is never read:
        the store loads whole, at whatever range count asked for."""
        engine = _uneven_engine()
        db = tmp_path / "db"
        engine.save(db)
        _store_with_cuts(db, [5, 4])
        loaded = GraphAnalyticsEngine.load(db, shards=2)
        assert loaded.n_shards == 2
        _assert_tables_equal(loaded.relation, engine.relation, 2)
        chain = GraphQuery.from_node_chain("A", "B", "C")
        assert loaded.query(chain).record_ids == engine.query(chain).record_ids

    @pytest.mark.parametrize("cuts", [[], [-2, 12], "10", [10.0]])
    def test_malformed_cuts_are_refused(self, tmp_path, cuts):
        """Stored cuts, malformed or not, are ignored by the load and the
        worker's reader alike; a malformed *range* is refused by the fold."""
        rel = _reference_relation()
        db = tmp_path / "db"
        save_relation(rel, db)
        _store_with_cuts(db, cuts)
        _assert_tables_equal(load_relation(db), rel)
        reader = RelationBitmapReader(db)
        assert and_refs(reader.ref_bitmap, [("element", 0)], 10) == rel.ref_bitmap("element", 0)
        for start, stop in ((-2, 10), (0, 12), (6, 4)):
            with pytest.raises((IndexError, ValueError)):
                rel.fold([("element", 0), ("element", 1)], None, start, stop)

    def test_not_a_sharded_dir(self, tmp_path):
        """A directory holding only the retired nested format's root
        ``shards.json`` is refused like any other non-store."""
        db = tmp_path / "db"
        db.mkdir()
        (db / "shards.json").write_text(json.dumps({"format_version": 1}))
        with pytest.raises(PersistenceError, match="not a relation directory"):
            load_relation(db)
        with pytest.raises(PersistenceError, match="not a relation directory"):
            GraphAnalyticsEngine.load(db)
        assert not GraphAnalyticsEngine.is_saved_engine(db)

    def test_corrupt_shard_column_detected(self, tmp_path):
        db = tmp_path / "db"
        save_relation(_reference_relation(), db)
        fi.flip_bit(fi.data_file(db, "m0_vals.npy"))
        with pytest.raises(CorruptionError, match="CRC32"):
            load_relation(db)

    def test_damaged_view_in_one_shard_drops_view_globally(self, tmp_path):
        db = tmp_path / "db"
        save_relation(_reference_relation(), db)
        fi.data_file(db, "gv_gv1.npy").unlink()
        with pytest.warns(RuntimeWarning, match="gv1"):
            loaded = load_relation(db)
        # The view's one file covers every range: it is gone from each,
        # while base columns still verify.
        assert not loaded.has_graph_view("gv1")
        for _, start, stop in range_tasks(loaded.n_records, 3):
            with pytest.raises(KeyError):
                loaded.fold([("graph-view", "gv1")], None, start, stop)
        assert loaded.has_aggregate_view("av1:sum")
        assert "gv1" in [name for name, _ in loaded.dropped_views]
        assert loaded.ref_bitmap("element", 0) == _reference_relation().ref_bitmap("element", 0)

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_file_count_is_independent_of_shards(self, tmp_path, shards):
        engine = _uneven_engine()
        engine.reshard(shards)
        db = tmp_path / "db"
        engine.save(db)
        files = [p for p in db.rglob("*") if p.is_file()]
        # Two files per element column, one per graph view, two per
        # aggregate view, and the manifest.
        relation = engine.relation
        n_views = len(relation.graph_view_names()) + 2 * len(relation.aggregate_view_names())
        assert len(files) == 2 * len(relation.element_ids()) + n_views + 1
        assert "shard_records" not in fi.live_manifest(db)


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
        assert _sizes_of(sharded.n_records, 4) == [base + (i < extra) for i in range(4)]
        all_rows = np.arange(len(records))
        assert sharded.record_ids_at(all_rows) == plain.record_ids_at(all_rows)
        for query in queries:
            got, expected = sharded.query(query), plain.query(query)
            assert got.record_ids == expected.record_ids
            for element, values in expected.measures.items():
                np.testing.assert_array_equal(got.measures[element], values)
        # A second bulk load: the next query's cut is even again.
        sharded.load_records(records[:7])
        sizes = _sizes_of(sharded.n_records, 4)
        assert sum(sizes) == len(records) + 7 and max(sizes) - min(sizes) <= 1

    def test_bulk_load_smaller_than_shard_count(self, records):
        engine = GraphAnalyticsEngine(shards=4)
        assert engine.load_records(records[:2]) == 2
        assert _sizes_of(engine.n_records, 4) == [1, 1, 0, 0]
        element = next(iter(records[1].elements()))
        assert records[1].record_id in engine.query(GraphQuery([element])).record_ids

    def test_reshard_bumps_epoch_and_keeps_answers(self, records, queries):
        engine = GraphAnalyticsEngine(shards=2)
        engine.load_records(records)
        relation = engine.relation
        before = [engine.query(q, fetch_measures=False).record_ids for q in queries]
        epoch = engine.epoch
        engine.reshard(5)
        assert engine.n_shards == 5
        assert engine.epoch > epoch
        after = [engine.query(q, fetch_measures=False).record_ids for q in queries]
        assert after == before
        epoch = engine.epoch
        engine.reshard(5)  # the same count: nothing to do
        assert engine.epoch == epoch
        engine.reshard(1)  # one range covering every record
        assert engine.n_shards == 1
        assert engine.relation is relation

    def test_save_load_round_trip(self, tmp_path, records, queries):
        engine = GraphAnalyticsEngine(shards=3)
        engine.load_records(records)
        engine.materialize_graph_views(queries[:4], budget=2)
        db = tmp_path / "db"
        engine.save(db)
        assert "shard_records" not in fi.live_manifest(db)
        loaded = GraphAnalyticsEngine.load(db)
        assert loaded.n_shards == 1  # a range count is not stored
        assert sorted(loaded.graph_views) == sorted(engine.graph_views)
        resharded = GraphAnalyticsEngine.load(db, shards=6)
        assert resharded.n_shards == 6
        for query in queries:
            expected = engine.query(query).record_ids
            assert loaded.query(query).record_ids == expected
            assert resharded.query(query).record_ids == expected

    def test_shard_runner_seam(self, records, queries):
        """The installed runner folds every untraced query's conjunction,
        once per query, against the query's own environment; a traced
        query folds inline."""
        engine = GraphAnalyticsEngine(shards=4)
        engine.load_records(records)
        expected = [engine.query(q, fetch_measures=False).record_ids for q in queries]
        seen = []

        class CountingRunner(ShardRunner):
            def conjunction(self, plan, env, ctx):
                seen.append((env.shards, env.epoch))
                return super().conjunction(plan, env, ctx)

        engine.use_shard_runner(CountingRunner())
        got = [engine.query(q, fetch_measures=False).record_ids for q in queries]
        assert got == expected
        assert len(seen) == len(queries) and set(seen) == {(4, engine.epoch)}
        seen.clear()
        engine.explain(queries[0], analyze=True)
        assert seen == []
        engine.use_shard_runner(None)
        assert engine._runner is INLINE

    def test_append_after_load_extends_last_shard(self, dense_records):
        """Appends within the cut's word count land in the last range."""
        plain = GraphAnalyticsEngine()
        plain.load_records(dense_records[:610])
        engine = GraphAnalyticsEngine(shards=3)
        engine.load_records(dense_records[:600])
        assert _sizes_of(engine.n_records, 3) == [192, 192, 216]
        engine.append_records(dense_records[600:610])
        assert _sizes_of(engine.n_records, 3) == [192, 192, 226]
        assert engine.n_records == 610
        _assert_same_answers(engine, plain)


    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_range_folds_concatenate_to_the_whole_fold(self, dense_records, k):
        """The merge the process runner relies on: after appends of uneven
        sizes, the folds of a plan's refs over the ranges of a ``k``-cut,
        concatenated, are the fold of ``[0, n)``."""
        engine = GraphAnalyticsEngine()
        lo = 0
        for hi in (97, 98, 161, 400, 403, 650):
            engine.append_records(dense_records[lo:hi])
            lo = hi
        relation = engine.relation
        for query in _ALIGNED_QUERIES:
            refs = engine.physical_plan(query).refs
            segments = [
                relation.fold(refs, None, task.start, task.stop)
                for task in range_tasks(relation.n_records, k)
            ]
            assert Bitmap.concat(segments) == relation.fold(refs)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_answers_are_bit_identical_across_range_counts(self, dense_records, mode):
        """After appends of uneven sizes, answers — ids, measures, path
        aggregates — are the unsharded engine's at 1, 2, 3 and 8 ranges."""
        plain = GraphAnalyticsEngine()
        engine = GraphAnalyticsEngine(shards=3)
        lo = 0
        for hi in (97, 98, 161, 400, 403, 650):
            for target in (plain, engine):
                target.append_records(dense_records[lo:hi])
            lo = hi
        with QueryExecutor(engine, exec_mode=mode, workers=2):
            for k in (1, 2, 3, 8):
                engine.reshard(k)
                _assert_same_answers(engine, plain)


# -- the executor's shard pool and its cache ---------------------------------


class TestShardAwareServing:
    def test_executor_installs_and_removes_shard_pool(self, records, queries, fan_out):
        from repro.exec.runners import ProcessRunner
        from repro.obs import MetricsRegistry

        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        expected = [plain.query(q).record_ids for q in queries]
        engine = GraphAnalyticsEngine(shards=4)
        engine.load_records(records)
        registry = MetricsRegistry()
        distinct = list(dict.fromkeys(queries))
        with QueryExecutor(
            engine, jobs=2, cache_mb=8, registry=registry, exec_mode="process", workers=2
        ) as ex:
            assert isinstance(engine._runner, ProcessRunner)
            results = ex.run_batch(list(queries))
            assert registry.get("engine.shards").value == 4
            # One cache entry per answer, none per range or prefix.
            assert len(ex.cache) == len(distinct)
            ex.cache.reset_stats()
            ex.run_batch(distinct)
            assert (ex.cache.stats.hits, ex.cache.stats.misses) == (len(distinct), 0)
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


# -- word-aligned cuts -------------------------------------------------------

_CHAIN = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "C"), ("E", "F")]
_ALIGNED_QUERIES = [
    GraphQuery.from_node_chain("A", "B", "C"),
    GraphQuery.from_node_chain("B", "C", "D", "E"),
    GraphQuery([("A", "C")]),
    GraphQuery([("E", "F"), ("A", "B")]),
]


def _even_sizes(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + (i < extra) for i in range(k)]


def _aligned_sizes(n: int, k: int) -> list[int]:
    """The cut once every range holds a 64-record word: whole words,
    spread evenly, the last range taking the remainder."""
    base, extra = divmod(n // 64, k)
    sizes = [64 * (base + (i < extra)) for i in range(k)]
    sizes[-1] += n % 64
    return sizes


def _sizes(engine) -> list[int]:
    return _sizes_of(engine.n_records, engine.n_shards)


def _starts(engine) -> list[int]:
    return [task.start for task in range_tasks(engine.n_records, engine.n_shards)]


@pytest.fixture(scope="module")
def dense_records():
    rng = np.random.default_rng(64)
    out = []
    for i in range(192 * 8 + 5 + 40):
        present = rng.random(len(_CHAIN)) < 0.6
        present[rng.integers(len(_CHAIN))] = True
        out.append(GraphRecord(f"r{i}", {
            edge: float(rng.integers(1, 50))
            for edge, keep in zip(_CHAIN, present) if keep
        }))
    return out


def _assert_same_answers(engine, plain) -> None:
    _assert_tables_equal(engine.relation, plain.relation, engine.n_shards)
    rows = np.arange(plain.n_records)
    assert engine.record_ids_at(rows) == plain.record_ids_at(rows)
    for query in _ALIGNED_QUERIES:
        got, expected = engine.query(query), plain.query(query)
        assert got.record_ids == expected.record_ids
        assert got.measures.keys() == expected.measures.keys()
        for element, values in expected.measures.items():
            np.testing.assert_array_equal(got.measures[element], values)
        agg = PathAggregationQuery(query, "sum")
        got, expected = engine.aggregate(agg), plain.aggregate(agg)
        assert got.record_ids == expected.record_ids
        assert got.path_values.keys() == expected.path_values.keys()
        for path, values in expected.path_values.items():
            np.testing.assert_array_equal(got.path_values[path], values)


class TestWordAlignedCuts:
    """A query's cut falls on multiples of 64 records once every range
    would hold one whole word; below that it is the even split (the
    small-table geometry of TestGeometry).  Either way the answers are the
    unsharded engine's, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("offset", ["64k-1", "64k", "64k+1", "192k+5"])
    def test_first_split_geometry_and_answers(self, dense_records, k, offset):
        n = {"64k-1": 64 * k - 1, "64k": 64 * k, "64k+1": 64 * k + 1,
             "192k+5": 192 * k + 5}[offset]
        records = dense_records[:n]
        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        engine = GraphAnalyticsEngine(shards=k)
        engine.load_records(records)
        aligned = n >= 64 * k
        assert _sizes(engine) == (_aligned_sizes(n, k) if aligned else _even_sizes(n, k))
        if aligned:
            assert all(start % 64 == 0 for start in _starts(engine))
            # Whole-word segments: a column's words add up to the unsharded
            # column's, and the merge is a word copy.
            nbytes = sum(s.nbytes() for s in _shard_folds(engine.relation, [("element", 0)], k))
            assert nbytes == plain.relation.ref_bitmap("element", 0).nbytes()
        else:
            # Below a word per range the even split stays; at 64k-1 it
            # happens to cut on 64 too, every other size here does not.
            assert offset == "64k-1"
        _assert_same_answers(engine, plain)

    def test_appends_grow_only_the_last_shard(self, dense_records):
        """Appends that add no whole word per range extend the last range
        of the next query's cut, and move no other boundary."""
        n, k = 192 * 3 + 5, 3
        plain = GraphAnalyticsEngine()
        plain.load_records(dense_records[:n])
        engine = GraphAnalyticsEngine(shards=k)
        engine.load_records(dense_records[:n])
        starts = _starts(engine)
        for lo, hi in ((n, n + 7), (n + 7, n + 30), (n + 30, n + 40)):
            more = dense_records[lo:hi]
            engine.append_records(more)
            plain.append_records(more)
            assert _starts(engine) == starts
            assert _sizes(engine)[:-1] == _aligned_sizes(n, k)[:-1]
            _assert_same_answers(engine, plain)

    def test_reshard_and_rebalance_realign(self, dense_records):
        """Appends past a word per range realign the next query's cut by
        themselves, and so does every reshard."""
        plain = GraphAnalyticsEngine()
        plain.load_records(dense_records[:300])
        engine = GraphAnalyticsEngine(shards=2)
        engine.load_records(dense_records[:300])
        assert _sizes(engine) == [128, 172]
        more = dense_records[300:341]
        engine.append_records(more)
        plain.append_records(more)
        assert _sizes(engine) == _aligned_sizes(341, 2) == [192, 149]
        _assert_same_answers(engine, plain)
        engine.reshard(3)
        assert _sizes(engine) == _aligned_sizes(341, 3)
        _assert_same_answers(engine, plain)
        engine.reshard(8)  # 341 < 8 * 64: the even split
        assert _sizes(engine) == _even_sizes(341, 8)
        _assert_same_answers(engine, plain)

    def test_store_saved_with_unaligned_cuts(self, tmp_path, dense_records):
        """A format-4 store whose manifest records the even split (every
        store saved before the cuts were aligned) loads, answers exactly,
        and is cut on words by the very next query."""
        n, k = 192 * 3 + 5, 3
        records = dense_records[:n]
        plain = GraphAnalyticsEngine()
        plain.load_records(records)
        engine = GraphAnalyticsEngine(shards=k)
        engine.load_records(records)
        engine.materialize_graph_views(_ALIGNED_QUERIES[:2], budget=2)
        plain.materialize_graph_views(_ALIGNED_QUERIES[:2], budget=2)
        db = tmp_path / "db"
        engine.save(db)
        _store_with_cuts(db, _even_sizes(n, k))
        loaded = GraphAnalyticsEngine.load(db, shards=k)
        assert _sizes(loaded) == _aligned_sizes(n, k) != _even_sizes(n, k)
        assert sorted(loaded.graph_views) == sorted(plain.graph_views)
        _assert_same_answers(loaded, plain)
        resharded = GraphAnalyticsEngine.load(db, shards=2)
        assert _sizes(resharded) == _aligned_sizes(n, 2)
        _assert_same_answers(resharded, plain)


# -- range counts copy nothing -----------------------------------------------


def _storage_objects(relation) -> dict:
    """Every bitmap column and view column the relation holds, by name."""
    out = {("element", i): relation.ref_bitmap("element", i) for i in relation.element_ids()}
    out.update(relation.graph_views_for_persistence())
    out.update(relation.aggregate_views_for_persistence())
    return out


def _assert_same_objects(before: dict, relation) -> None:
    after = _storage_objects(relation)
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


class TestRecutCopiesNothing:
    """``reshard`` and ``load(dir, shards=k)`` set a range count and copy
    no column: every element bitmap and every view column is the very
    object it was, and answers stay the row store's."""

    def _assert_rowstore_answers(self, engine, store) -> None:
        for query in _ALIGNED_QUERIES:
            assert engine.query(query).record_ids == store.query(query).record_ids
            agg = PathAggregationQuery(query, "sum")
            got, want = engine.aggregate(agg), store.aggregate(agg)
            assert got.record_ids == list(want)
            for i, per_path in enumerate(want.values()):
                assert {p: v[i] for p, v in got.path_values.items()} == per_path

    def test_reshard_rebalance_and_load_keep_every_column(
        self, tmp_path, monkeypatch, dense_records
    ):
        records = dense_records[:700]
        store = RowStore()
        store.load_records(records)
        engine = GraphAnalyticsEngine(shards=3)
        engine.load_records(records[:600])
        engine.append_records(records[600:])
        engine.materialize_graph_views(_ALIGNED_QUERIES[:2], budget=2)
        engine.materialize_aggregate_views(
            [PathAggregationQuery(_ALIGNED_QUERIES[1], "sum")], budget=1
        )
        assert engine.graph_views and engine.aggregate_views
        before = _storage_objects(engine.relation)
        for shards in (8, 5, 1):
            engine.reshard(shards)
            _assert_same_objects(before, engine.relation)
            self._assert_rowstore_answers(engine, store)
        engine.reshard(2)
        db = tmp_path / "db"
        engine.save(db)
        loaded = []

        def spy(directory):
            relation = facade_load(directory)
            loaded.append((relation, _storage_objects(relation)))
            return relation

        facade_load = facade.load_relation
        monkeypatch.setattr(facade, "load_relation", spy)
        engine = GraphAnalyticsEngine.load(db, shards=4)
        [(relation, at_load)] = loaded
        assert engine.relation is relation
        assert _sizes(engine) == _aligned_sizes(700, 4)
        _assert_same_objects(at_load, engine.relation)
        self._assert_rowstore_answers(engine, store)


# -- the storage state machine -----------------------------------------------

_ELEMENTS = range(6)


def _view_bits(relation, elements, start: int) -> Bitmap:
    """A graph view over ``elements``, rows ``[start, n)``, as the engine
    builds one: the AND of the elements' segments."""
    n = relation.n_records
    return and_refs(
        relation.ref_bitmap, [("element", e) for e in elements], n - start, start=start
    )


def _sum_column(relation, elements, start: int) -> MeasureColumn:
    """An aggregate view's SUM column over ``elements``, rows ``[start, n)``."""
    bits = _view_bits(relation, elements, start)
    rows = bits.to_indices() + start
    total = np.zeros(rows.size)
    for e in elements:
        if rows.size:
            total += relation.column_for_persistence(e).take(rows)
    return MeasureColumn(total, bits)


class StorageStateMachine(RuleBasedStateMachine):
    """A relation folded over a changing range count against its twin
    through appends (array and list batches), range-count changes, graph-
    and aggregate-view DDL and save/load.  After every step the runner's
    cut cuts the records; on demand, range folds of random refs
    concatenate to the twin's fold at one charged fetch per (ref, range),
    and gathers at random rows read what the twin reads."""

    graph_views = Bundle("graph_views")
    agg_views = Bundle("agg_views")

    @initialize(k=st.sampled_from([2, 3, 5, 8]))
    def setup(self, k):
        self.k = k
        self.sharded = MasterRelation()
        self.twin = MasterRelation()
        self.views: dict[str, frozenset] = {}
        self.counter = 0

    def _both(self):
        return (self.sharded, self.twin)

    @rule(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**16),
        as_lists=st.booleans(),
    )
    def append(self, n, seed, as_lists):
        rng = np.random.default_rng(seed)
        columns = {}
        for e in rng.choice(len(_ELEMENTS), size=rng.integers(1, 4), replace=False).tolist():
            rows = np.flatnonzero(rng.random(n) < rng.choice([0.1, 0.6, 1.0]))
            vals = rng.integers(1, 9, rows.size).astype(float)
            columns[e] = (rows.tolist(), vals.tolist()) if as_lists else (rows, vals)
        start = self.twin.n_records
        for relation in self._both():
            assert relation.append_columns(n, columns) == start
            for name, elements in self.views.items():
                if name.startswith("gv"):
                    relation.extend_graph_view(name, _view_bits(relation, elements, start))
                else:
                    relation.extend_aggregate_view(name, _sum_column(relation, elements, start))

    @rule(k=st.sampled_from([2, 3, 5, 8]))
    def reshard(self, k):
        """Set the range count: the next fold is cut into ``k`` ranges."""
        self.k = k

    @rule(target=graph_views, elements=st.sets(st.sampled_from(_ELEMENTS), min_size=1, max_size=3))
    def add_graph_view(self, elements):
        self.counter += 1
        name = f"gv{self.counter}"
        self.views[name] = frozenset(elements)
        for relation in self._both():
            relation.add_graph_view(name, _view_bits(relation, elements, 0))
        return name

    @rule(target=agg_views, elements=st.sets(st.sampled_from(_ELEMENTS), min_size=1, max_size=3))
    def add_aggregate_view(self, elements):
        self.counter += 1
        name = f"av{self.counter}:sum"
        self.views[name] = frozenset(elements)
        for relation in self._both():
            relation.add_aggregate_view(name, _sum_column(relation, elements, 0))
        return name

    @rule(name=consumes(graph_views))
    def drop_graph_view(self, name):
        del self.views[name]
        for relation in self._both():
            relation.drop_graph_view(name)

    @rule(name=consumes(agg_views))
    def drop_aggregate_view(self, name):
        del self.views[name]
        for relation in self._both():
            relation.drop_aggregate_view(name)

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as db:
            save_relation(self.sharded, db)
            self.sharded = load_relation(db)

    @invariant()
    def cuts_cut_the_records(self):
        if hasattr(self, "sharded"):
            tasks = range_tasks(self.sharded.n_records, self.k)
            assert len(tasks) == self.k
            assert [task.shard for task in tasks] == list(range(self.k))
            assert tasks[0].start == 0 and tasks[-1].stop == self.sharded.n_records
            assert all(a.stop == b.start for a, b in zip(tasks, tasks[1:]))
            assert self.sharded.n_records == self.twin.n_records

    @rule(data=st.data())
    def folds_and_gathers_match_the_twin(self, data):
        refs = _refs(self.twin)
        if refs:
            refs = data.draw(st.lists(st.sampled_from(refs), min_size=1, max_size=4))
            collector = self.sharded.collector
            before = collector.stats.bitmap_columns_fetched + collector.stats.view_bitmaps_fetched
            merged = Bitmap.concat(_shard_folds(self.sharded, refs, self.k))
            after = collector.stats.bitmap_columns_fetched + collector.stats.view_bitmaps_fetched
            assert merged == self.twin.fold(refs)
            assert after - before == len(refs) * self.k
        n = self.twin.n_records
        if not n:
            return
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=20)), dtype=np.int64)
        ranked = rank_rows(rows)
        for e in self.twin.element_ids():
            np.testing.assert_array_equal(
                self.sharded.measures(e, ranked), self.twin.measures(e, rows)
            )
        for name in self.twin.aggregate_view_names():
            np.testing.assert_array_equal(
                self.sharded.aggregate_view_measures(name, ranked),
                self.twin.aggregate_view_measures(name, rows),
            )


TestStorageStateMachine = StorageStateMachine.TestCase
TestStorageStateMachine.settings = settings(
    max_examples=100, stateful_step_count=15, deadline=None
)
