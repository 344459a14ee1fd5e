"""Unit and concurrency tests for the serving layer (``repro.exec``)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.columnstore import Bitmap, MasterRelation
from repro.core import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
)
from repro.exec import BitmapCache, QueryExecutor
from repro.exec.executor import _ReadWriteLock


def bm(*indices, length=64):
    return Bitmap.from_indices(length, indices)


def fetch(cache, epoch, key, compute):
    """The engine's use of the cache: look the answer up, and on a miss
    compute it and put it."""
    got = cache.lookup(epoch, key)
    if got is None:
        got = compute()
        cache.put(epoch, key, got)
    return got


RECORDS = [
    GraphRecord("r1", {("A", "B"): 1.0, ("B", "C"): 2.0}),
    GraphRecord("r2", {("A", "B"): 3.0, ("C", "D"): 4.0}),
    GraphRecord("r3", {("B", "C"): 5.0, ("C", "D"): 6.0}),
]


def fresh_engine(records=RECORDS):
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    return engine


class TestBitmapCache:
    def test_miss_then_hit(self):
        cache = BitmapCache()
        calls = []
        key = frozenset({("A", "B")})

        def compute():
            calls.append(1)
            return bm(1, 2)

        first = fetch(cache, 7, key, compute)
        second = fetch(cache, 7, key, compute)
        assert first == second == bm(1, 2)
        assert calls == [1], "second call must be served from the cache"
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.requests() == stats.hits + stats.misses == 2
        assert stats.hit_rate() == 0.5

    def test_epoch_isolates_entries(self):
        cache = BitmapCache()
        key = frozenset({("A", "B")})
        fetch(cache, 1, key, lambda: bm(1))
        # Same elements at a later epoch must recompute, never reuse.
        got = fetch(cache, 2, key, lambda: bm(2))
        assert got == bm(2)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_lru_eviction_order_and_budget(self):
        # 64-bit bitmaps pack into one 8-byte word; budget fits two.
        cache = BitmapCache(budget_bytes=16)
        keys = [frozenset({("e", str(i))}) for i in range(3)]
        for i, key in enumerate(keys):
            fetch(cache, 0, key, lambda i=i: bm(i))
        assert cache.current_bytes() <= cache.budget_bytes
        assert cache.stats.evictions == 1
        # Oldest entry evicted; the two recent ones survive.
        assert cache.lookup(0, keys[0]) is None
        assert cache.lookup(0, keys[1]) == bm(1)
        assert cache.lookup(0, keys[2]) == bm(2)

    def test_hit_refreshes_lru_position(self):
        cache = BitmapCache(budget_bytes=16)
        a, b, c = (frozenset({("e", str(i))}) for i in range(3))
        fetch(cache, 0, a, lambda: bm(0))
        fetch(cache, 0, b, lambda: bm(1))
        fetch(cache, 0, a, lambda: bm(0))  # refresh a
        fetch(cache, 0, c, lambda: bm(2))  # evicts b, not a
        assert cache.lookup(0, a) is not None
        assert cache.lookup(0, b) is None

    def test_budget_always_honoured(self):
        cache = BitmapCache(budget_bytes=40)
        for i in range(50):
            key = frozenset({("e", str(i))})
            fetch(cache, 0, key, lambda i=i: bm(i, length=64 * (1 + i % 3)))
            assert cache.current_bytes() <= cache.budget_bytes

    def test_oversized_entry_not_retained(self):
        cache = BitmapCache(budget_bytes=8)
        big = Bitmap.ones(1024)  # 16 words = 128 bytes > budget
        got = fetch(cache, 0, frozenset({("x", "y")}), lambda: big)
        assert got == big, "caller still gets the computed bitmap"
        assert len(cache) == 0
        assert cache.current_bytes() == 0

    def test_drop_stale(self):
        cache = BitmapCache()
        fetch(cache, 1, frozenset({("a", "b")}), lambda: bm(1))
        fetch(cache, 1, frozenset({("c", "d")}), lambda: bm(2))
        fetch(cache, 2, frozenset({("a", "b")}), lambda: bm(3))
        dropped = cache.drop_stale(2)
        assert dropped == 2
        assert len(cache) == 1
        assert cache.stats.invalidations == 2
        assert cache.lookup(2, frozenset({("a", "b")})) == bm(3)

    def test_clear_and_reset_stats(self):
        cache = BitmapCache()
        fetch(cache, 0, frozenset({("a", "b")}), lambda: bm(1))
        cache.lookup(0, frozenset({("a", "b")}))
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes() == 0
        assert cache.stats.requests() > 0, "counters survive clear()"
        cache.reset_stats()
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)

    def test_collector_mirroring(self):
        engine = GraphAnalyticsEngine()
        cache = BitmapCache(budget_bytes=8)
        engine.use_bitmap_cache(cache)
        key = frozenset({("a", "b")})
        fetch(cache, 0, key, lambda: bm(1))
        fetch(cache, 0, key, lambda: bm(1))
        fetch(cache, 0, frozenset({("c", "d")}), lambda: bm(2))
        stats = engine.stats
        assert stats.cache_hits == 1
        assert stats.cache_misses == 2
        assert stats.cache_evictions == 1
        assert stats.conjunctions_requested() == 3
        assert engine.collector.stats.conjunctions_requested() == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BitmapCache(budget_bytes=-1)

    def test_thread_safety_under_contention(self):
        cache = BitmapCache(budget_bytes=256)
        errors = []

        def worker(seed):
            try:
                for i in range(200):
                    key = frozenset({("e", str((seed + i) % 13))})
                    got = fetch(cache, 0, key, lambda i=i: bm((seed + i) % 13))
                    assert got == bm((seed + i) % 13)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.current_bytes() <= cache.budget_bytes
        stats = cache.stats
        assert stats.requests() == 4 * 200 == stats.hits + stats.misses


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = _ReadWriteLock()
        log = []
        in_read = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                in_read.wait()  # both readers inside simultaneously
                log.append("read")

        def writer():
            with lock.write():
                log.append("write")

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        for t in readers:
            t.join()
        w = threading.Thread(target=writer)
        w.start()
        w.join()
        assert log == ["read", "read", "write"]

    def test_write_lock_is_exclusive(self):
        lock = _ReadWriteLock()
        counter = {"value": 0, "max_inside": 0}

        def bump():
            with lock.write():
                counter["value"] += 1
                counter["max_inside"] = max(counter["max_inside"], 1)
                counter["value"] -= 1

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 0
        assert counter["max_inside"] == 1


class TestQueryExecutor:
    def test_submission_order_preserved(self):
        engine = fresh_engine()
        queries = [
            GraphQuery([("A", "B")]),
            GraphQuery([("C", "D")]),
            GraphQuery([("B", "C")]),
            GraphQuery([("A", "B"), ("C", "D")]),
        ]
        with QueryExecutor(engine, cache_mb=4) as executor:
            results = executor.run_batch(queries, fetch_measures=False)
        assert [r.record_ids for r in results] == [
            ["r1", "r2"],
            ["r2", "r3"],
            ["r1", "r3"],
            ["r2"],
        ]

    def test_empty_batch(self):
        with QueryExecutor(fresh_engine()) as executor:
            assert executor.run_batch([]) == []

    def test_closed_executor_rejects_work(self):
        executor = QueryExecutor(fresh_engine())
        executor.close()
        with pytest.raises(RuntimeError):
            executor.run_batch([GraphQuery([("A", "B")])])

    def test_cache_mb_installs_cache(self):
        engine = fresh_engine()
        with QueryExecutor(engine, cache_mb=2) as executor:
            assert executor.cache is not None
            assert engine.bitmap_cache is executor.cache
            assert executor.cache.budget_bytes == 2 << 20

    def test_no_cache_by_default(self):
        engine = fresh_engine()
        with QueryExecutor(engine) as executor:
            assert executor.cache is None
            assert engine.bitmap_cache is None

    def test_non_query_rejected(self):
        with QueryExecutor(fresh_engine()) as executor:
            with pytest.raises(TypeError):
                executor.run_batch(["not a query", "also wrong"])

    def test_worker_exceptions_propagate(self):
        # An unknown aggregate function fails inside the batch; run_batch
        # must re-raise, not swallow, the error.
        bad = PathAggregationQuery(GraphQuery([("A", "B")]), "no-such-fn")
        with QueryExecutor(fresh_engine()) as executor:
            with pytest.raises(KeyError):
                executor.run_batch([bad, bad])

    def test_write_methods_bump_epoch(self):
        engine = fresh_engine()
        with QueryExecutor(engine, cache_mb=4) as executor:
            before = executor.epoch
            executor.append_records(
                [GraphRecord("r4", {("A", "B"): 7.0})]
            )
            assert executor.epoch > before
            mid = executor.epoch
            executor.materialize_graph_views([GraphQuery([("A", "B")])], budget=1)
            assert executor.epoch > mid
            after_views = executor.epoch
            executor.drop_all_views()
            assert executor.epoch > after_views


class TestAnswerNow:
    """``run_one(wait=False)`` answers on the calling thread, or returns
    None holding and counting nothing."""

    AB = GraphQuery([("A", "B")])

    def assert_holds_nothing(self, executor):
        lock = executor._rw
        assert (lock._readers, lock._writers_waiting, lock._writing) == (0, 0, False)

    def test_answers_like_a_waiting_read(self):
        agg = PathAggregationQuery(GraphQuery([("A", "B"), ("B", "C")]), "sum")
        with QueryExecutor(fresh_engine(), cache_mb=4) as executor:
            for query in (self.AB, agg):
                now = executor.run_one(query, wait=False)
                waited = executor.run_one(query)
                assert now.record_ids == waited.record_ids
                assert now.epoch == waited.epoch
            self.assert_holds_nothing(executor)

    def test_declines_while_a_writer_holds_or_wants_the_lock(self):
        with QueryExecutor(fresh_engine()) as executor:
            with executor._rw.write():
                assert executor.run_one(self.AB, wait=False) is None
            writer_in = threading.Event()
            with executor._rw.read():
                def wants_write():
                    with executor._rw.write():
                        writer_in.set()

                writer = threading.Thread(target=wants_write)
                writer.start()
                deadline = time.monotonic() + 5
                while not executor._rw._writers_waiting:
                    assert time.monotonic() < deadline, "the writer never queued"
                    writer.join(0.001)
                assert executor.run_one(self.AB, wait=False) is None
            writer.join(5)
            assert writer_in.is_set()
            self.assert_holds_nothing(executor)

    def test_declines_expressions_and_folds_of_nowait_words(self, monkeypatch):
        with QueryExecutor(fresh_engine()) as executor:
            assert executor.run_one(self.AB | GraphQuery([("C", "D")]), wait=False) is None
            # One ref over 3 records ANDs one word.
            monkeypatch.setattr(QueryExecutor, "nowait_words", 2)
            assert executor.run_one(self.AB, wait=False) is not None
            monkeypatch.setattr(QueryExecutor, "nowait_words", 1)
            assert executor.run_one(self.AB, wait=False) is None
            self.assert_holds_nothing(executor)

    def test_a_read_answered_in_place_never_waits_on_workers(self, monkeypatch):
        """A read answered now folds on the calling thread, and so does
        every query of a batch."""
        folds = []
        fold = MasterRelation.fold

        def recording_fold(self, refs, ctx=None):
            folds.append(threading.get_ident())
            return fold(self, refs, ctx)

        monkeypatch.setattr(MasterRelation, "fold", recording_fold)
        with QueryExecutor(fresh_engine()) as executor:
            assert executor.run_one(self.AB, wait=False).record_ids == ["r1", "r2"]
            executor.run_batch([self.AB, GraphQuery([("B", "C")])])
            assert folds == [threading.get_ident()] * 3
            self.assert_holds_nothing(executor)


class TestConcurrencyStress:
    """Readers serve a skewed workload while a writer appends records and
    flips view state.  The run must finish without exceptions, every
    result must carry a quiescent epoch, and replaying each epoch's state
    serially must reproduce every answer bit-for-bit."""

    def test_stress_readers_vs_writer(self):
        base = [
            GraphRecord(f"b{i}", {("A", "B"): float(i), ("B", "C"): 1.0})
            for i in range(10)
        ]
        extra_batches = [
            [
                GraphRecord(
                    f"x{batch}-{i}",
                    {("A", "B"): 1.0, ("C", "D"): float(batch)},
                )
                for i in range(5)
            ]
            for batch in range(4)
        ]
        queries = [
            GraphQuery([("A", "B")]),
            GraphQuery([("B", "C")]),
            GraphQuery([("A", "B"), ("C", "D")]),
            GraphQuery([("no", "where")]),
        ]

        engine = fresh_engine(base)
        executor = QueryExecutor(engine, cache_mb=8)
        # Epoch -> number of records visible at that (quiescent) epoch.
        visible = {engine.epoch: len(base)}
        observations = []
        errors = []
        start = threading.Barrier(5, timeout=10)
        stop = threading.Event()

        def reader(seed):
            try:
                start.wait()
                i = 0
                while not stop.is_set() or i < 20:
                    query = queries[(seed + i) % len(queries)]
                    result = executor.run_one(query, fetch_measures=False)
                    observations.append((query, result.epoch, result.record_ids))
                    i += 1
                    if i > 3000:  # safety valve
                        break
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            try:
                start.wait()
                n = len(base)
                for i, batch in enumerate(extra_batches):
                    executor.append_records(batch)
                    n += len(batch)
                    visible[engine.epoch] = n
                    if i == 1:
                        executor.materialize_graph_views(queries[:2], budget=2)
                        visible[engine.epoch] = n
                    if i == 2:
                        executor.drop_all_views()
                        visible[engine.epoch] = n
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
        threads.append(threading.Thread(target=writer))
        start_all = threads
        for t in start_all:
            t.start()
        for t in start_all:
            t.join(timeout=60)
        executor.close()

        assert not errors, errors
        assert not any(t.is_alive() for t in threads), "thread failed to join"
        assert len(visible) > 1, "writer must have advanced the epoch"

        # Every observation executed at a quiescent epoch (mutations run
        # under the exclusive lock, so mid-mutation epochs are unobservable).
        all_records = base + [r for batch in extra_batches for r in batch]
        replayed: dict[tuple[int, GraphQuery], list] = {}
        for query, epoch, record_ids in observations:
            assert epoch in visible, f"observed mid-mutation epoch {epoch}"
            key = (epoch, query)
            if key not in replayed:
                n = visible[epoch]
                replayed[key] = [
                    r.record_id for r in all_records[:n] if query.matches(r)
                ]
            assert record_ids == replayed[key], (epoch, query)

        # The proactive invalidation kept only current-epoch entries.
        cache = executor.cache
        assert cache is not None
        assert all(key[0] == engine.epoch for key in cache._entries)
        stats = cache.stats
        assert stats.requests() == stats.hits + stats.misses


class TestStaleColumnRegression:
    """Appending must not serve a previously-materialized measure column
    that predates the append (it would be one row short)."""

    def test_query_untouched_edge_after_append(self):
        engine = fresh_engine()
        # Materialize the ("B", "C") measure column via a query.
        before = engine.query(GraphQuery([("B", "C")]))
        assert before.record_ids == ["r1", "r3"]
        # Append a record that does NOT touch ("B", "C").
        engine.append_records([GraphRecord("r4", {("A", "B"): 9.0})])
        after = engine.query(GraphQuery([("B", "C")]))
        assert after.record_ids == ["r1", "r3"]
        assert list(after.measures[("B", "C")]) == [2.0, 5.0]
        # And an edge the append did touch sees the new row.
        ab = engine.query(GraphQuery([("A", "B")]))
        assert ab.record_ids == ["r1", "r2", "r4"]
        assert list(ab.measures[("A", "B")]) == [1.0, 3.0, 9.0]
