"""Lifecycle tests for the process-parallel shard pool.

Covers the tentpole invariants that the differential suite cannot reach:
worker crash → respawn with the query surviving via policy retries,
generation swaps → lazy re-attach with stale-stamped results discarded,
the runner's snapshot published only when a query fans out (and never
into ``storage_dir``), deadline propagation into the workers, and clean
(idempotent) shutdown.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.baselines import RowStore
from repro.cli import _executor_for
from repro.core import GraphAnalyticsEngine, GraphQuery, PathAggregationQuery
from repro.core.engine import INLINE, range_tasks
from repro.errors import QueryCancelledError, QueryTimeoutError, ShardExecutionError
from repro.exec import ProcessShardPool, QueryExecutor, StaleGenerationError, runners
from repro.exec.procpool import WorkerTaskError
from repro.exec.runners import ProcessRunner
from repro.obs import MetricsRegistry
from repro.resilience import CancelToken, QueryContext, ResiliencePolicy
from repro.columnstore import and_refs, storage_generation
from repro.workloads import build_dataset, sample_path_queries
from tests import faultinject as fi

N_RECORDS = 150

# Every query here crosses the pool: the corpora are far below the
# process runner's break-even, so each test forces fan-out.
pytestmark = pytest.mark.usefixtures("fan_out")


@pytest.fixture(scope="module")
def corpus():
    return build_dataset("NY", n_records=N_RECORDS, seed=21)


@pytest.fixture(scope="module")
def queries(corpus):
    return sample_path_queries(corpus, n_queries=10, n_edges=3, seed=22)


def _fresh_engine(corpus, shards=3):
    engine = GraphAnalyticsEngine(shards=shards)
    engine.load_columnar(corpus.record_ids(), corpus.to_columnar())
    return engine


def _nonempty_fragment(engine, corpus):
    """A one-part fragment matching record 0, so repeating it builds an
    arbitrarily slow worker fold that never short-circuits on empty."""
    edge = next(iter(next(iter(corpus.to_records())).measures()))
    return engine.physical_plan(GraphQuery([edge])).refs


def _shm_snapshot():
    return frozenset(
        os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else []
    )


def _assert_drained(pool, baseline=frozenset(), timeout=5.0):
    """Every late/abandoned reply was consumed: no in-flight futures and
    no shared-memory payloads beyond the pre-test baseline."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with pool._lock:
            left = len(pool._futures)
        leaked = sorted(_shm_snapshot() - baseline)
        if left == 0 and not leaked:
            return
        time.sleep(0.02)
    assert left == 0, f"{left} futures never drained"
    assert not leaked, f"leaked shared-memory blocks: {leaked}"


@pytest.fixture(scope="module")
def oracle_ids(corpus, queries):
    oracle = GraphAnalyticsEngine()
    oracle.load_columnar(corpus.record_ids(), corpus.to_columnar())
    return [oracle.query(q, fetch_measures=False).record_ids for q in queries]


def _answers(executor, queries):
    return [
        r.record_ids
        for r in executor.run_batch(queries, fetch_measures=False)
    ]


class TestProcessExecutor:
    def test_matches_serial_oracle_cold_and_warm(self, corpus, queries, oracle_ids):
        engine = _fresh_engine(corpus)
        registry = MetricsRegistry()
        with QueryExecutor(
            engine, jobs=1, cache_mb=8, exec_mode="process", workers=2,
            registry=registry,
        ) as executor:
            assert _answers(executor, queries) == oracle_ids
            sent = _tasks(registry)
            assert _answers(executor, queries) == oracle_ids  # warm cache
            assert _tasks(registry) == sent, "a warm repeat sends no shard task"

    def test_thread_mode_with_one_job_matches(self, corpus, queries, oracle_ids):
        engine = _fresh_engine(corpus)
        with QueryExecutor(
            engine, jobs=1, exec_mode="thread", workers=2
        ) as executor:
            assert engine._runner is INLINE
            assert _answers(executor, queries) == oracle_ids

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_serial_mode_keeps_inline_runner(self, corpus, queries, oracle_ids, mode):
        """Only process mode fans a query out: ``thread`` names request
        concurrency over ``jobs`` and folds inline like ``serial``."""
        engine = _fresh_engine(corpus)
        with QueryExecutor(engine, jobs=4, exec_mode=mode) as executor:
            assert engine._runner is INLINE
            assert _answers(executor, queries) == oracle_ids

    def test_default_mode_resolves_from_jobs(self, corpus):
        for jobs, mode in ((1, "serial"), (3, "thread")):
            with QueryExecutor(_fresh_engine(corpus), jobs=jobs) as executor:
                assert executor.exec_mode == mode

    def test_cli_executor_publishes_pool_and_policy_metrics(self, corpus, queries, oracle_ids):
        """The CLI hands its registry to the executor it builds, so the
        pool, the range count and the policy publish into ``repro serve``'s
        ``/metrics``."""
        registry = MetricsRegistry()
        args = argparse.Namespace(exec_mode="process", workers=2, jobs=1)
        with _executor_for(args, _fresh_engine(corpus), registry) as executor:
            assert _answers(executor, queries) == oracle_ids
            assert executor.resilience.registry is registry
        published = set(registry.to_dict())
        assert {"pool.tasks", "pool.workers", "engine.shards", "exec.shard_tasks"} <= published

    def test_append_resyncs_pool(self, corpus, queries):
        """A mutation through the executor is published to the worker
        processes by the next query that fans out."""
        records = list(build_dataset("NY", n_records=40, seed=23).to_records())
        engine = _fresh_engine(corpus)
        with QueryExecutor(
            engine, jobs=1, exec_mode="process", workers=2
        ) as executor:
            before = _answers(executor, queries)
            executor.append_records(records)
            after = _answers(executor, queries)
            oracle = GraphAnalyticsEngine()
            oracle.load_columnar(corpus.record_ids(), corpus.to_columnar())
            oracle.append_records(records)
            expected = [
                oracle.query(q, fetch_measures=False).record_ids for q in queries
            ]
            assert after == expected
            assert all(
                set(b) <= set(a) for b, a in zip(before, after)
            )  # appends only add candidates

    def test_worker_crash_respawns_and_query_survives(
        self, corpus, queries, oracle_ids
    ):
        engine = _fresh_engine(corpus)
        registry = MetricsRegistry()
        with QueryExecutor(
            engine,
            jobs=1,
            exec_mode="process",
            workers=2,
            registry=registry,
        ) as executor:
            assert _answers(executor, queries) == oracle_ids  # workers attached
            pool = executor._runner.pool
            victims = pool.worker_pids()
            os.kill(victims[0], signal.SIGKILL)
            # The resilience policy retries the crashed shard task on the
            # respawned worker; answers never change.
            assert _answers(executor, queries) == oracle_ids
            deadline = time.monotonic() + 10
            while (
                registry.counter("pool.worker_respawns").value < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert registry.counter("pool.worker_respawns").value >= 1
            assert pool.worker_pids() != victims


def _tasks(registry):
    return registry.counter("pool.tasks").value


class TestOneTaskPerWorker:
    """A query sends each worker its shards as one task, and supervises
    every shard on its own slot of that task's reply."""

    def test_uncached_query_sends_one_task_per_worker(self, corpus, queries, oracle_ids):
        engine = _fresh_engine(corpus, shards=4)
        registry = MetricsRegistry()
        with QueryExecutor(
            engine, jobs=1, exec_mode="process", workers=2, registry=registry
        ) as executor:
            for query, expected in zip(queries, oracle_ids):
                before = _tasks(registry)
                assert executor.run_one(query, fetch_measures=False).record_ids == expected
                assert _tasks(registry) - before == 2, query

    def test_a_bad_shard_never_fails_its_batch_mate(
        self, tmp_path, monkeypatch, corpus, queries
    ):
        """Shards 1 and 3 share worker 1; every lookup on shard 1 fails in
        the worker.  Shard 3 is answered exactly from the batch reply, shard
        1 alone is retried and then degraded (or, without ``partial_ok``,
        fails the query with the typed error)."""
        engine = _fresh_engine(corpus, shards=4)
        db = tmp_path / "db"
        engine.save(db)
        fi.fail_shard_in_workers(monkeypatch, engine, 1)
        start, stop = fi.shard_range(engine, 1)
        skipped = set(engine.record_ids_at(np.arange(start, stop)))
        oracle = GraphAnalyticsEngine()
        oracle.load_columnar(corpus.record_ids(), corpus.to_columnar())
        registry = MetricsRegistry()
        degraded = 0
        with QueryExecutor(
            engine, jobs=1, exec_mode="process", workers=2, storage_dir=db,
            registry=registry,
            resilience=ResiliencePolicy(
                attempts=2, breaker_threshold=100, sleep=lambda _s: None
            ),
        ) as executor:
            for query in queries:
                expected = oracle.query(query, fetch_measures=False).record_ids
                before = _tasks(registry)
                result = executor.run_one(query, fetch_measures=False, partial_ok=True)
                if result.degraded is None:
                    continue  # the planner answered without folding a shard
                degraded += 1
                # Two batch tasks, then shard 1 alone: shard 3 was not retried.
                assert _tasks(registry) - before == 3, query
                assert result.degraded.skipped_ranges() == [(start, stop)]
                assert result.record_ids == [r for r in expected if r not in skipped]
                with pytest.raises(ShardExecutionError) as info:
                    executor.run_one(query, fetch_measures=False)
                assert (info.value.shard, info.value.start, info.value.stop) == (1, start, stop)
                assert "2 attempt(s)" in str(info.value)
        assert degraded


class TestRangeTasks:
    """Pool tasks carry record ranges of the runner's per-query cut, so
    any committed save of the engine serves any range count."""

    def test_break_even_decides_the_shard_tasks(self, monkeypatch, corpus, queries, oracle_ids):
        """A query ANDing fewer words than ``min_fanout_words`` folds in
        process and sends no shard task; at the break-even it sends one
        per range."""
        engine = _fresh_engine(corpus, shards=3)
        query = queries[0]
        words = len(engine.physical_plan(query).refs) * -(-engine.n_records // 64)
        registry = MetricsRegistry()
        with QueryExecutor(
            engine, exec_mode="process", workers=2, registry=registry
        ) as executor:
            for threshold, sent in ((words + 1, 0), (words, 3)):
                monkeypatch.setattr(ProcessRunner, "min_fanout_words", threshold)
                before = registry.counter("exec.shard_tasks").value
                pool_before = _tasks(registry)
                answer = executor.run_one(query, fetch_measures=False).record_ids
                assert answer == oracle_ids[0]
                assert registry.counter("exec.shard_tasks").value - before == sent
                assert _tasks(registry) - pool_before == min(sent, 2)

    def test_a_legacy_store_degrades_exactly(self, tmp_path, monkeypatch):
        """An engine loaded from a format-4 store whose manifest still
        carries ``shard_records`` cut elsewhere fans out at any range
        count — the workers fold the ranges a task names, over the
        runner's own snapshot.  With range 1 failing in every worker, a
        degraded answer skips exactly the engine's range 1 and is exact
        everywhere else."""
        corpus = build_dataset("NY", n_records=600, seed=24)
        records = list(corpus.to_records())
        queries = sample_path_queries(corpus, n_queries=30, n_edges=2, seed=25)
        engine = GraphAnalyticsEngine(shards=3)
        engine.load_records(records[:400])
        engine.append_records(records[400:])
        db = tmp_path / "db"
        engine.save(db)
        manifest = fi.live_manifest(db)
        manifest["shard_records"] = [128, 128, 344]
        (db / "manifest.json").write_text(json.dumps(manifest))
        loaded = GraphAnalyticsEngine.load(db, shards=3)
        start, stop = fi.shard_range(loaded, 1)
        assert (start, stop) == (192, 384)
        skipped = set(loaded.record_ids_at(np.arange(start, stop)))
        store = RowStore()
        store.load_records(records)
        fi.fail_shard_in_workers(monkeypatch, loaded, 1)
        degraded = 0
        with QueryExecutor(
            loaded, exec_mode="process", workers=2, storage_dir=db,
            resilience=ResiliencePolicy(attempts=2, sleep=lambda _s: None),
        ) as executor:
            for query in queries:
                oracle = store.query(query).record_ids
                result = executor.run_one(query, fetch_measures=False, partial_ok=True)
                if result.degraded is None:
                    assert result.record_ids == oracle, query
                    continue
                degraded += 1
                assert result.degraded.skipped_ranges() == [(start, stop)], query
                assert result.record_ids == [r for r in oracle if r not in skipped], query
        assert degraded
        assert executor._runner.directory is None  # closed: the spool is gone

    @pytest.mark.parametrize("saved", [100, 149])
    def test_a_save_of_another_record_count_is_spooled(self, tmp_path, corpus, queries,
                                                       oracle_ids, saved):
        """A save in ``storage_dir`` holding another record count than
        the engine — fewer records, or more — is never attached: the
        runner spools a snapshot of its own and every answer stays
        exact."""
        records = list(corpus.to_records())
        small, full = GraphAnalyticsEngine(shards=3), _fresh_engine(corpus)
        small.load_records(records[:saved])
        for store_engine, served in ((small, full), (full, small)):
            db = tmp_path / f"db{store_engine.n_records}"
            store_engine.save(db)
            oracle = [served.query(q).record_ids for q in queries]
            if served is full:
                assert oracle == oracle_ids
            with QueryExecutor(
                served, exec_mode="process", workers=2, storage_dir=db
            ) as executor:
                assert _answers(executor, queries) == oracle
                assert executor._runner.directory.parent == db


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _extra_records():
    return list(build_dataset("NY", n_records=5, seed=26).to_records())


def _refuse(*args, **kwargs):
    raise OSError("no workers today")


class TestSnapshotOnDemand:
    """The runner alone decides what its workers read: a private snapshot
    saved when a query fans out and the pool lags the query's epoch.
    Writes save nothing, and ``storage_dir`` only says where the spool
    goes."""

    def test_no_fan_out_saves_nothing_and_starts_no_worker(
        self, tmp_path, monkeypatch, corpus, queries, oracle_ids
    ):
        monkeypatch.setattr(ProcessRunner, "min_fanout_words", 1 << 62)
        engine = _fresh_engine(corpus)
        children, stages = set(multiprocessing.active_children()), []
        with fi.record_save_stages(stages), QueryExecutor(
            engine, exec_mode="process", workers=2, storage_dir=tmp_path
        ) as executor:
            assert _answers(executor, queries) == oracle_ids
            executor.append_records(_extra_records())
            executor.materialize_graph_views(queries, 2)
            executor.materialize_aggregate_views(
                [PathAggregationQuery(q, "sum") for q in queries], 1
            )
            executor.drop_all_views()
            _answers(executor, queries)
            assert executor._runner.pool is None
            assert set(multiprocessing.active_children()) == children
        assert stages == []
        assert list(tmp_path.iterdir()) == []

    def test_each_epoch_that_fans_out_costs_one_save(self, corpus, queries, oracle_ids):
        """Four request threads of one epoch share one save; writes save
        nothing; the next fan-out republishes once, to the same workers."""
        engine = _fresh_engine(corpus)
        extra = _extra_records()
        oracle = _fresh_engine(corpus)
        oracle.append_records(extra)
        stages = []
        with fi.record_save_stages(stages), QueryExecutor(
            engine, jobs=4, exec_mode="process", workers=2
        ) as executor:
            assert _answers(executor, queries) == oracle_ids
            assert stages.count("committed") == 1
            assert _answers(executor, queries) == oracle_ids
            assert stages.count("committed") == 1
            pids = executor._runner.pool.worker_pids()
            executor.append_records(extra)
            executor.materialize_graph_views(queries, 2)
            assert stages.count("committed") == 1
            assert _answers(executor, queries) == [
                oracle.query(q, fetch_measures=False).record_ids for q in queries
            ]
            assert stages.count("committed") == 2
            assert executor._runner.pool.worker_pids() == pids

    def test_the_storage_dir_is_never_written(self, tmp_path, corpus, queries):
        """Appends, views and fan-outs through a process executor leave
        the store in ``storage_dir`` byte for byte as they found it."""
        engine = _fresh_engine(corpus)
        db = tmp_path / "db"
        engine.save(db)
        before = _tree(db)
        with QueryExecutor(
            engine, exec_mode="process", workers=2, storage_dir=db
        ) as executor:
            _answers(executor, queries)
            executor.append_records(_extra_records())
            executor.materialize_graph_views(queries, 2)
            _answers(executor, queries)
        assert _tree(db) == before
        assert GraphAnalyticsEngine.load(db).n_records == N_RECORDS

    def test_a_save_without_the_engines_views_is_never_trusted(
        self, tmp_path, corpus, queries, oracle_ids
    ):
        """Views materialized on a loaded engine before its executor is
        built are not in the store it was loaded from; workers fold the
        runner's snapshot, which holds them."""
        db = tmp_path / "db"
        _fresh_engine(corpus).save(db)
        engine = GraphAnalyticsEngine.load(db, shards=3)
        engine.materialize_graph_views(queries, 2)
        assert engine.graph_views
        with QueryExecutor(
            engine, exec_mode="process", workers=2, storage_dir=db
        ) as executor:
            results = executor.run_batch(queries, fetch_measures=False)
            assert [r.record_ids for r in results] == oracle_ids
            assert any(r.plan.view_names for r in results)

    def test_a_change_made_on_the_engine_is_published_at_the_next_fan_out(
        self, corpus, queries
    ):
        """A mutation that bypasses the executor still reaches the
        workers: the query that fans out next republishes, and folds on
        the workers rather than inline."""
        engine = _fresh_engine(corpus)
        registry = MetricsRegistry()
        with QueryExecutor(
            engine, exec_mode="process", workers=2, registry=registry
        ) as executor:
            _answers(executor, queries)
            engine.append_records(_extra_records())
            expected = [engine.query(q, fetch_measures=False).record_ids for q in queries]
            sent = _tasks(registry)
            assert _answers(executor, queries) == expected
            assert _tasks(registry) > sent

    @pytest.mark.parametrize("failure", ["start", "save"])
    def test_a_failed_publish_is_typed_and_leaks_nothing(
        self, tmp_path, monkeypatch, corpus, queries, oracle_ids, failure
    ):
        """A pool that cannot start, or a snapshot that cannot be saved,
        fails the query with a typed error naming ``[0, n)`` and leaves
        no spool and no child process; the next fan-out tries again."""
        engine = _fresh_engine(corpus)
        children = set(multiprocessing.active_children())
        with QueryExecutor(
            engine, cache_mb=8, exec_mode="process", workers=2, storage_dir=tmp_path
        ) as executor:
            with monkeypatch.context() as patch:
                if failure == "start":
                    patch.setattr(runners, "ProcessShardPool", _refuse)
                with (fi.crash_at_stage("committed") if failure == "save"
                      else contextlib.nullcontext()):
                    with pytest.raises(ShardExecutionError) as info:
                        executor.run_one(queries[0], fetch_measures=False)
            assert (info.value.shard, info.value.start, info.value.stop) == (0, 0, N_RECORDS)
            assert list(tmp_path.iterdir()) == []
            assert executor._runner.pool is None
            assert set(multiprocessing.active_children()) == children
            assert _answers(executor, queries) == oracle_ids

    def test_close_stops_the_workers_and_removes_the_spool(
        self, corpus, queries, oracle_ids
    ):
        engine = _fresh_engine(corpus)
        executor = QueryExecutor(engine, exec_mode="process", workers=2)
        runner = executor._runner
        assert engine._runner is runner and runner.directory is None
        assert _answers(executor, queries) == oracle_ids
        spool, pids = runner.directory, runner.pool.worker_pids()
        assert spool.exists()
        executor.close()
        assert engine._runner is INLINE
        assert not spool.exists()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: process is gone
        # The engine still answers in-process after the executor is gone.
        engine.query(queries[0], fetch_measures=False)


def _transport_store(tmp_path_factory, n):
    """An unsharded store of ``n`` records: A->B on every record, A->C on
    a random half.  Fragments over it AND to all-ones, random, and
    all-zero (an element the store never saw)."""
    rng = np.random.default_rng(n)
    everywhere = np.arange(n)
    half = np.flatnonzero(rng.random(n) < 0.5)
    engine = GraphAnalyticsEngine()
    engine.load_columnar(
        [f"r{i}" for i in range(n)],
        {
            ("A", "B"): (everywhere, np.ones(n)),
            ("A", "C"): (half, np.ones(half.size)),
        },
    )
    db = tmp_path_factory.mktemp(f"transport{n}") / "db"
    engine.save(db)
    ab, ac = (("element", engine.catalog.get_id(e)) for e in (("A", "B"), ("A", "C")))
    fragments = {"ones": (ab,), "random": (ab, ac), "zeros": (ab, ("element", 10**9))}
    return engine, db, fragments


@pytest.fixture(scope="module", params=[1, 63, 64, 65, 6_000, 250_001])
def transport(request, tmp_path_factory):
    engine, db, fragments = _transport_store(tmp_path_factory, request.param)
    pool = ProcessShardPool(db, workers=1, stamp=(storage_generation(db), engine.epoch))
    yield engine, pool, fragments
    pool.close()


@pytest.mark.parametrize("kind", ["zeros", "ones", "random"])
def test_transport_is_bit_exact(transport, kind):
    """A result's words cross the pipe raw; every length (word-aligned
    or not) and every fill comes back exactly as ``and_refs`` makes it."""
    engine, pool, fragments = transport
    fragment = fragments[kind]
    expected = and_refs(engine.relation.ref_bitmap, fragment, engine.n_records)
    got = pool.execute(0, engine.n_records, fragment)
    assert got.length == expected.length == engine.n_records
    assert np.array_equal(np.asarray(got.words()), np.asarray(expected.words()))
    count = {"zeros": 0, "ones": engine.n_records}.get(kind, expected.count())
    assert got.count() == count


class TestGenerationStamps:
    def _pool_fixture(self, tmp_path, corpus, shards=2, workers=1):
        engine = _fresh_engine(corpus, shards=shards)
        db = tmp_path / "db"
        engine.save(db)
        pool = ProcessShardPool(
            db,
            workers=workers,
            stamp=(storage_generation(db), engine.epoch),
        )
        return engine, db, pool

    def _fragment(self, engine):
        return engine.physical_plan(GraphQuery([next(iter(engine.catalog))])).refs

    def test_reattach_after_generation_swap(self, tmp_path, corpus):
        engine, db, pool = self._pool_fixture(tmp_path, corpus)
        try:
            fragment = self._fragment(engine)
            _, start, stop = range_tasks(engine.n_records, engine.n_shards)[-1]
            first = pool.execute(start, stop, fragment)
            assert first.length == stop - start
            # Commit a new generation with more records, restamp, and the
            # workers must serve the new mapping: a range past the old
            # record count folds.
            extra = list(build_dataset("NY", n_records=30, seed=24).to_records())
            engine.append_records(extra)
            engine.save(db)
            pool.set_stamp((storage_generation(db), engine.epoch))
            grown = pool.execute(start, engine.n_records, fragment)
            assert grown.length == first.length + len(extra)
            assert grown == engine.relation.fold(fragment, None, start, engine.n_records)
        finally:
            pool.close()

    def test_workers_attach_to_the_bits_files_alone(self, tmp_path, corpus):
        """A worker maps each column's ``_bits.npy`` — the same words the
        parent ranks its values by — and has nothing to fall back on: no
        rows file is written, and without the bits file the task fails."""
        engine, db, pool = self._pool_fixture(tmp_path, corpus)
        try:
            assert not list(db.rglob("*_rows.npy"))
            edge_id = engine.catalog.get_id(next(iter(engine.catalog)))
            live = engine.relation.fold([("element", edge_id)])
            assert pool.execute(0, engine.n_records, self._fragment(engine)) == live
        finally:
            pool.close()
        for path in db.rglob(f"m{edge_id}_bits.npy"):
            path.unlink()
        pool = ProcessShardPool(
            db, workers=1, stamp=(storage_generation(db), engine.epoch)
        )
        try:
            with pytest.raises(WorkerTaskError, match="_bits.npy"):
                pool.execute(0, engine.n_records, self._fragment(engine))
        finally:
            pool.close()

    def test_stamp_ahead_of_disk_is_stale(self, tmp_path, corpus):
        engine, db, pool = self._pool_fixture(tmp_path, corpus)
        try:
            fragment = self._fragment(engine)
            pool.set_stamp((storage_generation(db) + 7, engine.epoch))
            with pytest.raises(StaleGenerationError):
                pool.execute(0, engine.n_records, fragment)
        finally:
            pool.close()

    def test_stale_stamped_reply_is_discarded(self, tmp_path, corpus):
        """White-box: a reply carrying a stamp that no longer matches the
        pool's is never surfaced — execute() discards and re-dispatches."""
        engine, db, pool = self._pool_fixture(tmp_path, corpus)
        try:
            fragment = self._fragment(engine)
            old_stamp = pool.stamp
            fut = pool._submit(0, [(0, engine.n_records)], old_stamp, fragment, None)
            reply = pool._wait(fut, None)
            assert reply[3] == "ok"
            pool.set_stamp((old_stamp[0], old_stamp[1] + 1))
            # The reply's stamp lags the pool now; execute() would loop.
            assert reply[2] != pool.stamp
            # Dispose of the reply the way the loop does: drop it (its
            # words are in this process; nothing outside it to free).
            del reply
            # A fresh execute under the new stamp still answers (the
            # generation is unchanged, only the epoch moved).
            result = pool.execute(0, engine.n_records, fragment)
            assert result.length == engine.n_records
        finally:
            pool.close()

    def test_concurrent_stamp_flips_never_corrupt_answers(self, tmp_path, corpus):
        """Behavioral: epoch flips racing in-flight tasks only ever cause
        discard + re-dispatch, never a wrong or stale answer."""
        engine, db, pool = self._pool_fixture(tmp_path, corpus)
        try:
            fragment = self._fragment(engine)
            expected = pool.execute(0, engine.n_records, fragment)
            generation = pool.stamp[0]
            stop = threading.Event()

            def flip():
                epoch = 1
                while not stop.is_set():
                    epoch += 1
                    pool.set_stamp((generation, epoch))
                    time.sleep(0.001)

            flipper = threading.Thread(target=flip)
            flipper.start()
            try:
                for _ in range(20):
                    assert pool.execute(0, engine.n_records, fragment) == expected
            finally:
                stop.set()
                flipper.join()
        finally:
            pool.close()


class TestDeadlinesAndShutdown:
    def test_deadline_surfaces_as_timeout(self, tmp_path, corpus):
        engine = _fresh_engine(corpus, shards=2)
        db = tmp_path / "db"
        engine.save(db)
        pool = ProcessShardPool(
            db, workers=1, stamp=(storage_generation(db), engine.epoch)
        )
        try:
            fragment = engine.physical_plan(
                GraphQuery([next(iter(engine.catalog))])
            ).refs
            pool.execute(0, engine.n_records, fragment)  # attach first so timing is tight
            # Worker side: a task whose budget is already spent answers
            # "timeout" before touching the fold.
            fut = pool._submit(0, [(0, engine.n_records)], pool.stamp, fragment, 1e-9)
            reply = pool._wait(fut, None)
            assert reply[3] == "timeout"
            # End to end: a lapsed deadline surfaces as the same typed
            # error the in-process path raises.
            ctx = QueryContext.start(timeout=0.0005)
            time.sleep(0.002)
            with pytest.raises(QueryTimeoutError):
                pool.execute(0, engine.n_records, fragment, ctx)
        finally:
            pool.close()

    def test_back_to_back_deadline_expiries_reuse_worker(self, tmp_path, corpus):
        """Regression: two consecutive deadline expiries through the SAME
        worker must leave its pipe healthy — the worker answers each
        abandoned/timed-out task exactly once, the collector disposes of
        the late replies, and the next normal query gets *its own* answer
        (not a stale reply), bit-exact and promptly."""
        engine = _fresh_engine(corpus, shards=2)
        db = tmp_path / "db"
        engine.save(db)
        pool = ProcessShardPool(
            db, workers=1, stamp=(storage_generation(db), engine.epoch)
        )
        try:
            fragment = _nonempty_fragment(engine, corpus)
            expected = pool.execute(0, engine.n_records, fragment)  # attach + oracle
            baseline = _shm_snapshot()
            slow = fragment * 200_000  # ~1s of AND folds in the worker
            for _ in range(2):
                ctx = QueryContext.start(timeout=0.1)
                with pytest.raises(QueryTimeoutError):
                    pool.execute(0, engine.n_records, slow, ctx)
            start = time.monotonic()
            assert pool.execute(0, engine.n_records, fragment) == expected
            # The worker stopped burning on the dead folds: had either
            # abandoned task kept folding, the answer would have queued
            # behind ~1s of dead work.
            assert time.monotonic() - start < 0.75
            _assert_drained(pool, baseline)
        finally:
            pool.close()

    def test_disconnect_abandon_stops_dead_fold_promptly(self, tmp_path, corpus):
        """Regression (serving path): a client disconnect abandons the
        task with NO deadline — without cancel propagation the worker
        would fold the dead task to completion (~5s here) and head-of-line
        block the next request through the same pipe."""
        engine = _fresh_engine(corpus, shards=2)
        db = tmp_path / "db"
        engine.save(db)
        registry = MetricsRegistry()
        pool = ProcessShardPool(
            db,
            workers=1,
            stamp=(storage_generation(db), engine.epoch),
            registry=registry,
        )
        try:
            fragment = _nonempty_fragment(engine, corpus)
            expected = pool.execute(0, engine.n_records, fragment)
            baseline = _shm_snapshot()
            dead = fragment * 1_000_000  # ~5s fold if never cancelled
            token = CancelToken()
            ctx = QueryContext.start(token=token)
            failures: list = []

            def doomed():
                try:
                    pool.execute(0, engine.n_records, dead, ctx)
                    failures.append("cancelled query returned normally")
                except QueryCancelledError:
                    pass
                except Exception as exc:
                    failures.append(exc)

            waiter = threading.Thread(target=doomed)
            waiter.start()
            time.sleep(0.2)  # the worker is mid-fold now
            token.cancel()  # the "client" vanished
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            assert not failures, failures[0]
            start = time.monotonic()
            assert pool.execute(0, engine.n_records, fragment) == expected
            assert time.monotonic() - start < 2.0  # not behind ~5s of dead work
            assert registry.counter("pool.tasks_cancelled").value >= 1
            _assert_drained(pool, baseline)
        finally:
            pool.close()

    def test_abandoned_query_cancels_every_batch_task(self, tmp_path, corpus):
        """A cancel landing while the caller waits on one worker's task
        also cancels the query's task on the other worker, so neither
        folds dead work in front of the next request."""
        engine = _fresh_engine(corpus, shards=2)
        db = tmp_path / "db"
        engine.save(db)
        registry = MetricsRegistry()
        pool = ProcessShardPool(
            db, workers=2, stamp=(storage_generation(db), engine.epoch),
            registry=registry,
        )
        try:
            fragment = _nonempty_fragment(engine, corpus)
            spans = [(lo, hi) for _, lo, hi in range_tasks(engine.n_records, 2)]
            expected = [pool.execute(*span, fragment) for span in spans]
            baseline = _shm_snapshot()
            dead = fragment * 1_000_000  # seconds per range if never cancelled
            token = CancelToken()
            ctx = QueryContext.start(token=token)
            routes = pool.dispatch(spans, dead, ctx)
            timer = threading.Timer(0.2, token.cancel)
            timer.start()
            with pytest.raises(QueryCancelledError):
                pool.collect(0, spans[0], routes, dead, ctx)
            timer.join(timeout=5)
            assert registry.counter("pool.tasks_cancelled").value == 2
            start = time.monotonic()
            assert [pool.execute(*span, fragment) for span in spans] == expected
            assert time.monotonic() - start < 2.0
            _assert_drained(pool, baseline)
        finally:
            pool.close()

    def test_close_is_idempotent_and_joins_workers(self, tmp_path, corpus):
        engine = _fresh_engine(corpus, shards=2)
        db = tmp_path / "db"
        engine.save(db)
        pool = ProcessShardPool(
            db, workers=2, stamp=(storage_generation(db), engine.epoch)
        )
        pids = pool.worker_pids()
        pool.close()
        pool.close()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: process is gone

    def test_submit_after_close_raises(self, tmp_path, corpus):
        engine = _fresh_engine(corpus, shards=2)
        db = tmp_path / "db"
        engine.save(db)
        pool = ProcessShardPool(
            db, workers=1, stamp=(storage_generation(db), engine.epoch)
        )
        pool.close()
        with pytest.raises(RuntimeError):
            pool.execute(0, engine.n_records, (("element", 0),))
