"""Drift differential oracle: adaptive view maintenance must never
change an answer.

A zipf workload whose hot set shifts mid-stream is driven through an
executor with a *live* background maintainer — views are being staged,
committed, and dropped while the stream runs — and every answer is held
bit-identical (record ids, measure vectors with NaN sentinels, aggregate
path values) to an unmaintained oracle engine that never materializes
anything.  The stream must cross at least one view-swap epoch, on a
store reopened with a shard count, under the thread executor and under
the ``exec_mode="process"`` executor the end-to-end benchmark builds.

``TestAdaptiveStress`` drives the swap path itself under contention:
background materialize/drop batches racing reader batches and writer
appends through :class:`QueryExecutor`, with the replay invariant from
the executor stress suite — every observed answer must be reproducible
from the records visible at its (quiescent) epoch, no stale cache hits,
no half-committed swap observable.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    QueryExecutor,
    ViewMaintainer,
    WorkloadWindow,
)
from repro.workloads import as_aggregate_queries, build_dataset, sample_path_queries

N_RECORDS = 150


@pytest.fixture(scope="module")
def corpus():
    return build_dataset("NY", n_records=N_RECORDS, seed=5)


@pytest.fixture(scope="module")
def records(corpus):
    return list(corpus.to_records())


@pytest.fixture(scope="module")
def drift_workload(corpus):
    """Two zipf phases drawn from independently shuffled pools: the hot
    paths of phase B are (with overwhelming probability) not the hot
    paths of phase A — a mid-stream hot-set shift."""
    phase_a = sample_path_queries(corpus, 60, 3, distribution="zipf", seed=11)
    phase_b = sample_path_queries(corpus, 60, 3, distribution="zipf", seed=77)
    return phase_a, phase_b


@pytest.fixture(scope="module")
def oracle(records, drift_workload):
    """Reference answers from an engine that never materializes a view,
    caches a bitmap, or observes the workload."""
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    answers = {}
    for query in {q for phase in drift_workload for q in phase}:
        answers[query] = engine.query(query)
        answers[as_aggregate_queries([query], "sum")[0]] = engine.aggregate(
            as_aggregate_queries([query], "sum")[0]
        )
    return answers


def assert_bit_identical(result, expected, query):
    assert result.record_ids == expected.record_ids, query
    got = getattr(result, "measures", None) or result.path_values
    want = getattr(expected, "measures", None) or expected.path_values
    assert set(got) == set(want), query
    for key in want:
        assert np.array_equal(
            np.asarray(got[key]), np.asarray(want[key]), equal_nan=True
        ), (query, key)


MODES = [
    pytest.param({"shards": 3}, id="thread"),
    # The executor the end-to-end benchmark builds; it folds inline too.
    pytest.param(
        {"shards": 2, "jobs": 2, "exec_mode": "process", "workers": 2},
        id="process",
    ),
]


@pytest.mark.parametrize("mode", MODES)
def test_drift_stream_matches_unmaintained_oracle(
    mode, reopen, records, drift_workload, oracle
):
    mode = dict(mode)
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    engine = reopen(engine, mode.pop("shards"))
    executor = QueryExecutor(engine, cache_mb=8, **mode)
    maintainer = ViewMaintainer(
        executor,
        window=WorkloadWindow(64),
        budget=4,
        min_support=2,
        min_window=8,
        interval_s=0.05,
        grace_refreshes=0,
    )
    phase_a, phase_b = drift_workload
    epochs_seen = set()
    try:
        maintainer.start()
        for phase in (phase_a, phase_b):
            for i, query in enumerate(phase):
                result = executor.run_one(query)
                epochs_seen.add(result.epoch)
                assert_bit_identical(result, oracle[query], query)
                if i % 5 == 0:
                    agg = as_aggregate_queries([query], "sum")[0]
                    agg_result = executor.run_one(agg)
                    epochs_seen.add(agg_result.epoch)
                    assert_bit_identical(agg_result, oracle[agg], agg)
            # Force a deterministic refresh at the phase edge so the swap
            # is guaranteed even on a slow machine: the background loop
            # races the stream, this pins the drift response.
            maintainer.refresh()
        # One more sweep over phase B entirely behind the post-drift views.
        for query in phase_b[:20]:
            result = executor.run_one(query)
            epochs_seen.add(result.epoch)
            assert_bit_identical(result, oracle[query], query)
    finally:
        maintainer.stop()
        executor.close()
    assert maintainer.last_error is None
    assert maintainer.views_added >= 1, "maintainer never materialized a view"
    assert len(epochs_seen) >= 2, "stream never crossed a view-swap epoch"
    # The drift was actually acted on: something decayed or was replaced.
    assert maintainer.refreshes >= 2


def test_forced_swap_every_epoch_matches_oracle(records, drift_workload, oracle):
    """Tighter variant: a refresh after *every* few queries, so answers
    are checked across many distinct swap epochs, not just the phase edge."""
    phase_a, phase_b = drift_workload
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    with QueryExecutor(engine, cache_mb=4) as executor:
        maintainer = ViewMaintainer(
            executor,
            window=WorkloadWindow(32),
            budget=3,
            min_support=2,
            min_window=6,
            grace_refreshes=0,
        )
        epochs = set()
        for i, query in enumerate(phase_a[:30] + phase_b[:30]):
            result = executor.run_one(query)
            epochs.add(result.epoch)
            assert_bit_identical(result, oracle[query], query)
            if i % 6 == 5:
                maintainer.refresh()
        assert maintainer.views_added >= 1
        assert len(epochs) >= 3


class TestAdaptiveStress:
    """Background materialize/drop batches race reader batches and writer
    appends.  Invariants: no exceptions, every observed answer replays
    bit-for-bit from the records visible at its quiescent epoch (views
    never change answers), and no stale cache entry survives."""

    def test_swaps_race_readers_and_appends(self):
        base = [
            GraphRecord(
                f"b{i}", {("A", "B"): float(i), ("B", "C"): 1.0, ("C", "D"): 2.0}
            )
            for i in range(12)
        ]
        extra_batches = [
            [
                GraphRecord(
                    f"x{batch}-{i}",
                    {("A", "B"): 1.0, ("C", "D"): float(batch), ("D", "E"): 1.0},
                )
                for i in range(4)
            ]
            for batch in range(6)
        ]
        queries = [
            GraphQuery([("A", "B"), ("B", "C")]),
            GraphQuery([("A", "B"), ("C", "D")]),
            GraphQuery([("C", "D"), ("D", "E")]),
            GraphQuery([("no", "where")]),
        ]
        swap_sets = [
            frozenset([("A", "B"), ("B", "C")]),
            frozenset([("A", "B"), ("C", "D")]),
            frozenset([("C", "D"), ("D", "E")]),
        ]

        engine = GraphAnalyticsEngine()
        executor = QueryExecutor(engine, cache_mb=8)
        engine.load_records(base)
        # Epoch -> records visible at that quiescent epoch.  ``book``
        # serializes mutator+bookkeeping so the mapping is never torn;
        # staging deliberately happens OUTSIDE it to race the appender.
        book = threading.Lock()
        visible = {engine.epoch: len(base)}
        observations = []
        errors = []
        swaps_done = []
        start = threading.Barrier(6, timeout=10)
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

        def appender():
            try:
                start.wait()
                n = len(base)
                for batch in extra_batches:
                    with book:
                        executor.append_records(batch)
                        n += len(batch)
                        visible[engine.epoch] = n
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def swapper():
            try:
                start.wait()
                current = None
                for round_no in range(12):
                    if stop.is_set() and round_no >= 6:
                        break
                    elements = swap_sets[round_no % len(swap_sets)]
                    # Stage off-epoch, racing appends.
                    staged = executor.stage_view(elements)
                    drops = [current] if current else []
                    with book:
                        swap = executor.commit_view_swap(
                            adds=[(None, *staged)], drops=drops
                        )
                        visible[swap["epoch"]] = swap["n_records"]
                    current = swap["added"][0]
                    swaps_done.append(swap)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
        threads.append(threading.Thread(target=appender))
        threads.append(threading.Thread(target=swapper))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        executor.close()

        assert not errors, errors
        assert not any(t.is_alive() for t in threads), "thread failed to join"
        assert len(swaps_done) >= 6, "swapper starved"
        assert len(visible) > len(extra_batches), "mutators never advanced"

        # Replay: answers depend only on the rows visible at the observed
        # epoch — a view swap must be answer-invariant, and a torn or
        # half-committed swap would surface as an unknown epoch here.
        all_records = base + [r for batch in extra_batches for r in batch]
        replayed = {}
        for query, epoch, record_ids in observations:
            assert epoch in visible, f"observed mid-mutation epoch {epoch}"
            key = (epoch, query)
            if key not in replayed:
                n = visible[epoch]
                replayed[key] = [
                    r.record_id for r in all_records[:n] if query.matches(r)
                ]
            assert record_ids == replayed[key], (epoch, query)

        # Proactive invalidation: only current-epoch cache entries remain.
        cache = executor.cache
        assert all(key[0] == engine.epoch for key in cache._entries)
        stats = cache.stats
        assert stats.requests() == stats.hits + stats.misses

    def test_maintainer_thread_races_readers_and_appends(self):
        """Same invariant with the real maintainer loop as the swapper:
        the background thread decides adds/drops from the live window."""
        base = [
            GraphRecord(f"b{i}", {("A", "B"): float(i), ("B", "C"): 1.0})
            for i in range(10)
        ]
        extra = [
            [
                GraphRecord(f"x{b}-{i}", {("A", "B"): 1.0, ("B", "C"): 2.0})
                for i in range(4)
            ]
            for b in range(4)
        ]
        queries = [
            GraphQuery([("A", "B"), ("B", "C")]),
            GraphQuery([("A", "B")]),
        ]
        engine = GraphAnalyticsEngine()
        engine.load_records(base)
        executor = QueryExecutor(engine, cache_mb=4)
        maintainer = ViewMaintainer(
            executor, budget=2, min_window=4, interval_s=0.01, grace_refreshes=0
        )
        observations = []
        errors = []
        stop = threading.Event()

        def reader(seed):
            try:
                i = 0
                while not stop.is_set() or i < 10:
                    query = queries[(seed + i) % len(queries)]
                    result = executor.run_one(query, fetch_measures=False)
                    observations.append((query, result.epoch, result.record_ids))
                    i += 1
                    if i > 2000:
                        break
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        maintainer.start()
        threads = [threading.Thread(target=reader, args=(s,)) for s in range(3)]
        for t in threads:
            t.start()
        try:
            counts = [len(base)]
            for batch in extra:
                executor.append_records(batch)
                counts.append(counts[-1] + len(batch))
            # Keep the readers and the maintainer loop racing until at
            # least one background refresh has landed.
            deadline = time.time() + 10.0
            while maintainer.refreshes == 0 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
            maintainer.stop()
            executor.close()

        assert not errors, errors
        assert maintainer.last_error is None
        assert maintainer.refreshes >= 1
        # Record counts move through the known append points only; the
        # answer for a query is fully determined by its row count, so
        # check every observation against the replay at each count.
        all_records = base + [r for batch in extra for r in batch]
        valid = {
            (query, n): [
                r.record_id for r in all_records[:n] if query.matches(r)
            ]
            for query in queries
            for n in counts
        }
        for query, epoch, record_ids in observations:
            assert any(
                record_ids == valid[(query, n)] for n in counts
            ), (query, epoch, record_ids)
        assert all(key[0] == engine.epoch for key in executor.cache._entries)
