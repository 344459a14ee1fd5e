"""Shard-parallel execution: the Figure 3(a) workload across shard counts.

The sharding perf trajectory: the Figure 3(a) serving shape (NY corpus,
5-edge path queries, zipf-repeated so a few hot queries dominate) is run
with the engine's range count set to 1 / 2 / 4 / 8, each under three
servers:

* ``serial-sK``    — plain ``engine.query`` loop, no cache: the inline
  runner, which folds every query in one call at any range count (the
  correctness path);
* ``executor4-sK`` — ``QueryExecutor(jobs=4)`` (``thread`` mode) with a
  warm answer cache: batch fan-out over the inline runner, the full
  serving stack;
* ``process4-sK``  — ``QueryExecutor(exec_mode="process", workers=4)``
  with the same warm cache: the process runner, whose worker pool folds
  the ranges of a query ANDing at least its ``min_fanout_words``.

A query here ANDs far fewer words than the process runner's break-even,
so every config folds each query in one call; the range count only shows
where that is not so.

Emits ``benchmarks/BENCH_shard_scaling.json`` with per-config seconds and
queries/second plus the headlines ``speedup_at_4_shards`` (executor over
the serial loop at the same shard count), ``process_speedup_at_4_shards``
(process pool over serial), ``process_over_thread_at_4_shards`` and
``serial_overhead_at_8_shards`` (serial-s8 over serial-s1: what a range
count of eight costs the uncached loop; reported, not asserted); the
report test asserts the acceptance bars (executor >= 1.5x serial, process
>= 2.5x serial and >= 1.2x thread at 4 shards, gated on a full-scale run)
and that every config returns answers identical to the unsharded baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from _data import SCALE, emit, ny_corpus, scaled
from repro.core import GraphAnalyticsEngine
from repro.exec import QueryExecutor
from repro.workloads import sample_path_queries

N_RECORDS = scaled(20000)
QUERY_SIZE = 5          # edges per path query, the Figure 3(a) shape
POOL_SIZE = 16          # distinct hot queries
N_QUERIES = 128         # served per batch, zipf-repeated from the pool
ZIPF_S = 1.1
CACHE_MB = 64
SHARD_COUNTS = [1, 2, 4, 8]

JSON_PATH = Path(__file__).parent / "BENCH_shard_scaling.json"

_results: dict[str, float] = {}
_answers: dict[str, list] = {}


def _workload():
    corpus = ny_corpus(N_RECORDS)
    pool = sample_path_queries(corpus, POOL_SIZE, QUERY_SIZE, seed=17)
    rng = np.random.default_rng(19)
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, ZIPF_S)
    weights /= weights.sum()
    chosen = rng.choice(len(pool), size=N_QUERIES, p=weights)
    return corpus, [pool[i] for i in chosen]


def _sharded_engine(shards: int) -> GraphAnalyticsEngine:
    corpus, _ = _workload()
    engine = GraphAnalyticsEngine(shards=shards)
    engine.load_records(corpus.to_records())
    return engine


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_serial_shards(benchmark, shards):
    _, queries = _workload()
    engine = _sharded_engine(shards)
    results = benchmark(
        lambda: [engine.query(q, fetch_measures=False) for q in queries]
    )
    _results[f"serial-s{shards}"] = benchmark.stats.stats.mean
    _answers[f"serial-s{shards}"] = [r.record_ids for r in results]
    assert len(results) == N_QUERIES


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_executor_shards(benchmark, shards):
    _, queries = _workload()
    engine = _sharded_engine(shards)
    with QueryExecutor(engine, jobs=4, cache_mb=CACHE_MB) as executor:
        executor.run_batch(queries, fetch_measures=False)  # warm the cache
        results = benchmark(
            lambda: executor.run_batch(queries, fetch_measures=False)
        )
    _results[f"executor4-s{shards}"] = benchmark.stats.stats.mean
    _answers[f"executor4-s{shards}"] = [r.record_ids for r in results]
    assert len(results) == N_QUERIES


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_process_shards(benchmark, shards):
    _, queries = _workload()
    engine = _sharded_engine(shards)
    with QueryExecutor(
        engine, jobs=4, cache_mb=CACHE_MB, exec_mode="process", workers=4
    ) as executor:
        executor.run_batch(queries, fetch_measures=False)  # warm + attach
        results = benchmark(
            lambda: executor.run_batch(queries, fetch_measures=False)
        )
    _results[f"process4-s{shards}"] = benchmark.stats.stats.mean
    _answers[f"process4-s{shards}"] = [r.record_ids for r in results]
    assert len(results) == N_QUERIES


def test_zz_report(benchmark):
    """Write BENCH_shard_scaling.json and assert the acceptance bar."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    expected_configs = {
        f"{mode}-s{k}"
        for mode in ("serial", "executor4", "process4")
        for k in SHARD_COUNTS
    }
    assert set(_results) == expected_configs, "all configs must have run"
    # Differential guarantee: sharding never changes an answer.
    baseline_answers = _answers["serial-s1"]
    for config, answers in _answers.items():
        assert answers == baseline_answers, f"{config} diverged from unsharded"

    payload = {
        "benchmark": "shard_scaling",
        "corpus": {"kind": "NY", "n_records": N_RECORDS, "scale": SCALE},
        "workload": {
            "n_queries": N_QUERIES,
            "distinct_queries": POOL_SIZE,
            "query_size_edges": QUERY_SIZE,
            "distribution": f"zipf(s={ZIPF_S})",
        },
        "cache_mb": CACHE_MB,
        "configs": {
            config: {
                "seconds_per_batch": _results[config],
                "queries_per_second": N_QUERIES / _results[config],
            }
            for config in sorted(_results)
        },
        "speedup_at_4_shards": _results["serial-s4"] / _results["executor4-s4"],
        "process_speedup_at_4_shards": (
            _results["serial-s4"] / _results["process4-s4"]
        ),
        "process_over_thread_at_4_shards": (
            _results["executor4-s4"] / _results["process4-s4"]
        ),
        "serial_overhead_at_8_shards": _results["serial-s8"] / _results["serial-s1"],
        "speedup_by_shards": {
            str(k): _results[f"serial-s{k}"] / _results[f"executor4-s{k}"]
            for k in SHARD_COUNTS
        },
        "process_speedup_by_shards": {
            str(k): _results[f"serial-s{k}"] / _results[f"process4-s{k}"]
            for k in SHARD_COUNTS
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(f"\n=== Shard scaling: {N_QUERIES} zipf path queries, NY ===")
    emit(f"{'config':>16} {'s/batch':>10} {'q/s':>10}")
    for k in SHARD_COUNTS:
        for mode in ("serial", "executor4", "process4"):
            config = f"{mode}-s{k}"
            emit(
                f"{config:>16} {_results[config]:>10.4f} "
                f"{N_QUERIES / _results[config]:>10.0f}"
            )
    speedup = payload["speedup_at_4_shards"]
    proc_speedup = payload["process_speedup_at_4_shards"]
    proc_over_thread = payload["process_over_thread_at_4_shards"]
    emit(f"speedup at 4 shards (executor4 vs serial): {speedup:.1f}x")
    emit(f"speedup at 4 shards (process4 vs serial): {proc_speedup:.1f}x")
    emit(f"process over thread at 4 shards: {proc_over_thread:.2f}x")
    emit(
        "serial overhead at 8 shards (serial-s8 / serial-s1): "
        f"{payload['serial_overhead_at_8_shards']:.2f}x"
    )
    emit(f"json written to {JSON_PATH.name}")
    if SCALE >= 1.0:
        assert speedup >= 1.5, (
            f"acceptance bar: warm-cache executor serving at 4 shards must "
            f"be >= 1.5x the serial loop, got {speedup:.2f}x"
        )
        assert proc_speedup >= 2.5, (
            f"acceptance bar: process-parallel serving at 4 shards must be "
            f">= 2.5x the serial loop, got {proc_speedup:.2f}x"
        )
        assert proc_over_thread >= 1.2, (
            f"acceptance bar: the process pool must beat thread-mode "
            f"serving by >= 1.2x at 4 shards, got {proc_over_thread:.2f}x"
        )
