"""Parallel batch serving with the whole-answer bitmap cache.

The serving-layer perf trajectory: one dense corpus (the workload where
conjunctions are widest, so sharing them matters most), one skewed batch of
repeated dense queries — the shape of real query traffic, where a few hot
queries dominate (cf. the Zipf workloads of Figure 8) — served under four
configurations:

* ``serial-nocache``   — jobs=1, no cache: the engine as it was before the
  executor existed (the baseline);
* ``serial-cache``     — jobs=1 + warm cache: what answer caching
  alone buys;
* ``parallel4-nocache`` — jobs=4, no cache: what threading alone buys
  (bounded by available cores; the numpy word-ops release the GIL);
* ``parallel4-cache``  — jobs=4 + warm cache: the full serving layer.

Emits ``benchmarks/BENCH_parallel_serving.json`` with per-config seconds
and queries/second plus the headline ``speedup`` of ``parallel4-cache``
over ``serial-nocache``; the report test asserts the acceptance bar
(>= 2x with warm cache) and that every configuration returns identical
answers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from _data import SCALE, dense_corpus, emit, engine_for, scaled
from repro.exec import QueryExecutor
from repro.workloads import sample_dense_queries

N_RECORDS = scaled(2000)
DENSITY_PCT = 10
POOL_SIZE = 24          # distinct hot queries
N_QUERIES = 192         # served per batch, zipf-repeated from the pool
ZIPF_S = 1.1
CACHE_MB = 64

CONFIGS = {
    "serial-nocache": dict(jobs=1, cached=False),
    "serial-cache": dict(jobs=1, cached=True),
    "parallel4-nocache": dict(jobs=4, cached=False),
    "parallel4-cache": dict(jobs=4, cached=True),
}

JSON_PATH = Path(__file__).parent / "BENCH_parallel_serving.json"

_results: dict[str, float] = {}
_answers: dict[str, list] = {}


def _workload():
    corpus = dense_corpus(N_RECORDS, DENSITY_PCT)
    pool = sample_dense_queries(corpus, POOL_SIZE, DENSITY_PCT / 100.0, seed=11)
    rng = np.random.default_rng(13)
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, ZIPF_S)
    weights /= weights.sum()
    chosen = rng.choice(len(pool), size=N_QUERIES, p=weights)
    return corpus, [pool[i] for i in chosen]


@pytest.mark.parametrize("config", list(CONFIGS))
def test_serving_config(benchmark, config):
    corpus, queries = _workload()
    engine = engine_for(corpus)
    spec = CONFIGS[config]
    cache_mb = CACHE_MB if spec["cached"] else 0
    with QueryExecutor(engine, jobs=spec["jobs"], cache_mb=cache_mb) as executor:
        if executor.cache is not None:
            executor.run_batch(queries, fetch_measures=False)  # warm the cache
        results = benchmark(
            lambda: executor.run_batch(queries, fetch_measures=False)
        )
    _results[config] = benchmark.stats.stats.mean
    _answers[config] = [r.record_ids for r in results]
    assert len(results) == N_QUERIES


def test_zz_report(benchmark):
    """Write BENCH_parallel_serving.json and assert the acceptance bar."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(_results) == set(CONFIGS), "all configs must have run"
    # Differential guarantee: every configuration serves identical answers.
    baseline_answers = _answers["serial-nocache"]
    for config, answers in _answers.items():
        assert answers == baseline_answers, f"{config} diverged from baseline"

    payload = {
        "benchmark": "parallel_serving",
        "corpus": {
            "kind": "dense",
            "n_records": N_RECORDS,
            "density_pct": DENSITY_PCT,
            "scale": SCALE,
        },
        "workload": {
            "n_queries": N_QUERIES,
            "distinct_queries": POOL_SIZE,
            "distribution": f"zipf(s={ZIPF_S})",
        },
        "cache_mb": CACHE_MB,
        "configs": {
            config: {
                "jobs": CONFIGS[config]["jobs"],
                "cache": CONFIGS[config]["cached"],
                "seconds_per_batch": _results[config],
                "queries_per_second": N_QUERIES / _results[config],
            }
            for config in CONFIGS
        },
        "speedup_parallel4_cache_vs_serial_nocache": (
            _results["serial-nocache"] / _results["parallel4-cache"]
        ),
        "speedup_cache_only": (
            _results["serial-nocache"] / _results["serial-cache"]
        ),
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(f"\n=== Parallel serving: {N_QUERIES} zipf dense queries ===")
    emit(f"{'config':>20} {'s/batch':>10} {'q/s':>10}")
    for config in CONFIGS:
        emit(
            f"{config:>20} {_results[config]:>10.4f} "
            f"{N_QUERIES / _results[config]:>10.0f}"
        )
    speedup = payload["speedup_parallel4_cache_vs_serial_nocache"]
    emit(f"speedup (parallel4-cache vs serial-nocache): {speedup:.1f}x")
    emit(f"json written to {JSON_PATH.name}")
    assert speedup >= 2.0, (
        f"acceptance bar: warm-cache 4-job serving must be >= 2x the "
        f"serial no-cache baseline, got {speedup:.2f}x"
    )
