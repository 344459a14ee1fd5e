"""Resilience overhead and goodput under injected worker faults.

Supervision lives where a record range can fail on its own: the process
runner.  Three process-mode servers (``WORKERS`` worker processes, every
query forced to fan out into ``N_SHARDS`` record ranges) run the same
zipf path-query workload (NY corpus):

* ``baseline``      — healthy workers under the default policy: the cost
  floor;
* ``no-governance`` — each bitmap a worker's range fold fetches fails
  with probability 5% (a transient I/O error, drawn from the worker's own
  seeded rng) and the policy makes one attempt: every fault kills its
  query, so goodput collapses roughly with the per-query fault exposure
  (each query folds every range);
* ``governed``      — same 5% fault rate under the full governance stack:
  a :class:`ResiliencePolicy` (4 attempts, a retry runs the range alone)
  plus a per-query deadline.  Transient faults are retried through, so
  goodput should return to ~1.0 at a small latency premium.

Emits ``benchmarks/BENCH_resilience.json`` with per-config p50/p99 query
latency and goodput (successful queries per wall-clock second), plus the
headline ``goodput_recovered`` ratio (governed over no-governance).  The
report test asserts the acceptance bar: governance recovers at least
1.25x the ungoverned goodput at a 5% fault rate (gated on a full-scale run),
and governed answers match the healthy baseline exactly.
"""

from __future__ import annotations

import gc
import json
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from _data import SCALE, emit, ny_corpus, scaled
from repro.core import GraphAnalyticsEngine
from repro.errors import ReproError
from repro.exec import QueryExecutor, procpool
from repro.exec.runners import ProcessRunner
from repro.resilience import ResiliencePolicy
from repro.workloads import sample_path_queries

N_RECORDS = scaled(10000)
QUERY_SIZE = 5
POOL_SIZE = 16
N_QUERIES = 128
ZIPF_S = 1.1
N_SHARDS = 4
WORKERS = 2
FAULT_RATE = 0.05       # probability one worker bitmap fetch raises
TIMEOUT_S = 30.0        # generous per-query deadline for the governed config

JSON_PATH = Path(__file__).parent / "BENCH_resilience.json"

_results: dict[str, dict] = {}
_answers: dict[str, list] = {}


@pytest.fixture(autouse=True)
def _fan_out(monkeypatch):
    """Cut every query into ``N_SHARDS`` ranges on the worker processes,
    as a query ANDing at least ``min_fanout_words`` words is: the
    per-range supervision under test only exists where a query fans out,
    which this corpus never reaches."""
    monkeypatch.setattr(ProcessRunner, "min_fanout_words", 0)


# The real worker entry, bound before a run swaps the module's name.
_worker_main = procpool._worker_main


def _flaky_worker(seed: int, worker_id: int, *args) -> None:
    """A pool worker whose range folds fail transiently: each bitmap a
    fold fetches fails with probability ``FAULT_RATE``, drawn from an rng
    seeded by ``(seed, worker_id)`` — the worker's own stream (a retry
    draws again).  Pickled by name, so the worker imports this module."""
    rng = np.random.default_rng((seed, worker_id))
    and_refs = procpool.and_refs

    def flaky(lookup, refs, length, check=None, read=None, start=0):
        if (rng.random(len(refs)) < FAULT_RATE).any():
            raise OSError("injected transient worker I/O error")
        return and_refs(lookup, refs, length, check, read, start)

    procpool.and_refs = flaky
    _worker_main(worker_id, *args)


def _workload():
    corpus = ny_corpus(N_RECORDS)
    pool = sample_path_queries(corpus, POOL_SIZE, QUERY_SIZE, seed=17)
    rng = np.random.default_rng(19)
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, ZIPF_S)
    weights /= weights.sum()
    chosen = rng.choice(len(pool), size=N_QUERIES, p=weights)
    return corpus, [pool[i] for i in chosen]


def _engine() -> GraphAnalyticsEngine:
    corpus, _ = _workload()
    engine = GraphAnalyticsEngine(shards=N_SHARDS)
    engine.load_records(corpus.to_records())
    return engine


def _serve(executor: QueryExecutor, queries, timeout=None) -> dict:
    """Serve the workload one query at a time, recording per-query latency
    and outcome; returns latency percentiles + goodput."""
    latencies, answers, failures = [], [], 0
    # Collect the engine build's garbage now: a young-generation sweep
    # over it costs ~16 ms, which would land on whichever query crosses
    # the allocation threshold in a run that lasts ~50 ms.
    gc.collect()
    started = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        try:
            result = executor.run_one(query, fetch_measures=False, timeout=timeout)
            answers.append(result.record_ids)
        except ReproError:
            failures += 1
            answers.append(None)
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - started
    lat = np.asarray(latencies)
    return {
        "latency_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "latency_p99_ms": float(np.percentile(lat, 99) * 1e3),
        "queries": len(queries),
        "failures": failures,
        "success_rate": 1.0 - failures / len(queries),
        "goodput_qps": (len(queries) - failures) / wall,
        "_answers": answers,
    }


def _run_config(name: str, policy, queries, fault_seed=None, timeout=None, benchmark=None):
    """Serve the workload on a process-mode executor under ``policy``, its
    workers flaky when ``fault_seed`` is given."""
    with pytest.MonkeyPatch.context() as patch:
        if fault_seed is not None:
            patch.setattr(procpool, "_worker_main", partial(_flaky_worker, fault_seed))
        executor = QueryExecutor(
            _engine(), exec_mode="process", workers=WORKERS, resilience=policy
        )
    with executor:
        def once():
            return _serve(executor, queries, timeout=timeout)

        stats = benchmark.pedantic(once, rounds=1, iterations=1)
    _answers[name] = stats.pop("_answers")
    _results[name] = stats


def test_baseline_healthy(benchmark):
    _, queries = _workload()
    _run_config("baseline", ResiliencePolicy(), queries, benchmark=benchmark)
    assert _results["baseline"]["failures"] == 0


def test_no_governance_under_faults(benchmark):
    _, queries = _workload()
    # attempts=1, no breaker: the ungoverned failure mode (every fault is
    # terminal) without a breaker latching the whole run open.
    policy = ResiliencePolicy(attempts=1, breaker_threshold=10**9)
    _run_config("no-governance", policy, queries, fault_seed=23, benchmark=benchmark)
    assert _results["no-governance"]["failures"] > 0, (
        "fault injection must actually fire for the comparison to mean anything"
    )


def test_governed_under_faults(benchmark):
    _, queries = _workload()
    # attempts=4: a 5-fetch range attempt fails with p ~0.23 at a 5%
    # per-fetch fault rate, so four tries push terminal failure under 1%.
    # backoff_base=0 retries immediately: the injected fault is
    # instantaneous, so any sleep would only charge the millisecond
    # queries for contention that does not exist (production keeps the
    # default backoff for real I/O).
    policy = ResiliencePolicy(attempts=4, backoff_base=0.0, breaker_threshold=10**9)
    _run_config(
        "governed", policy, queries, fault_seed=23, timeout=TIMEOUT_S, benchmark=benchmark
    )


def test_zz_report(benchmark):
    """Write BENCH_resilience.json and assert the acceptance bar."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(_results) == {"baseline", "no-governance", "governed"}

    # Differential guarantee: every query the governed server answered
    # matches the healthy baseline bit for bit (retries never corrupt).
    for governed, healthy in zip(_answers["governed"], _answers["baseline"]):
        if governed is not None:
            assert governed == healthy

    recovered = (
        _results["governed"]["goodput_qps"]
        / _results["no-governance"]["goodput_qps"]
    )
    payload = {
        "benchmark": "resilience",
        "corpus": {"kind": "NY", "n_records": N_RECORDS, "scale": SCALE},
        "workload": {
            "n_queries": N_QUERIES,
            "distinct_queries": POOL_SIZE,
            "query_size_edges": QUERY_SIZE,
            "distribution": f"zipf(s={ZIPF_S})",
            "shards": N_SHARDS,
            "exec_mode": "process",
            "workers": WORKERS,
        },
        "fault_rate_per_worker_bitmap_fetch": FAULT_RATE,
        "deadline_seconds": TIMEOUT_S,
        "configs": {
            name: {k: v for k, v in stats.items()}
            for name, stats in sorted(_results.items())
        },
        "goodput_recovered": recovered,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(f"\n=== Resilience: {N_QUERIES} zipf queries, {FAULT_RATE:.0%} worker fetch faults ===")
    emit(f"{'config':>15} {'p50 ms':>9} {'p99 ms':>9} {'goodput q/s':>12} {'ok':>6}")
    for name in ("baseline", "no-governance", "governed"):
        s = _results[name]
        emit(
            f"{name:>15} {s['latency_p50_ms']:>9.2f} {s['latency_p99_ms']:>9.2f} "
            f"{s['goodput_qps']:>12.0f} {s['success_rate']:>6.1%}"
        )
    emit(f"goodput recovered by governance: {recovered:.2f}x")

    assert _results["governed"]["success_rate"] >= 0.95
    if SCALE >= 1.0:
        assert recovered >= 1.25, (
            f"governance should recover >=1.25x goodput, got {recovered:.2f}x"
        )
