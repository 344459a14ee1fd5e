"""Instrumentation overhead: the Figure 3(a) workload untraced, with a
metrics registry attached, and fully traced.

With no tracer installed every hook is a single ``tracer is None``
check, so serving untraced must stay within a few percent of the
pre-instrumentation engine.  Attaching a registry
(``engine.use_metrics``) adds no per-query work at all: the registry
has no push API, and reads the engine's own I/O and cache counts (as it
reads the executor's, the daemon's and the view maintainer's) only when
it exports, so ``metrics-only`` runs the same per-query code as
``untraced``.  Enabling a tracer buys the span trees at a measured
cost: each span is a plain context manager, entered about 8 times per
query.

Expected shape: ``untraced`` ~= ``metrics-only``; ``traced`` pays a
modest premium per query.
"""

from __future__ import annotations

import pytest

from _data import emit, engine_for, ny_corpus, scaled
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import sample_path_queries

N_RECORDS = scaled(5000)
N_QUERIES = 20
QUERY_EDGES = 5

_results: dict[str, float] = {}


def _queries(corpus):
    return sample_path_queries(corpus, N_QUERIES, QUERY_EDGES, seed=3)


def _run(engine, queries):
    return sum(len(engine.query(q)) for q in queries)


def test_untraced(benchmark):
    corpus = ny_corpus(N_RECORDS)
    engine = engine_for(corpus)
    total = benchmark(_run, engine, _queries(corpus))
    _results["untraced"] = benchmark.stats.stats.mean
    assert total > 0


def test_metrics_only(benchmark):
    """Registry attached, tracer off: the common production setup."""
    corpus = ny_corpus(N_RECORDS)
    engine = engine_for(corpus)
    engine.use_metrics(MetricsRegistry())
    total = benchmark(_run, engine, _queries(corpus))
    _results["metrics-only"] = benchmark.stats.stats.mean
    assert total > 0


def test_traced(benchmark):
    corpus = ny_corpus(N_RECORDS)
    engine = engine_for(corpus)
    tracer = Tracer()
    engine.use_tracer(tracer)
    queries = _queries(corpus)
    total = benchmark(_run, engine, queries)
    _results["traced"] = benchmark.stats.stats.mean
    assert total > 0
    assert len(tracer.drain()) >= len(queries)


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(f"\n=== Tracer overhead: {N_QUERIES} queries over {N_RECORDS} records ===")
    base = _results.get("untraced")
    for mode in ["untraced", "metrics-only", "traced"]:
        mean = _results.get(mode, float("nan"))
        rel = f" ({100 * (mean / base - 1):+.1f}%)" if base and mode != "untraced" else ""
        emit(f"{mode:>14}: {mean:.5f} s{rel}")
    # Shape, not absolute seconds (these runs are milliseconds, so noise
    # is large): the fully traced mode is the most expensive, and enabled
    # instrumentation stays within one order of magnitude of off.
    if base and "traced" in _results:
        assert _results["traced"] <= base * 10
