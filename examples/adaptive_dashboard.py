#!/usr/bin/env python
"""Adaptive view management under a shifting dashboard workload.

A BI dashboard fires the same handful of DSL queries over and over —
until an analyst pivots to a different slice.  This example serves such a
shift through a :class:`~repro.exec.QueryExecutor` and refreshes a
:class:`~repro.adaptive.ViewMaintainer` over the queries it observed: the
maintainer materializes views for the hot queries, then drops and replaces
them once the hot set changes, all without ever changing an answer.

Run:  python examples/adaptive_dashboard.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    GraphAnalyticsEngine,
    QueryExecutor,
    ViewMaintainer,
    WorkloadWindow,
    parse_query,
)
from repro.workloads import build_dataset, sample_path_queries


def main() -> None:
    corpus = build_dataset("NY", n_records=2000, seed=29)
    engine = GraphAnalyticsEngine()
    engine.load_columnar(corpus.record_ids(), corpus.to_columnar())
    executor = QueryExecutor(engine)
    maintainer = ViewMaintainer(
        executor, window=WorkloadWindow(60), budget=6, min_support=1
    )

    phase_a = sample_path_queries(corpus, 6, 7, seed=41)
    phase_b = sample_path_queries(corpus, 6, 7, seed=97)
    rng = np.random.default_rng(3)

    def run_phase(name, hot_queries, n_executions=60):
        baseline = {q: tuple(engine.query(q, fetch_measures=False).record_ids)
                    for q in hot_queries}
        engine.reset_stats()
        for _ in range(n_executions):
            executor.run_one(rng.choice(hot_queries), fetch_measures=False)
        cost = engine.stats.structural_columns_fetched()
        report = maintainer.refresh()
        engine.reset_stats()
        for _ in range(n_executions):
            executor.run_one(rng.choice(hot_queries), fetch_measures=False)
        tuned = engine.stats.structural_columns_fetched()
        for q, expected in baseline.items():
            assert tuple(engine.query(q, fetch_measures=False).record_ids) == expected
        print(f"{name}: {cost} -> {tuned} structural columns per {n_executions} "
              f"queries after refresh "
              f"(+{len(report.added)} views, -{len(report.dropped)}, "
              f"kept {len(report.kept)}); answers unchanged")

    print(f"corpus: {engine.n_records} records, "
          f"{engine.relation.n_element_columns} elements; view budget 6\n")
    run_phase("phase A (dashboard 1)", phase_a)
    run_phase("phase A again (views warm)", phase_a)
    run_phase("phase B (analyst pivots)", phase_b)
    print(f"\nmanaged views now: {sorted(maintainer.managed_views())}")

    # DSL round-trip on the same engine.
    edge = corpus.universe[int(corpus.record_edges[0][0])]
    text = f"'{edge[0]}' -> '{edge[1]}'"
    print(f"\nDSL check — {text!r}: "
          f"{len(engine.query(parse_query(text), fetch_measures=False))} matches")
    print("\nEXPLAIN for a hot query:")
    print(engine.explain(phase_b[0]))


if __name__ == "__main__":
    main()
