#!/usr/bin/env python
"""Quickstart: the paper's running example (Figure 2 / Table 1), end to end.

Loads the three sample graph records, runs graph queries, boolean
combinations, path aggregation, and materializes both view species —
printing the master-relation content exactly as Table 1 lays it out.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
)
from repro.core import render_aggregation, render_graph_query

# Figure 2's edge universe: e1..e7 (see the paper; decoded in tests/conftest).
EDGES = {
    1: ("A", "B"),
    2: ("A", "C"),
    3: ("C", "E"),
    4: ("A", "D"),
    5: ("D", "E"),
    6: ("E", "F"),
    7: ("F", "G"),
}

RECORDS = [
    GraphRecord("r1", {EDGES[1]: 3, EDGES[2]: 4, EDGES[3]: 2, EDGES[4]: 1, EDGES[5]: 2}),
    GraphRecord(
        "r2",
        {EDGES[2]: 1, EDGES[3]: 2, EDGES[4]: 2, EDGES[5]: 1, EDGES[6]: 4, EDGES[7]: 1},
    ),
    GraphRecord("r3", {EDGES[4]: 5, EDGES[5]: 4, EDGES[6]: 3, EDGES[7]: 1}),
]


def print_master_relation(engine: GraphAnalyticsEngine) -> None:
    """Render the master relation in the layout of Table 1."""
    ids = [engine.catalog.id_of(EDGES[i]) for i in sorted(EDGES)]
    header = ["rid"] + [f"m{i}" for i in sorted(EDGES)] + [f"b{i}" for i in sorted(EDGES)]
    rows = []
    for row, rid in enumerate(["r1", "r2", "r3"]):
        cells = [rid]
        for edge_id in ids:
            value = engine.relation.measures(edge_id)[row]
            cells.append("NULL" if np.isnan(value) else f"{value:g}")
        for edge_id in ids:
            cells.append(str(int(engine.relation.ref_bitmap("element", edge_id)[row])))
        rows.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    for line in [header] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))


def main() -> None:
    engine = GraphAnalyticsEngine()
    engine.load_records(RECORDS)

    print("=== Master relation (Table 1, measures + bitmaps) ===")
    print_master_relation(engine)

    print("\n=== Graph query: records containing path A->D->E ===")
    query = GraphQuery.from_node_chain("A", "D", "E")
    result = engine.query(query)
    print("matches:", result.record_ids)
    print("SQL:", render_graph_query(engine.plan_query(query), engine.catalog))

    print("\n=== Boolean combination: via (E,F) but NOT via (A,B) ===")
    combo = GraphQuery([EDGES[6]]) - GraphQuery([EDGES[1]])
    print("matches:", engine.query(combo).record_ids)

    print("\n=== Path aggregation: SUM over (A,C,E,F) — the §3.4 example ===")
    agg = PathAggregationQuery(GraphQuery.from_node_chain("A", "C", "E", "F"), "sum")
    agg_result = engine.aggregate(agg)
    for path, values in agg_result.path_values.items():
        for rid, value in zip(agg_result.record_ids, values):
            print(f"record {rid}, path {path}: {value:g}")

    print("\n=== Materialize: graph view over {e1..e4}, aggregate view [E,F,G] ===")
    engine.add_graph_view([EDGES[i] for i in (1, 2, 3, 4)], name="bv1")
    report = engine.materialize_aggregate_views(
        [PathAggregationQuery(GraphQuery.from_node_chain("E", "F", "G"), "sum")],
        budget=1,
    )
    name = report.selected[0]
    print("bv1 bitmap:", engine.relation.ref_bitmap("graph-view", "bv1").to_bools().astype(int))
    mp = engine.relation.aggregate_view_measures(f"{name}:sum")
    print(f"mp1 ({name}):", ["NULL" if np.isnan(v) else f"{v:g}" for v in mp])

    print("\n=== Rewritten aggregation over the view ===")
    efg = PathAggregationQuery(GraphQuery.from_node_chain("E", "F", "G"), "sum")
    plan = engine.plan_aggregation(efg)
    print("SQL:", render_aggregation(plan, engine.catalog))
    out = engine.aggregate(efg)
    for path, values in out.path_values.items():
        print("values:", dict(zip(out.record_ids, values.tolist())))

    print("\nI/O stats for this session:", engine.stats)


if __name__ == "__main__":
    main()
