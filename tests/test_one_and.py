"""One AND over storage: every surface that folds a ref list answers alike.

A graph query's structural answer is the AND of one bitmap per planner ref
(``("element", id)``, ``("graph-view", name)``, ``("agg-view", name)``).
The storage layer runs that AND in one place, ``and_refs``; this property
drives random ref lists — elements present in only some ranges, elements
absent everywhere, graph views and aggregate views — through each of its
callers:

* the charged ``fold`` of a ``MasterRelation``, whole and over the
  runner's cuts into 1, 3 and 8 record ranges, whose I/O deltas must be
  one fetch per (ref, range) of the range's words — none for an element
  the relation never saw;
* a ``RelationBitmapReader`` attachment to the saved store, whole and
  over a 3-range cut, as the process pool's worker folds it;
* the engine's ``compute_view_bitmap`` at an arbitrary start row, at 1, 3
  and 8 shards, which charges nothing.

Every answer must equal the AND of element containment computed from
``RowStore``.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import RowStore
from repro.columnstore import (
    Bitmap,
    RelationBitmapReader,
    and_refs,
)
from repro.core import GraphAnalyticsEngine, GraphQuery, GraphRecord, PathAggregationQuery
from repro.core.engine import range_tasks

UNIVERSE = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "c")]
ABSENT = ("y", "z")  # in no record
CHAINS = [("a", "b", "c"), ("b", "c", "d"), ("a", "c", "d", "e")]


@st.composite
def cases(draw):
    """Records whose edges stop appearing after a drawn row (so sharding
    leaves them out of later shards), one graph view, one aggregate view,
    a ref list over all of them, and a start row."""
    n = draw(st.integers(min_value=1, max_value=30))
    until = {edge: draw(st.integers(min_value=0, max_value=n)) for edge in UNIVERSE}
    records = []
    for i in range(n):
        allowed = [edge for edge in UNIVERSE if i < until[edge]]
        edges = draw(st.sets(st.sampled_from(allowed))) if allowed else set()
        cells = {edge: float(i + j) for j, edge in enumerate(sorted(edges))}
        records.append(GraphRecord(f"r{i}", cells or {("x", "x"): 1.0}))
    view = draw(st.sets(st.sampled_from(UNIVERSE), min_size=2, max_size=3))
    chain = draw(st.sampled_from(CHAINS))
    picks = draw(
        st.lists(
            st.sampled_from([*UNIVERSE, ABSENT, "graph-view", "agg-view"]),
            min_size=1,
            max_size=6,
        )
    )
    start = draw(st.integers(min_value=0, max_value=n))
    return records, frozenset(view), chain, picks, start


def _expected_io(relation, refs, sizes) -> tuple[int, int, int]:
    base = view = nbytes = 0
    for n_records in sizes:
        for kind, token in refs:
            if kind == "element" and not relation.has_element(token):
                continue
            base += kind == "element"
            view += kind != "element"
            nbytes += 8 * ((n_records + 63) // 64)
    return base, view, nbytes


def _io_delta(collector, run):
    b0, v0, n0 = (
        collector.stats.bitmap_columns_fetched,
        collector.stats.view_bitmaps_fetched,
        collector.stats.bitmap_bytes_fetched,
    )
    answer = run()
    stats = collector.stats
    delta = (
        stats.bitmap_columns_fetched - b0,
        stats.view_bitmaps_fetched - v0,
        stats.bitmap_bytes_fetched - n0,
    )
    return answer, delta


@given(cases())
@settings(max_examples=50, deadline=None)
def test_every_fold_is_the_and_of_element_containment(case):
    records, view_elements, chain, picks, start = case
    engine = GraphAnalyticsEngine()
    engine.load_records(records)
    graph_view = engine.add_graph_view(view_elements)
    report = engine.materialize_aggregate_views(
        [PathAggregationQuery(GraphQuery.from_node_chain(*chain), "sum")], 1
    )
    agg_view = report.selected[0]
    path = engine.aggregate_views[agg_view].path
    agg_elements = frozenset(path.elements(engine.measured_nodes) or path.edges())

    refs, elements = [], set()
    for pick in picks:
        if pick == "graph-view":
            refs.append(("graph-view", graph_view))
            elements |= view_elements
        elif pick == "agg-view":
            refs.append(("agg-view", f"{agg_view}:sum"))
            elements |= agg_elements
        else:
            edge_id = engine.catalog.get_id(pick)
            refs.append(("element", 10**6 if edge_id is None else edge_id))
            elements.add(pick)

    oracle = RowStore()
    oracle.load_records(records)
    matched = set(oracle.query(GraphQuery(elements)).record_ids)
    want = [i for i, record in enumerate(records) if record.record_id in matched]

    relation = engine.relation
    answer, delta = _io_delta(relation.collector, lambda: relation.fold(refs))
    assert answer.to_indices().tolist() == want
    assert delta == _expected_io(relation, refs, [len(records)])
    for k in (1, 3, 8):
        ranges = range_tasks(len(records), k)
        answer, delta = _io_delta(relation.collector, lambda: Bitmap.concat(
            relation.fold(refs, None, start, stop) for _, start, stop in ranges
        ))
        assert answer.length == len(records)
        assert answer.to_indices().tolist() == want
        assert delta == _expected_io(relation, refs, [stop - start for _, start, stop in ranges])

    with tempfile.TemporaryDirectory() as db:
        engine.save(db)
        reader = RelationBitmapReader(db)
        assert and_refs(reader.ref_bitmap, refs, reader.n_records).to_indices().tolist() == want
        segments = [
            and_refs(reader.ref_bitmap, refs, stop - start, start=start)
            for _, start, stop in range_tasks(len(records), 3)
        ]
        assert Bitmap.concat(segments).to_indices().tolist() == want

    for shards in (1, 3, 8):
        engine.reshard(shards)
        bitmap, delta = _io_delta(
            engine.collector, lambda: engine.compute_view_bitmap(elements, start)
        )
        assert delta == (0, 0, 0)
        assert bitmap.length == len(records) - start
        assert (bitmap.to_indices() + start).tolist() == [i for i in want if i >= start]
    assert np.array_equal(
        engine.compute_view_bitmap(elements).to_indices(), np.array(want, dtype=np.int64)
    )
