"""Hypothesis property suite: append-delta view maintenance is
bit-identical to a full rebuild.

The maintainer stages a view bitmap off-epoch, appends may land while it
is staged, and commit extends the staged prefix with
``compute_view_bitmap(elements, start)`` over only the tail rows.  Soundness rests on rows
being immutable and append-only — these properties drive random record
batches, random staging points, random append sizes, and every shard
geometry against the ground truth of a from-scratch build.

The same ground truth checks the one write path: records loaded and then
appended in several batches — graph and aggregate views maintained on the
way — store exactly what one load of every record stores, and
``load_records`` and ``load_columnar`` of the same records store the same.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphAnalyticsEngine, GraphQuery, GraphRecord, PathAggregationQuery

UNIVERSE = [
    ("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "C"), ("B", "D"),
]
# A ten-edge chain c0 -> ... -> c10 and two chords: paths of up to ten
# elements, where a SUM is long enough to round differently pairwise.
CHAIN = [f"c{i}" for i in range(11)]
CHAIN_UNIVERSE = [*zip(CHAIN, CHAIN[1:]), ("c0", "c2"), ("c4", "c9")]


@st.composite
def record_batches(draw, universe=UNIVERSE, present=st.booleans(), scaled=False):
    """Two record batches (load, then append) over a small edge universe,
    plus a shard count and a view element set.

    ``present`` draws whether a record holds each universe edge.  Record
    *i*'s *j*-th edge measures ``i + j``; with ``scaled`` the measures are
    instead seeded normals times powers of ten from 1e-3 to 1e3, whose
    sums round differently in different orders."""
    n_load = draw(st.integers(min_value=1, max_value=40))
    n_append = draw(st.integers(min_value=0, max_value=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1))) if scaled else None

    def records(count, tag):
        out = []
        for i in range(count):
            mask = draw(
                st.lists(
                    present,
                    min_size=len(universe),
                    max_size=len(universe),
                )
            )
            edges = {
                edge: float(i + j) if rng is None
                else float(rng.normal() * 10.0 ** rng.integers(-3, 4))
                for j, (edge, keep) in enumerate(zip(universe, mask))
                if keep
            }
            if not edges:  # records must carry at least one edge
                edges = {universe[i % len(universe)]: float(i)}
            out.append(GraphRecord(f"{tag}{i}", edges))
        return out

    load = records(n_load, "r")
    append = records(n_append, "x")
    shards = draw(st.integers(min_value=1, max_value=4))
    view = draw(
        st.sets(st.sampled_from(universe), min_size=2, max_size=4).map(frozenset)
    )
    return load, append, shards, view


def stored(engine) -> dict:
    """Everything the engine stores, as bytes: the record ids, and per
    element column, graph view and aggregate view column its packed
    values and validity words, merged over the shards."""
    relation = engine.relation
    out = {"ids": engine.record_ids_at(np.arange(engine.n_records))}
    columns = {
        engine.catalog.edge_of(i): relation.column_for_persistence(i)
        for i in relation.element_ids()
    }
    columns.update(relation.aggregate_views_for_persistence())
    for key, column in columns.items():
        out[key] = (column.packed().tobytes(), column.validity.words().tobytes())
    for name, bitmap in relation.graph_views_for_persistence().items():
        out[name] = bitmap.words().tobytes()
    return out


class TestAppendDeltaEqualsFullRebuild:
    @given(record_batches())
    @settings(max_examples=60, deadline=None)
    def test_staged_plus_delta_matches_full(self, batch):
        load, append, shards, view = batch
        engine = GraphAnalyticsEngine(shards=shards)
        engine.load_records(load)
        staged = engine.compute_view_bitmap(view)
        if append:
            engine.append_records(append)
        name = engine.add_graph_view(view, staged=staged)
        committed = engine.relation.ref_bitmap("graph-view", name)

        # Ground truth: a fresh engine sees every record at load time.
        oracle = GraphAnalyticsEngine(shards=shards)
        oracle.load_records(load + append)
        full = oracle.compute_view_bitmap(view)
        assert committed.length == full.length == engine.n_records
        assert committed.to_indices().tolist() == full.to_indices().tolist()

    @given(record_batches())
    @settings(max_examples=40, deadline=None)
    def test_existing_view_extension_matches_full(self, batch):
        # append_records' incremental extension of an already-registered
        # view must agree with the delta path and the full rebuild.
        load, append, shards, view = batch
        engine = GraphAnalyticsEngine(shards=shards)
        engine.load_records(load)
        name = engine.add_graph_view(view)
        if append:
            engine.append_records(append)
        extended = engine.relation.ref_bitmap("graph-view", name)
        full = engine.compute_view_bitmap(view)
        assert extended.to_indices().tolist() == full.to_indices().tolist()

    @given(record_batches(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_delta_bitmap_is_suffix_of_full(self, batch, data):
        # compute_view_bitmap(elements, start) at an arbitrary start point —
        # including mid-shard and at shard boundaries — must equal the
        # corresponding slice of the full bitmap.
        load, append, shards, view = batch
        engine = GraphAnalyticsEngine(shards=shards)
        engine.load_records(load + append)
        n = engine.n_records
        start = data.draw(st.integers(min_value=0, max_value=n))
        delta = engine.compute_view_bitmap(view, start)
        full = engine.compute_view_bitmap(view)
        assert delta.length == n - start
        assert (
            delta.to_indices().tolist()
            == [i - start for i in full.to_indices().tolist() if i >= start]
        )

    def test_stage_before_multiple_appends_across_shard_boundary(self):
        # Deterministic shard-boundary case: the staged prefix ends inside
        # shard 0, the appends grow the last shard twice.
        engine = GraphAnalyticsEngine(shards=3)
        engine.load_records(
            [GraphRecord(f"r{i}", {("A", "B"): 1.0, ("B", "C"): 2.0}) for i in range(7)]
        )
        view = frozenset([("A", "B"), ("B", "C")])
        staged = engine.compute_view_bitmap(view)
        engine.append_records(
            [GraphRecord("x0", {("A", "B"): 1.0}), GraphRecord("x1", {("A", "B"): 1.0, ("B", "C"): 1.0})]
        )
        engine.append_records([GraphRecord("x2", {("B", "C"): 1.0})])
        name = engine.add_graph_view(view, staged=staged)
        got = engine.relation.ref_bitmap("graph-view", name).to_indices().tolist()
        assert got == list(range(7)) + [8]

    def test_staged_row_mismatch_rejected(self):
        engine = GraphAnalyticsEngine()
        engine.load_records([GraphRecord("r0", {("A", "B"): 1.0, ("B", "C"): 1.0})])
        staged = engine.compute_view_bitmap([("A", "B"), ("B", "C")])
        import pytest

        # A staged bitmap longer than the relation cannot be a prefix of it.
        with pytest.raises(ValueError):
            engine.add_graph_view(
                [("A", "B"), ("B", "C")], staged=staged.resized(staged.length + 1)
            )
        with pytest.raises(ValueError):
            engine.compute_view_bitmap([("A", "B")], start=5)


class TestOneWritePath:
    @given(
        record_batches(CHAIN_UNIVERSE, present=st.integers(0, 7).map(bool), scaled=True),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_load_then_appends_store_what_one_load_stores(self, batch, data):
        """Appends maintain views with the builders that made them: load,
        views, then several appends, is byte for byte the load of every
        record followed by the same views."""
        load, append, _, view = batch
        cuts = sorted(data.draw(st.lists(st.integers(0, len(append)), max_size=3)))
        appends = [append[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(append)])]
        first = data.draw(st.integers(0, 8))
        last = data.draw(st.integers(first + 2, 10))
        path = GraphQuery.from_node_chain(*CHAIN[first : last + 1])

        def with_views(engine):
            engine.add_graph_view(view, name="gv")
            for function in ("sum", "avg"):
                engine.materialize_aggregate_views(
                    [PathAggregationQuery(path, function)], budget=1, function=function
                )
            return engine

        for shards in (1, 3):
            grown = GraphAnalyticsEngine(shards=shards)
            grown.load_records(load)
            with_views(grown)
            for records in appends:
                grown.append_records(records)
            whole = GraphAnalyticsEngine(shards=shards)
            whole.load_records(load + append)
            with_views(whole)
            assert len(grown.aggregate_views) == 2
            assert stored(grown) == stored(whole)

    @given(record_batches(CHAIN_UNIVERSE, scaled=True), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_load_records_and_load_columnar_store_the_same(self, batch, seed):
        load, append, _, _ = batch
        records = load + append
        rng = np.random.default_rng(seed)
        cells: dict = {}
        for row, record in enumerate(records):
            for edge, value in record.measures().items():
                cells.setdefault(edge, []).append((row, value))
        columns = {}
        for edge, pairs in cells.items():  # in any row order
            rows, values = np.array(pairs).T[:, rng.permutation(len(pairs))]
            columns[edge] = (rows.astype(np.int64), values)
        for shards in (1, 3):
            by_row = GraphAnalyticsEngine(shards=shards)
            by_row.load_records(records)
            by_column = GraphAnalyticsEngine(shards=shards)
            by_column.load_columnar([r.record_id for r in records], columns)
            assert stored(by_row) == stored(by_column)
            assert by_row.measured_nodes == by_column.measured_nodes
