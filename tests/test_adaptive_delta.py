"""Hypothesis property suite: append-delta view maintenance is
bit-identical to a full rebuild.

The maintainer stages a view bitmap off-epoch, appends may land while it
is staged, and commit extends the staged prefix with
``compute_view_bitmap(elements, start)`` over only the tail rows.  Soundness rests on rows
being immutable and append-only — these properties drive random record
batches, random staging points, random append sizes, and every shard
geometry against the ground truth of a from-scratch build.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphAnalyticsEngine, GraphRecord

UNIVERSE = [
    ("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "C"), ("B", "D"),
]


@st.composite
def record_batches(draw):
    """Two record batches (load, then append) over a small edge universe,
    plus a shard count and a view element set."""
    n_load = draw(st.integers(min_value=1, max_value=40))
    n_append = draw(st.integers(min_value=0, max_value=30))

    def records(count, tag):
        out = []
        for i in range(count):
            mask = draw(
                st.lists(
                    st.booleans(),
                    min_size=len(UNIVERSE),
                    max_size=len(UNIVERSE),
                )
            )
            edges = {
                edge: float(i + j)
                for j, (edge, keep) in enumerate(zip(UNIVERSE, mask))
                if keep
            }
            if not edges:  # records must carry at least one edge
                edges = {UNIVERSE[i % len(UNIVERSE)]: float(i)}
            out.append(GraphRecord(f"{tag}{i}", edges))
        return out

    load = records(n_load, "r")
    append = records(n_append, "x")
    shards = draw(st.integers(min_value=1, max_value=4))
    view = draw(
        st.sets(st.sampled_from(UNIVERSE), min_size=2, max_size=4).map(frozenset)
    )
    return load, append, shards, view


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
