"""Cross-cutting property tests: invariants that tie modules together."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphQuery, GraphRecord
from repro.core.hierarchy import NodeHierarchy, rollup_record
from repro.core.paths import adjacency_of
from repro.core.regions import Region, paths_through_region
from repro.lang import parse_query

NODES = list("ABCDEFGH")


@st.composite
def records(draw):
    length = draw(st.integers(min_value=2, max_value=7))
    walk = draw(st.lists(st.sampled_from(NODES), min_size=length,
                         max_size=length, unique=True))
    measures = {
        (u, v): float(draw(st.integers(min_value=1, max_value=20)))
        for u, v in zip(walk, walk[1:])
    }
    node = draw(st.sampled_from(walk))
    if draw(st.booleans()):
        measures[(node, node)] = float(draw(st.integers(min_value=1, max_value=9)))
    return GraphRecord("r", measures)


@st.composite
def hierarchies(draw):
    groups = draw(
        st.dictionaries(st.sampled_from(NODES), st.sampled_from(["G1", "G2", "G3"]))
    )
    return NodeHierarchy(["base", "group"], [groups])


class TestRollupInvariants:
    @given(records(), hierarchies())
    @settings(max_examples=80, deadline=None)
    def test_sum_rollup_preserves_total(self, record, hierarchy):
        """Rolling up with SUM never loses or invents measure mass."""
        rolled = rollup_record(record, hierarchy, "group", function="sum")
        assert sum(rolled.measures().values()) == pytest.approx(
            sum(record.measures().values())
        )

    @given(records(), hierarchies())
    @settings(max_examples=60, deadline=None)
    def test_rollup_nodes_are_ancestors(self, record, hierarchy):
        rolled = rollup_record(record, hierarchy, "group")
        expected = {hierarchy.ancestor(n, "group") for n in record.nodes()}
        assert rolled.nodes() <= expected

    @given(records(), hierarchies())
    @settings(max_examples=60, deadline=None)
    def test_rollup_never_grows_element_count(self, record, hierarchy):
        rolled = rollup_record(record, hierarchy, "group")
        assert len(rolled) <= len(record)


@st.composite
def host_graphs(draw):
    n_edges = draw(st.integers(min_value=2, max_value=10))
    edges = draw(
        st.sets(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    nodes = sorted({u for e in edges for u in e})
    region_size = draw(st.integers(min_value=1, max_value=max(1, len(nodes) // 2)))
    region_nodes = draw(
        st.sets(st.sampled_from(nodes), min_size=region_size, max_size=region_size)
    )
    return sorted(edges), frozenset(region_nodes)


class TestRegionInvariants:
    @given(host_graphs())
    @settings(max_examples=60, deadline=None)
    def test_region_paths_are_host_paths(self, case):
        edges, region_nodes = case
        region = Region("R", region_nodes, host_edges=edges)
        edge_set = set(edges)
        for path in paths_through_region(edges, region, max_length=6):
            for edge in path.edges():
                assert edge in edge_set

    @given(host_graphs())
    @settings(max_examples=60, deadline=None)
    def test_region_paths_touch_region(self, case):
        edges, region_nodes = case
        region = Region("R", region_nodes, host_edges=edges)
        for path in paths_through_region(edges, region, max_length=6):
            assert any(n in region_nodes for n in path.nodes)

    @given(host_graphs())
    @settings(max_examples=40, deadline=None)
    def test_region_paths_are_simple(self, case):
        edges, region_nodes = case
        region = Region("R", region_nodes, host_edges=edges)
        for path in paths_through_region(edges, region, max_length=6):
            assert len(set(path.nodes)) == len(path.nodes)


class TestDslRoundtrip:
    @given(st.lists(st.sampled_from(NODES), min_size=2, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_chain_roundtrip(self, nodes):
        text = " -> ".join(nodes)
        assert parse_query(text) == GraphQuery.from_node_chain(*nodes)

    @given(
        st.sets(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_element_set_roundtrip(self, elements):
        text = "{" + ", ".join(f"({u},{v})" for u, v in sorted(elements)) + "}"
        assert parse_query(text) == GraphQuery(elements)


class TestAdjacencyDeterminism:
    @given(
        st.sets(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_adjacency_sorted_and_self_edge_free(self, edges):
        adjacency = adjacency_of(edges)
        for node, successors in adjacency.items():
            assert successors == sorted(successors, key=repr)
            assert node not in successors or (node, node) not in edges
