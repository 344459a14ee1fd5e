"""Tests for workload generation: networks, corpora, query sampling."""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.core import GraphAnalyticsEngine, GraphQuery
from repro.workloads.records import _RawStream
from repro.workloads import (
    DATASETS,
    RecordCorpus,
    as_aggregate_queries,
    build_dataset,
    corpus_statistics,
    generate_corpus,
    generate_dense_corpus,
    gnutella_network,
    ny_road_network,
    path_pool,
    sample_dense_queries,
    sample_edge_universe,
    sample_path_queries,
)


class TestNetworks:
    def test_ny_is_directed_and_sized(self):
        g = ny_road_network(400, seed=1)
        assert g.is_directed()
        assert g.number_of_nodes() >= 400
        assert g.number_of_edges() > 0

    def test_ny_low_max_degree(self):
        g = ny_road_network(400, seed=1)
        assert max(dict(g.out_degree()).values()) <= 4

    def test_ny_deterministic(self):
        a = ny_road_network(100, seed=5)
        b = ny_road_network(100, seed=5)
        assert set(a.edges()) == set(b.edges())

    def test_gnutella_heavy_tail(self):
        g = gnutella_network(500, seed=2)
        in_degrees = sorted(dict(g.in_degree()).values(), reverse=True)
        # Heavy tail: the top node has far more in-links than the median.
        assert in_degrees[0] >= 4 * max(np.median(in_degrees), 1)

    def test_gnutella_deterministic(self):
        a = gnutella_network(100, seed=3)
        b = gnutella_network(100, seed=3)
        assert set(a.edges()) == set(b.edges())

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ny_road_network(2)
        with pytest.raises(ValueError):
            gnutella_network(2)


class TestEdgeUniverse:
    def test_requested_size(self):
        g = ny_road_network(900, seed=1)
        universe = sample_edge_universe(g, 200, seed=0)
        assert len(universe) == 200
        assert len(set(universe)) == 200

    def test_too_large_raises(self):
        g = ny_road_network(100, seed=1)
        with pytest.raises(ValueError):
            sample_edge_universe(g, 10_000, seed=0)

    def test_edges_exist_in_network(self):
        g = ny_road_network(400, seed=1)
        universe = sample_edge_universe(g, 100, seed=0)
        for u, v in universe:
            assert g.has_edge(u, v)


class TestCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(
            ny_road_network(2500, seed=1),
            n_records=60,
            min_edges=10,
            max_edges=30,
            universe_size=300,
            seed=0,
        )

    def test_record_count(self, corpus):
        assert corpus.n_records == 60

    def test_sizes_within_bounds(self, corpus):
        lo, hi, avg = corpus.edges_per_record()
        assert hi <= 30
        assert lo >= 1
        assert lo <= avg <= hi

    def test_universe_respected(self, corpus):
        for edges in corpus.record_edges:
            assert edges.max() < len(corpus.universe)

    def test_walks_are_paths(self, corpus):
        assert corpus.walks
        for walk in corpus.walks:
            assert len(walk) >= 2
            assert len(set(walk)) == len(walk)  # self-avoiding

    def test_columnar_matches_records(self, corpus):
        columnar_engine = GraphAnalyticsEngine()
        columnar_engine.load_columnar(corpus.record_ids(), corpus.to_columnar())
        row_engine = GraphAnalyticsEngine()
        row_engine.load_records(corpus.to_records())
        edge = corpus.universe[int(corpus.record_edges[0][0])]
        q = GraphQuery([edge])
        assert columnar_engine.query(q).record_ids == row_engine.query(q).record_ids

    def test_statistics_shape(self, corpus):
        stats = corpus_statistics(corpus)
        assert stats["n_records"] == 60
        assert stats["distinct_edge_ids"] == 300
        assert stats["n_measures"] == corpus.n_measures()

    def test_deterministic(self):
        net = ny_road_network(2500, seed=1)
        a = generate_corpus(net, 10, 5, 10, universe_size=200, seed=9)
        b = generate_corpus(net, 10, 5, 10, universe_size=200, seed=9)
        assert all(
            np.array_equal(x, y) for x, y in zip(a.record_edges, b.record_edges)
        )

    def test_invalid_bounds(self):
        net = ny_road_network(400, seed=1)
        with pytest.raises(ValueError):
            generate_corpus(net, 5, min_edges=10, max_edges=5)


def corpus_digest(corpus: RecordCorpus) -> str:
    """sha256 over the universe, the records, the walks and the columnar
    layout, dtypes included: any change to the generator's stream or to the
    column order changes it."""
    h = hashlib.sha256()
    h.update(repr(corpus.universe).encode())

    def add(array: np.ndarray) -> None:
        h.update(f"{array.dtype.str}:{array.size};".encode())
        h.update(array.tobytes())

    for edges, values in zip(corpus.record_edges, corpus.record_values):
        add(edges)
        add(values)
    h.update(repr(corpus.walks).encode())
    for edge, (rows, values) in corpus.to_columnar().items():
        h.update(repr(edge).encode())
        add(rows)
        add(values)
    return h.hexdigest()


def _e2e_network() -> nx.DiGraph:
    network = ny_road_network(4000, seed=7)
    return nx.relabel_nodes(network, {n: f"n{n}" for n in network.nodes()})


class TestPinnedCorpus:
    """The generator's output, pinned bit for bit.  Every benchmark number
    and every golden answer rests on these corpora, so a faster generator
    must reproduce them exactly."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            pytest.param(
                lambda: build_dataset("NY", n_records=2000, seed=42),
                "60e91b64fe487125819176f55405a8627430bdaca6fa8b60a1d88b4ccdd00229",
                id="NY-2000-seed42",
            ),
            pytest.param(
                lambda: build_dataset("GNU", n_records=500, seed=3),
                "ccd2901fb96e8f166451a79ae453df10e7af262ffc7c8bdf41aab64aa975f060",
                id="GNU-500-seed3",
            ),
            pytest.param(
                # The end-to-end benchmark's recipe: string labels, a
                # 1 000-edge universe and its corpus seed, at 3 000 records.
                lambda: generate_corpus(
                    _e2e_network(), 3000, universe_size=1000, seed=20140324
                ),
                "3fd48aea41392f1961fef562b7bcccf330432f893cc9027840a573b737bd1cb8",
                id="e2e-3000",
            ),
            pytest.param(
                # min_edges == max_edges: the size draw has bound 1 and
                # consumes nothing from the stream.
                lambda: generate_corpus(
                    ny_road_network(900, seed=2), 300, min_edges=12, max_edges=12,
                    universe_size=250, seed=5,
                ),
                "9f75754dd565e799ee29202744a85b7de8f0b1d7352e53e659a22286a77eaf17",
                id="fixed-size",
            ),
            pytest.param(
                # A one-edge universe: one start node with one successor, so every
                # start and step draw has bound 1.
                lambda: generate_corpus(
                    nx.DiGraph([(0, 1), (1, 0)]), 20, min_edges=1, max_edges=3,
                    universe_size=1, seed=8,
                ),
                "84cb786152c5886ee1be5cb552a756bb2e501ef71516d423e22705f087405930",
                id="single-edge",
            ),
        ],
    )
    def test_digest(self, build, digest):
        assert corpus_digest(build()) == digest

    def test_empty_corpus_columnar(self):
        universe = sample_edge_universe(ny_road_network(400, seed=1), 20, seed=0)
        empty = RecordCorpus(universe=universe, record_edges=[], record_values=[])
        assert empty.to_columnar() == {}
        generated = generate_corpus(ny_road_network(400, seed=1), 0, universe_size=20)
        assert corpus_digest(empty) == corpus_digest(generated) == (
            "44e3a64a782617bc3734c682b79d30fab4707b63c6332ed1ccb9e98805c61b3f"
        )


class TestRawStream:
    """``_RawStream`` against numpy's own ``Generator`` on random
    interleavings of bounded and uniform draws, with a tiny block so every
    refill path (a pending high half across a refill, a uniform draw
    larger than a block) is taken."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_generator(self, seed, monkeypatch):
        monkeypatch.setattr(_RawStream, "BLOCK", 3)
        script = np.random.default_rng(1000 + seed)
        rng = np.random.default_rng(seed)
        stream = _RawStream(np.random.default_rng(seed))
        for _ in range(400):
            if script.random() < 0.7:
                # Small bounds, bound 1, and bounds near 2**31 where
                # Lemire rejects about half of all draws.
                n = int(script.choice([1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 5]))
                assert stream.integers(n) == int(rng.integers(n))
            else:
                size = int(script.integers(1, 9))
                low, high = sorted(script.uniform(-5, 5, 2).tolist())
                expected = rng.uniform(low, high, size=size)
                assert stream.uniform(low, high, size).tobytes() == expected.tobytes()


class TestDenseCorpus:
    def test_density_controls_record_size(self):
        net = ny_road_network(2500, seed=1)
        corpus = generate_dense_corpus(net, 20, density=0.2, universe_size=200, seed=0)
        for edges in corpus.record_edges:
            assert edges.size == 40

    def test_invalid_density(self):
        net = ny_road_network(400, seed=1)
        with pytest.raises(ValueError):
            generate_dense_corpus(net, 5, density=0.0)
        with pytest.raises(ValueError):
            generate_dense_corpus(net, 5, density=1.5)


class TestQuerySampling:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(
            ny_road_network(2500, seed=1),
            n_records=80,
            min_edges=10,
            max_edges=30,
            universe_size=300,
            seed=0,
        )

    def test_pool_paths_have_requested_hops(self, corpus):
        pool = path_pool(corpus, n_edges=4, pool_size=50, seed=1)
        assert all(len(p) == 5 for p in pool)

    def test_uniform_queries(self, corpus):
        queries = sample_path_queries(corpus, 20, 4, seed=2)
        assert len(queries) == 20
        assert all(len(q) == 4 for q in queries)

    def test_queries_hit_data(self, corpus):
        engine = GraphAnalyticsEngine()
        engine.load_columnar(corpus.record_ids(), corpus.to_columnar())
        queries = sample_path_queries(corpus, 20, 3, seed=3)
        hits = sum(len(engine.query(q)) for q in queries)
        assert hits > 0  # paths cut from walks must match their records

    def test_zipf_more_repetition_than_uniform(self, corpus):
        uniform = sample_path_queries(corpus, 60, 4, "uniform", seed=4)
        zipf = sample_path_queries(corpus, 60, 4, "zipf", zipf_s=1.5, seed=4)
        assert len(set(zipf)) < len(set(uniform))

    def test_unknown_distribution(self, corpus):
        with pytest.raises(ValueError):
            sample_path_queries(corpus, 5, 3, "gaussian")

    def test_dense_queries_sized_by_density(self):
        dense = generate_dense_corpus(
            ny_road_network(2500, seed=1), 20, density=0.2,
            universe_size=300, seed=0,
        )
        queries = sample_dense_queries(dense, 10, density=0.05, seed=5)
        assert all(len(q) == 15 for q in queries)

    def test_as_aggregate_queries(self, corpus):
        queries = sample_path_queries(corpus, 5, 3, seed=6)
        aggs = as_aggregate_queries(queries, "max")
        assert all(a.function == "max" for a in aggs)
        assert [a.query for a in aggs] == queries

    def test_deterministic_sampling(self, corpus):
        a = sample_path_queries(corpus, 10, 4, seed=7)
        b = sample_path_queries(corpus, 10, 4, seed=7)
        assert a == b


class TestDatasets:
    def test_specs_match_paper_parameters(self):
        assert DATASETS["NY"].min_edges == 35
        assert DATASETS["NY"].max_edges == 100
        assert DATASETS["GNU"].min_edges == 45
        assert DATASETS["NY"].universe_size == 1000
        assert DATASETS["NY"].paper_n_records == 320_000_000
        assert DATASETS["GNU"].paper_n_records == 100_000_000

    def test_build_with_explicit_count(self):
        corpus = build_dataset("NY", n_records=25, seed=1)
        assert corpus.n_records == 25

    def test_build_unknown_dataset(self):
        with pytest.raises(KeyError):
            build_dataset("NOPE")

    def test_gnu_dataset_builds(self):
        corpus = build_dataset("GNU", n_records=15, seed=1)
        assert corpus.n_records == 15
        assert len(corpus.universe) == 1000
