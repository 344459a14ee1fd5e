"""Graph-record corpus generation (Section 7.1).

From an underlying network the paper synthesizes millions of graph records
"by invoking multiple random walk processes in the underlying graphs" and
assigning a random real measure to each edge.  This module reproduces
that pipeline at configurable scale:

1. restrict the network to an **edge universe** of a fixed size (the
   "distinct number of edge ids" knob of Table 2 — default 1000);
2. run self-avoiding random walks inside the universe to form records of
   ``min_edges``–``max_edges`` edges;
3. draw a uniform random measure per traversed edge.

The draws are numpy's ``Generator`` stream for the seed, replayed from raw
PCG64 words fetched in blocks (numpy's 32-bit Lemire bounded draw, and
``next_double`` for measures): a scalar ``rng.integers`` costs microseconds
and a corpus takes one per walk step.  The corpus is bit-identical to that
of plain ``rng`` calls; ``tests/test_workloads.py`` pins it by digest.

The corpus keeps both the walks (the query-path pool of Section 7.1) and a
columnar layout for fast engine loading; :meth:`RecordCorpus.to_records`
yields :class:`~repro.core.record.GraphRecord` objects for the baselines.

For the density experiment (Figures 3(c), 4) records are instead random
edge *subsets* of the universe sized ``density × universe`` —
:func:`generate_dense_corpus` — since a fixed-size universe cannot host
arbitrarily long self-avoiding walks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx
import numpy as np

from ..core.record import Edge, GraphRecord

__all__ = ["RecordCorpus", "generate_corpus", "generate_dense_corpus", "sample_edge_universe"]


@dataclass
class RecordCorpus:
    """A generated collection of graph records plus its provenance."""

    universe: list[Edge]
    # Per record: indices into ``universe`` and parallel measure values.
    record_edges: list[np.ndarray]
    record_values: list[np.ndarray]
    # Node sequences of the generating walks (empty for dense corpora);
    # the pool that query workloads sample paths from.
    walks: list[list[Hashable]] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return len(self.record_edges)

    def n_measures(self) -> int:
        """Total measure values across all records (Table 2's row)."""
        return int(sum(a.size for a in self.record_edges))

    def edges_per_record(self) -> tuple[int, int, float]:
        """(min, max, average) record sizes, as reported in Table 2."""
        sizes = np.array([a.size for a in self.record_edges])
        return int(sizes.min()), int(sizes.max()), float(sizes.mean())

    def record_ids(self) -> list[str]:
        return [f"r{i}" for i in range(self.n_records)]

    def to_columnar(self) -> dict[Edge, tuple[np.ndarray, np.ndarray]]:
        """Columnar layout: per universe edge in order of first appearance,
        (row indices, values).  One stable (radix) sort of all cells on a
        narrow edge-id key, cut by ``bincount``: the edge-table → column route."""
        if not self.record_edges:
            return {}
        edges = np.concatenate(self.record_edges)
        order = np.argsort(edges.astype(np.min_scalar_type(len(self.universe))), kind="stable")
        sizes = [a.size for a in self.record_edges]
        rows = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)[order]
        values = np.concatenate(self.record_values)[order]
        counts = np.bincount(edges, minlength=len(self.universe))
        ends = np.cumsum(counts)
        starts = ends - counts
        present = np.flatnonzero(counts)
        # Stability puts each edge's first cell at its run's start.
        present = present[np.argsort(order[starts[present]])]
        return {
            self.universe[e]: (rows[starts[e]:ends[e]], values[starts[e]:ends[e]])
            for e in present.tolist()
        }

    def to_records(self) -> Iterator[GraphRecord]:
        """Materialize records one by one (baseline-loading path)."""
        for i, (edge_indices, values) in enumerate(
            zip(self.record_edges, self.record_values)
        ):
            measures = {
                self.universe[edge_index]: value
                for edge_index, value in zip(edge_indices.tolist(), values.tolist())
            }
            yield GraphRecord(f"r{i}", measures)


def sample_edge_universe(
    network: nx.DiGraph, universe_size: int, seed: int = 0
) -> list[Edge]:
    """A connected edge universe of ``universe_size`` edges.

    Breadth-first edge collection from a random start gives a compact,
    well-connected sub-network — walks inside it stay long, as record
    generation requires.
    """
    rng = np.random.default_rng(seed)
    nodes = list(network.nodes())
    if not nodes:
        raise ValueError("network has no nodes")
    start = nodes[int(rng.integers(len(nodes)))]
    chosen: list[Edge] = []
    seen_edges: set[Edge] = set()
    frontier = [start]
    visited = {start}
    while frontier and len(chosen) < universe_size:
        next_frontier: list = []
        for node in frontier:
            for successor in network.successors(node):
                edge = (node, successor)
                if edge not in seen_edges:
                    seen_edges.add(edge)
                    chosen.append(edge)
                    if len(chosen) >= universe_size:
                        return chosen
                if successor not in visited:
                    visited.add(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    if len(chosen) < universe_size:
        raise ValueError(
            f"network too small: reached only {len(chosen)} of "
            f"{universe_size} requested universe edges"
        )
    return chosen


def generate_corpus(
    network: nx.DiGraph,
    n_records: int,
    min_edges: int = 35,
    max_edges: int = 100,
    universe_size: int = 1000,
    seed: int = 0,
    measure_low: float = 0.0,
    measure_high: float = 10.0,
) -> RecordCorpus:
    """Random-walk record corpus, the Section 7.1 generation pipeline."""
    if min_edges < 1 or max_edges < min_edges:
        raise ValueError("need 1 <= min_edges <= max_edges")
    rng = np.random.default_rng(seed)
    universe = sample_edge_universe(network, universe_size, seed=seed)
    adjacency: dict[Hashable, list[tuple[Hashable, int]]] = {}
    for i, (u, v) in enumerate(universe):
        adjacency.setdefault(u, []).append((v, i))
    start_nodes = sorted(adjacency, key=repr)
    if n_records and not start_nodes:
        raise ValueError("empty edge universe")
    # Walk over integer node ids: start nodes first, then the sinks.
    labels = start_nodes + list(dict.fromkeys(v for _, v in universe if v not in adjacency))
    node_id = {label: n for n, label in enumerate(labels)}
    successors = [[(node_id[v], i) for v, i in adjacency.get(u, [])] for u in labels]

    draw = _RawStream(rng)
    integers = draw.integers
    record_edges: list[np.ndarray] = []
    record_values: list[np.ndarray] = []
    walk_ids: list[list[int]] = []
    stamp = [0] * len(labels)  # stamp[node] == mark: visited by this walk
    mark = 0
    max_walks_per_record = 40
    for _ in range(n_records):
        # One record = the union of multiple random-walk processes, each
        # self-avoiding, run until the record reaches its target size (the
        # paper's "invoking multiple random walk processes").
        target = min_edges + integers(max_edges + 1 - min_edges)
        edges: dict[int, None] = {}
        for _ in range(max_walks_per_record):
            if len(edges) >= target:
                break
            node = integers(len(start_nodes))
            walk = [node]
            mark += 1
            stamp[node] = mark
            while len(edges) < target:
                options = []
                for option in successors[node]:
                    if stamp[option[0]] != mark:
                        options.append(option)
                if not options:
                    break
                node, i = options[integers(len(options))]
                walk.append(node)
                edges[i] = None
                stamp[node] = mark
            if len(walk) >= 2:
                walk_ids.append(walk)
        if not edges:
            continue
        record_edges.append(np.fromiter(edges, dtype=np.int64, count=len(edges)))
        record_values.append(draw.uniform(measure_low, measure_high, len(edges)))
    return RecordCorpus(
        universe=universe,
        record_edges=record_edges,
        record_values=record_values,
        walks=[[labels[n] for n in walk] for walk in walk_ids],
    )


class _RawStream:
    """``rng.integers(n)`` and ``rng.uniform(low, high, size)``, replayed
    bit for bit from blocks of the bit generator's raw 64-bit words."""

    BLOCK = 1 << 14

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        self._words = np.empty(0, dtype=np.uint64)
        self._halves: list[int] = []  # per word: its low half, its high half
        self._pos = 0  # next half; odd while a word's high half is pending

    def _refill(self, n_words: int) -> None:
        start = self._pos // 2  # keep the word whose high half is pending
        words = self._raw(max(self.BLOCK, n_words))
        self._words = np.concatenate([self._words[start:], words])
        # Keep old halves (``uniform`` moves a pending one); "<u4" puts low first.
        self._halves = self._halves[2 * start:] + words.astype("<u8").view("<u4").tolist()
        self._pos %= 2

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            if self._pos == len(self._halves):
                self._refill(1)
            m = self._halves[self._pos] * n
            self._pos += 1
            # Lemire: reject a low half under 2**32 % n (< n: rarely computed).
            if m & 0xFFFFFFFF >= n or m & 0xFFFFFFFF >= (1 << 32) % n:
                return m >> 32

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        if (self._pos + 1) // 2 + size > self._words.size:
            self._refill(size)
        first = (self._pos + 1) // 2
        words = self._words[first:first + size]
        if self._pos % 2:
            # The pending high half moves past the words taken.
            self._halves[self._pos + 2 * size] = self._halves[self._pos]
        self._pos += 2 * size
        return low + (high - low) * ((words >> np.uint64(11)) * 2.0**-53)


def generate_dense_corpus(
    network: nx.DiGraph,
    n_records: int,
    density: float,
    universe_size: int = 1000,
    seed: int = 0,
    measure_low: float = 0.0,
    measure_high: float = 10.0,
) -> RecordCorpus:
    """Density-controlled corpus: each record uses ``density × universe``
    random universe edges (Figures 3(c) and 4)."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    universe = sample_edge_universe(network, universe_size, seed=seed)
    edges_per_record = max(1, round(density * len(universe)))
    record_edges: list[np.ndarray] = []
    record_values: list[np.ndarray] = []
    for _ in range(n_records):
        chosen = rng.choice(len(universe), size=edges_per_record, replace=False)
        chosen.sort()
        values = rng.uniform(measure_low, measure_high, size=edges_per_record)
        record_edges.append(chosen.astype(np.int64))
        record_values.append(values)
    return RecordCorpus(
        universe=universe,
        record_edges=record_edges,
        record_values=record_values,
        walks=[],
    )
