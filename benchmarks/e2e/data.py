"""Corpus, workloads and request sequences — everything the daemon is fed.

The corpus is pinned (one NY-like corpus, the same for every ``--seed``)
so that store size, answer sizes and the paper's column counts mean the
same thing on every run; ``--seed`` decides which queries are asked, in
which order, and which records are appended.  Node labels are strings
(``n3625``) because integer labels have no text form and every request
here travels as query text.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

from repro.core import GraphAnalyticsEngine, GraphQuery, PathAggregationQuery
from repro.lang import unparse
from repro.workloads import generate_corpus, ny_road_network, path_pool
from wire import http_request

N_RECORDS = 24_000
UNIVERSE = 1_000
CORPUS_SEED = 20140324
# Candidate queries are cut from the corpus walks once, with a fixed seed;
# --seed then picks a pool out of the candidates.
FRAME_SEED = 7
FRAME_SIZE = 2_000
APPEND_BATCH = 16


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the daemon configuration it runs against.
    BENCHMARK.json and README.md say why each exists."""

    name: str
    shards: int
    exec_mode: str
    jobs: int
    workers: int | None
    cache_mb: int
    n_edges: int
    pool_size: int
    zipf: float | None          # None = uniform over the pool
    rows: tuple[int, int]       # answer-size band the pool is cut from
    fetch_measures: bool = True
    aggregate: bool = False
    clients: int = 1
    graph_views: int = 0        # POST /materialize budgets during set-up
    agg_views: int = 0
    reads_per_append: int = 0   # 0 = read-only loop
    # One daemon per repetition, so every repetition starts from the saved
    # state and set-up is sampled as often.  Off where set-up dwarfs the
    # repetition itself.
    fresh_daemon: bool = True

    def daemon_flags(self) -> list[str]:
        flags = [
            "--shards", str(self.shards),
            "--exec-mode", self.exec_mode,
            "--jobs", str(self.jobs),
            "--cache-mb", str(self.cache_mb),
        ]
        if self.workers is not None:
            flags += ["--workers", str(self.workers)]
        return flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # Figure 3a shape: measure gather and NDJSON row encoding do
            # nearly all the work.
            name="wide_rows",
            shards=4, exec_mode="thread", jobs=2, workers=None, cache_mb=64,
            n_edges=2, pool_size=16, zipf=1.1, rows=(560, 640),
        ),
        Workload(
            # Figure 3b shape: per-request fixed costs do all the work and
            # encoding none.
            name="narrow_fold",
            shards=8, exec_mode="serial", jobs=1, workers=None, cache_mb=0,
            n_edges=8, pool_size=512, zipf=None, rows=(1, 8),
            fetch_measures=False,
        ),
        Workload(
            # Figure 6/7 shape: view rewrite, aggregate compute, and the only
            # path across the process pool.  No cache: with one, the parent
            # answers every repeated query itself and the pool sits idle.
            name="agg_views_proc",
            shards=4, exec_mode="process", jobs=2, workers=2, cache_mb=0,
            n_edges=4, pool_size=32, zipf=1.1, rows=(100, 135),
            aggregate=True, clients=2, graph_views=16, agg_views=16,
            # In process mode every /materialize re-saves the whole store
            # for the workers: ~10 s of set-up against ~3 s repetitions.
            fresh_daemon=False,
        ),
        Workload(
            # Writes beside reads: whatever speeds reads by taxing appends or
            # invalidation loses here what it wins on wide_rows.
            name="mixed_append",
            shards=4, exec_mode="thread", jobs=2, workers=None, cache_mb=64,
            n_edges=3, pool_size=64, zipf=1.1, rows=(225, 285),
            graph_views=8, reads_per_append=24,
        ),
    )
}


# -- corpus and store ---------------------------------------------------------


def build_corpus():
    """The pinned string-labelled corpus; returns ``(corpus, seconds)``."""
    started = time.perf_counter()
    network = ny_road_network(4000, seed=7)
    network = nx.relabel_nodes(network, {n: f"n{n}" for n in network.nodes()})
    corpus = generate_corpus(
        network, N_RECORDS, universe_size=UNIVERSE, seed=CORPUS_SEED
    )
    return corpus, time.perf_counter() - started


def save_store(corpus, directory: Path) -> dict:
    """Bulk-load the corpus and save it unsharded; every daemon and the
    replay load this one store (``--shards`` re-partitions at load)."""
    t0 = time.perf_counter()
    columns = corpus.to_columnar()
    t1 = time.perf_counter()
    engine = GraphAnalyticsEngine()
    engine.load_columnar(corpus.record_ids(), columns)
    t2 = time.perf_counter()
    engine.save(directory)
    t3 = time.perf_counter()
    nbytes = sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())
    return {
        "columnar_s": t1 - t0,
        "load_columnar_s": t2 - t1,
        "save_s": t3 - t2,
        "store_bytes": nbytes,
    }


def presence(corpus) -> tuple[np.ndarray, dict]:
    """``matrix[edge, record]`` = the record holds the edge.  The harness's
    own view of the data: sizes answer bands without touching the engine."""
    matrix = np.zeros((len(corpus.universe), corpus.n_records), dtype=bool)
    for row, edge_indices in enumerate(corpus.record_edges):
        matrix[edge_indices, row] = True
    return matrix, {edge: i for i, edge in enumerate(corpus.universe)}


# -- requests -----------------------------------------------------------------


@dataclass
class Op:
    """One operation: the exact bytes written to the socket, plus what the
    checks and the replay need to know about it."""

    kind: str                 # "query" | "aggregate" | "append"
    raw: bytes                # full HTTP request
    body: bytes               # JSON body alone (the replay parses it)
    query: int = -1           # pool index for reads
    n_records: int = 0        # batch size for appends


def _post(kind: str, document: dict, **fields) -> Op:
    body = json.dumps(document, separators=(",", ":")).encode()
    return Op(kind, http_request("POST", f"/{kind}", body), body, **fields)


@dataclass
class Plan:
    """Everything one (workload, seed) pair sends."""

    workload: Workload
    queries: list             # pool of core query objects
    texts: list[str]          # their canonical text
    warmup: list[Op]
    ops: list[Op]             # the repeated sequence (reads and appends)
    view_workload: list[str]  # texts POSTed to /materialize


def _pool(workload: Workload, corpus, matrix, edge_index, rng) -> list[GraphQuery]:
    frame = path_pool(corpus, workload.n_edges, pool_size=FRAME_SIZE, seed=FRAME_SEED)
    lo, hi = workload.rows
    banded = []
    for nodes in frame:
        mask = matrix[edge_index[(nodes[0], nodes[1])]]
        for edge in zip(nodes[1:-1], nodes[2:]):
            mask = mask & matrix[edge_index[edge]]
        if lo <= int(mask.sum()) <= hi:
            banded.append(nodes)
    if len(banded) < workload.pool_size:
        raise ValueError(
            f"{workload.name}: only {len(banded)} candidate queries answer "
            f"with {lo}-{hi} rows; need {workload.pool_size}"
        )
    chosen = rng.choice(len(banded), size=workload.pool_size, replace=False)
    return [GraphQuery.from_node_chain(*banded[i]) for i in chosen]


def _append_ops(corpus, rng, n_batches: int) -> list[Op]:
    """Fresh records shaped like the corpus: the edge set of a random
    corpus record with newly drawn measures, under ids no record has."""
    ops = []
    for b in range(n_batches):
        records = []
        for j, row in enumerate(rng.integers(corpus.n_records, size=APPEND_BATCH)):
            edges = corpus.record_edges[row].tolist()
            values = rng.uniform(0.0, 10.0, size=len(edges)).tolist()
            records.append(
                {
                    "id": f"a{b}-{j}",
                    "measures": [
                        [*corpus.universe[e], v] for e, v in zip(edges, values)
                    ],
                }
            )
        ops.append(_post("append", {"records": records}, n_records=APPEND_BATCH))
    return ops


def build_plan(
    workload: Workload, corpus, matrix, edge_index, seed: int, n_reads: int,
    n_appends: int,
) -> Plan:
    """The seed-determined sequence: ``n_reads`` reads drawn from the pool
    (zipf by pool rank, or uniform), an append after every
    ``reads_per_append`` reads where the workload asks for one (at most
    ``n_appends``; the sequence stops there)."""
    rng = np.random.default_rng([seed, sum(workload.name.encode())])
    queries = _pool(workload, corpus, matrix, edge_index, rng)
    if workload.aggregate:
        statements = [PathAggregationQuery(q, "sum") for q in queries]
        kind = "aggregate"
    else:
        statements = list(queries)
        kind = "query"
    texts = [unparse(s) for s in statements]
    reads = [
        _post(kind, {"q": t, "fetch_measures": workload.fetch_measures}, query=i)
        for i, t in enumerate(texts)
    ]
    if workload.zipf is None:
        weights = np.ones(len(reads))
    else:
        weights = 1.0 / np.power(np.arange(1, len(reads) + 1), workload.zipf)
    draws = rng.choice(len(reads), size=n_reads, p=weights / weights.sum())
    ops: list[Op] = []
    if workload.reads_per_append:
        # seed+1 feeds the appended records: they share nothing with the draws.
        append_rng = np.random.default_rng([seed + 1, sum(workload.name.encode())])
        appends = _append_ops(corpus, append_rng, n_appends)
        for b, batch in enumerate(appends):
            cycle = draws[b * workload.reads_per_append:(b + 1) * workload.reads_per_append]
            ops.extend(reads[i] for i in cycle)
            ops.append(batch)
    else:
        ops.extend(reads[i] for i in draws)
    # Warm-up asks every pool query once (at least 128 requests), so the
    # plan memo and the bitmap cache are in their steady state when timing
    # starts.
    passes = -(-128 // len(reads))
    return Plan(
        workload=workload,
        queries=statements,
        texts=texts,
        warmup=reads * passes,
        ops=ops,
        view_workload=[unparse(q) for q in queries],
    )
