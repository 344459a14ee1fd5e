"""Ablation: dense packed bitmaps vs WAH run-length compression.

The paper's bitmap columns are ~8.5% dense (a record holds ~85 of 1000
edges), the classic regime for compressed bitmap indexes (O'Neil & Quass
[4]).  This ablation loads the NY corpus bitmaps in both codecs and
compares (a) storage bytes and (b) the time to AND a query's bitmaps —
quantifying the trade the paper implicitly makes by using the column
store's plain bitmaps.
"""

from __future__ import annotations

import pytest

from _data import cached_engine, emit, ny_corpus, scaled
from _wah import WahBitmap
from repro.columnstore import Bitmap
from repro.workloads import sample_path_queries

N_RECORDS = scaled(3000)
N_QUERIES = 20
QUERY_EDGES = 8

_results: dict[str, float] = {}
_sizes: dict[str, int] = {}


def _query_bitmaps(engine, queries):
    out = []
    for query in queries:
        bitmaps = []
        for element in sorted(query.elements, key=repr):
            edge_id = engine.catalog.get_id(element)
            bitmaps.append(engine.relation.column_for_persistence(edge_id).validity)
        out.append(bitmaps)
    return out


def test_dense_and(benchmark):
    engine = cached_engine("NY", N_RECORDS)
    queries = sample_path_queries(ny_corpus(N_RECORDS), N_QUERIES, QUERY_EDGES, seed=24)
    bitmap_lists = _query_bitmaps(engine, queries)
    benchmark(
        lambda: sum(Bitmap.and_all(bs).count() for bs in bitmap_lists)
    )
    _results["dense"] = benchmark.stats.stats.mean
    _sizes["dense"] = sum(
        engine.relation.column_for_persistence(i).validity.nbytes()
        for i in engine.relation.element_ids()
    )


def test_wah_and(benchmark):
    engine = cached_engine("NY", N_RECORDS)
    queries = sample_path_queries(ny_corpus(N_RECORDS), N_QUERIES, QUERY_EDGES, seed=24)
    dense_lists = _query_bitmaps(engine, queries)
    wah_lists = [
        [WahBitmap.from_dense(b) for b in bitmaps] for bitmaps in dense_lists
    ]
    benchmark(
        lambda: sum(WahBitmap.and_all(bs).count() for bs in wah_lists)
    )
    _results["wah"] = benchmark.stats.stats.mean
    _sizes["wah"] = sum(
        WahBitmap.from_dense(
            engine.relation.column_for_persistence(i).validity
        ).nbytes()
        for i in engine.relation.element_ids()
    )


def test_wah_correctness():
    """The codecs must agree on every query's answer."""
    engine = cached_engine("NY", N_RECORDS)
    queries = sample_path_queries(ny_corpus(N_RECORDS), 5, QUERY_EDGES, seed=24)
    for bitmaps in _query_bitmaps(engine, queries):
        dense = Bitmap.and_all(bitmaps)
        wah = WahBitmap.and_all([WahBitmap.from_dense(b) for b in bitmaps])
        assert wah.to_dense() == dense


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit("\n=== Ablation: bitmap codec (dense vs WAH) ===")
    for codec in ("dense", "wah"):
        if codec in _results:
            emit(
                f"  {codec:>6}: AND time {_results[codec]:.5f} s, "
                f"edge-bitmap storage {_sizes[codec] / 1e6:.2f} MB"
            )
    # The finding that VALIDATES the paper's plain-bitmap choice: at the
    # edge bitmaps' ~7% density, 63-bit all-zero groups are rare, so WAH
    # buys no space and pays a large AND penalty.
    if len(_sizes) == 2:
        assert _sizes["wah"] >= _sizes["dense"] * 0.8
        assert _results["wah"] > _results["dense"]
    # Where WAH DOES win: very sparse bitmaps, e.g. a selective graph
    # view's column (the conjunction of many edges).
    engine = cached_engine("NY", N_RECORDS)
    queries = sample_path_queries(ny_corpus(N_RECORDS), 5, QUERY_EDGES, seed=24)
    for bitmaps in _query_bitmaps(engine, queries)[:1]:
        view_bitmap = Bitmap.and_all(bitmaps)
        compressed = WahBitmap.from_dense(view_bitmap)
        emit(
            f"  sparse view bitmap ({view_bitmap.count()} of "
            f"{view_bitmap.length} set): dense {view_bitmap.nbytes()} B, "
            f"WAH {compressed.nbytes()} B"
        )
        assert compressed.nbytes() < view_bitmap.nbytes()
