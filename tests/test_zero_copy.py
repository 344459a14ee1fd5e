"""Zero-copy read path: mmap-backed bitmap attachments over saved layouts.

The process pool's workers never deserialize a relation — they attach to
the persisted generation directory with
:class:`~repro.columnstore.RelationBitmapReader` /
:class:`~repro.columnstore.BitmapAttachment`, which memory-map the packed
bitmap files read-only.  These tests pin the zero-copy contract: bitmaps
are views of the mapped file pages (no materialized copy), the mapping is
read-only (no write-back possible), and two attachments map the same
base file (shared page cache).  That every bitmap ANDs to the live
engine's answer is the property in ``test_one_and.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore import (
    BitmapAttachment,
    RelationBitmapReader,
    and_refs,
    load_relation,
    storage_generation,
)
from repro.core import GraphAnalyticsEngine
from repro.workloads import build_dataset, sample_path_queries


@pytest.fixture(scope="module")
def corpus():
    return build_dataset("NY", n_records=180, seed=9)


def _engine(corpus, shards=1):
    engine = GraphAnalyticsEngine(shards=shards)
    engine.load_columnar(corpus.record_ids(), corpus.to_columnar())
    queries = sample_path_queries(corpus, n_queries=2, n_edges=3, seed=5)
    engine.materialize_graph_views(queries, budget=1)
    return engine


def _view_name(engine) -> str:
    return next(iter(engine.graph_views))


def _memmap_base(bitmap) -> np.memmap:
    """Walk a bitmap's words down to the backing np.memmap (or fail)."""
    arr = np.asarray(bitmap.words())
    while not isinstance(arr, np.memmap):
        assert arr.base is not None, "bitmap words are not memmap-backed"
        arr = arr.base
    return arr


class TestRelationBitmapReader:
    def test_element_bitmap_is_memmap_backed_readonly(self, corpus, tmp_path):
        engine = _engine(corpus)
        engine.save(tmp_path)
        reader = RelationBitmapReader(tmp_path)
        edge_id = engine.catalog.get_id(next(iter(corpus.to_columnar())))
        base = _memmap_base(reader.ref_bitmap("element", edge_id))
        assert not base.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            base[0] = np.uint64(1)

    def test_no_write_back(self, corpus, tmp_path):
        """Attaching and reading every bitmap leaves the generation
        byte-identical on disk (the mapping can never dirty a page)."""
        engine = _engine(corpus)
        engine.save(tmp_path)
        snapshot = {
            f.relative_to(tmp_path): f.read_bytes()
            for f in tmp_path.rglob("*.npy")
        }
        reader = RelationBitmapReader(tmp_path)
        for edge in corpus.to_columnar():
            reader.ref_bitmap("element", engine.catalog.get_id(edge)).count()
        reader.ref_bitmap("graph-view", _view_name(engine)).count()
        for f, payload in snapshot.items():
            assert (tmp_path / f).read_bytes() == payload

    def test_two_attachments_share_base_file(self, corpus, tmp_path):
        """Two attachments of one generation map the same file — the OS
        page cache backs both (the cross-process sharing the pool relies
        on, observable in-process via the memmap filename)."""
        engine = _engine(corpus)
        engine.save(tmp_path)
        edge_id = engine.catalog.get_id(next(iter(corpus.to_columnar())))
        first = _memmap_base(RelationBitmapReader(tmp_path).ref_bitmap("element", edge_id))
        second = _memmap_base(RelationBitmapReader(tmp_path).ref_bitmap("element", edge_id))
        assert first.filename == second.filename
        assert first.filename is not None

    def test_missing_element_is_zeros(self, corpus, tmp_path):
        engine = _engine(corpus)
        engine.save(tmp_path)
        reader = RelationBitmapReader(tmp_path)
        assert reader.ref_bitmap("element", 10**6) is None


class TestBitmapAttachment:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_geometry_and_contents(self, corpus, tmp_path, shards):
        engine = _engine(corpus, shards=shards)
        engine.save(tmp_path)
        attachment = BitmapAttachment(tmp_path)
        assert attachment.n_shards == shards
        assert attachment.n_records == engine.n_records
        assert attachment.shard_starts == engine.relation.shard_starts()
        assert attachment.generation == storage_generation(tmp_path)
        edge_id = engine.catalog.get_id(next(iter(corpus.to_columnar())))
        merged = np.concatenate(
            [and_refs(r.ref_bitmap, [("element", edge_id)], r.n_records).to_indices() + s
             for r, s in zip(attachment.readers, attachment.shard_starts)]
        )
        assert merged.tolist() == engine.relation.ref_bitmap("element", edge_id).to_indices().tolist()

    def test_generation_advances_on_resave(self, corpus, tmp_path):
        engine = _engine(corpus, shards=2)
        engine.save(tmp_path)
        first = storage_generation(tmp_path)
        engine.save(tmp_path)
        assert storage_generation(tmp_path) == first + 1


class TestMmapModeLoad:
    def test_load_relation_mmap_mode(self, corpus, tmp_path):
        engine = _engine(corpus)
        engine.save(tmp_path)
        eager = load_relation(tmp_path)
        lazy = load_relation(tmp_path, verify=False, mmap_mode="r")
        assert lazy.n_records == eager.n_records
        for edge_id in eager.element_ids():
            assert lazy.ref_bitmap("element", edge_id) == eager.ref_bitmap("element", edge_id)
