"""Zero-copy read path: mmap-backed bitmap attachments over saved stores.

The process pool's workers never deserialize a relation — they attach to
the persisted generation directory with
:class:`~repro.columnstore.RelationBitmapReader`, which memory-maps the
packed bitmap files read-only, and fold whatever record range a task
names out of the one mapping.  These tests pin the zero-copy contract:
bitmaps are views of the mapped file pages (no materialized copy), the
mapping is read-only (no write-back possible), two attachments map the
same base file (shared page cache), and a range at a word-aligned cut is
a view of the same pages.  That every bitmap ANDs to
the live engine's answer is the property in ``test_one_and.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore import RelationBitmapReader, and_refs, storage_generation
from repro.core import GraphAnalyticsEngine
from repro.core.engine import range_tasks
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
    """The reader as a worker attaches it: one reader per generation,
    folding the record ranges of the runner's cut."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_geometry_and_contents(self, corpus, tmp_path, shards):
        engine = _engine(corpus, shards=shards)
        engine.save(tmp_path)
        reader = RelationBitmapReader(tmp_path)
        assert reader.n_records == engine.n_records
        assert reader.generation == storage_generation(tmp_path)
        edge_id = engine.catalog.get_id(next(iter(corpus.to_columnar())))
        tasks = range_tasks(engine.n_records, shards)
        merged = np.concatenate([
            and_refs(reader.ref_bitmap, [("element", edge_id)], stop - start,
                     start=start).to_indices() + start
            for _, start, stop in tasks
        ])
        assert merged.tolist() == engine.relation.ref_bitmap("element", edge_id).to_indices().tolist()
        view = _view_name(engine)
        for _, start, stop in tasks:
            segment = and_refs(reader.ref_bitmap, [("graph-view", view)], stop - start, start=start)
            assert segment == engine.relation.fold([("graph-view", view)], None, start, stop)

    def test_word_aligned_segments_are_views_of_the_mapping(self, tmp_path):
        """Past 64 records a range the runner's cuts fall on words (here
        64/64/72), so every range of a mapped bitmap is its pages."""
        corpus = build_dataset("NY", n_records=200, seed=9)
        engine = _engine(corpus, shards=3)
        engine.save(tmp_path)
        reader = RelationBitmapReader(tmp_path)
        tasks = range_tasks(engine.n_records, 3)
        assert [stop - start for _, start, stop in tasks] == [64, 64, 72]
        edge_id = engine.catalog.get_id(next(iter(corpus.to_columnar())))
        mapped = reader.ref_bitmap("element", edge_id)
        whole = _memmap_base(mapped)
        for _, start, stop in tasks:
            segment = mapped.slice(start, stop)
            assert np.shares_memory(segment.words(), whole)
            assert not segment.words().flags.writeable

    def test_generation_advances_on_resave(self, corpus, tmp_path):
        engine = _engine(corpus, shards=2)
        engine.save(tmp_path)
        first = storage_generation(tmp_path)
        engine.save(tmp_path)
        assert storage_generation(tmp_path) == first + 1
