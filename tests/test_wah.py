"""Tests for the WAH-compressed bitmaps of ``benchmarks/_wah.py``, the
codec ``bench_ablation_bitmap_codec.py`` compares the dense bitmaps with."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._wah import (
    _FILL_BIT,
    _LITERAL_FLAG,
    _PAYLOAD_MASK,
    WahBitmap,
)
from repro.columnstore import Bitmap


class TestRoundtrip:
    def test_empty(self):
        dense = Bitmap.zeros(100)
        wah = WahBitmap.from_dense(dense)
        assert wah.to_dense() == dense
        assert wah.count() == 0

    def test_full(self):
        dense = Bitmap.ones(200)
        wah = WahBitmap.from_dense(dense)
        assert wah.to_dense() == dense
        assert wah.count() == 200

    def test_sparse(self):
        dense = Bitmap.from_indices(1000, [0, 63, 64, 500, 999])
        wah = WahBitmap.from_dense(dense)
        assert wah.to_dense() == dense
        assert wah.to_indices().tolist() == [0, 63, 64, 500, 999]

    def test_from_indices(self):
        wah = WahBitmap.from_indices(128, [5, 70])
        assert wah.count() == 2

    def test_zero_length(self):
        wah = WahBitmap.from_dense(Bitmap.zeros(0))
        assert wah.count() == 0
        assert wah.length == 0


class TestCompression:
    def test_sparse_compresses_below_dense(self):
        # 100k bits, 100 set: long zero fills dominate.
        dense = Bitmap.from_indices(100_000, range(0, 1000, 10))
        wah = WahBitmap.from_dense(dense)
        assert wah.nbytes() < dense.nbytes() / 5

    def test_dense_random_does_not_explode(self):
        rng = np.random.default_rng(0)
        indices = rng.choice(10_000, size=5_000, replace=False)
        dense = Bitmap.from_indices(10_000, sorted(indices))
        wah = WahBitmap.from_dense(dense)
        # Worst case: one literal per group + header bits.
        assert wah.nbytes() <= dense.nbytes() * 1.1

    def test_wah_count_uses_shared_popcount(self):
        bm = Bitmap.from_indices(1000, [0, 63, 64, 500, 999])
        assert WahBitmap.from_dense(bm).count() == bm.count() == 5


class TestAnd:
    def test_and_matches_dense(self):
        a = Bitmap.from_indices(500, [1, 2, 3, 100, 400])
        b = Bitmap.from_indices(500, [2, 3, 4, 400])
        wah = WahBitmap.from_dense(a) & WahBitmap.from_dense(b)
        assert wah.to_dense() == (a & b)

    def test_and_length_mismatch(self):
        with pytest.raises(ValueError):
            WahBitmap.from_dense(Bitmap.zeros(10)) & WahBitmap.from_dense(
                Bitmap.zeros(11)
            )

    def test_and_all(self):
        bitmaps = [
            WahBitmap.from_indices(100, [1, 2, 3]),
            WahBitmap.from_indices(100, [2, 3, 4]),
            WahBitmap.from_indices(100, [3, 4, 5]),
        ]
        assert WahBitmap.and_all(bitmaps).to_indices().tolist() == [3]

    def test_and_all_empty(self):
        with pytest.raises(ValueError):
            WahBitmap.and_all([])

    def test_equality(self):
        a = WahBitmap.from_indices(100, [5])
        b = WahBitmap.from_indices(100, [5])
        assert a == b


class TestNonCanonicalWords:
    """The public constructor accepts any decodable word stream; equivalent
    streams must normalize to one representation (regression: all-zero and
    all-one tail groups used to defeat ``__eq__``/``count``/``to_dense``)."""

    def test_all_one_tail_fill_equals_from_dense(self):
        # 10-bit all-ones as a fill word: the tail group's 53 padding bits
        # are implied set by the fill, but lie beyond the declared length.
        wah = WahBitmap(10, [_FILL_BIT | 1])
        assert wah == WahBitmap.from_dense(Bitmap.ones(10))
        assert wah.count() == 10
        assert wah.to_dense() == Bitmap.ones(10)

    def test_literal_with_set_padding_bits(self):
        wah = WahBitmap(5, [_LITERAL_FLAG | _PAYLOAD_MASK])
        assert wah.count() == 5
        assert wah == WahBitmap(5, [_FILL_BIT | 1])
        assert wah.to_dense() == Bitmap.ones(5)

    def test_truncated_stream_means_zero_tail(self):
        # One zero-fill group only covers bits 0..62; the remaining 137
        # bits are an implicit zero tail.
        wah = WahBitmap(200, [1])
        assert wah.to_dense() == Bitmap.zeros(200)
        assert wah.count() == 0
        assert wah == WahBitmap.from_dense(Bitmap.zeros(200))

    def test_empty_stream_is_all_zeros(self):
        assert WahBitmap(100, []) == WahBitmap.from_dense(Bitmap.zeros(100))

    def test_overlong_stream_is_truncated(self):
        assert WahBitmap(63, [1, 1, 1]) == WahBitmap(63, [1])
        assert WahBitmap(63, [1, 1, 1]).to_dense().length == 63

    def test_split_fill_runs_normalize_to_one(self):
        # Two adjacent zero fills of 1 group each == one fill of 2 groups.
        split = WahBitmap(126, [1, 1])
        merged = WahBitmap(126, [2])
        assert split == merged
        assert split._words == merged._words

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            WahBitmap(-1, [])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_words_roundtrip_stably(self, data):
        """Any decodable stream: reconstructing from the normalized words
        (or the dense round-trip) reproduces an equal bitmap."""
        length = data.draw(st.integers(min_value=0, max_value=300))
        words = data.draw(
            st.lists(
                st.one_of(
                    # literals (any payload, including padding bits)
                    st.integers(0, _PAYLOAD_MASK).map(lambda p: _LITERAL_FLAG | p),
                    # short fills of either polarity
                    st.tuples(st.integers(1, 8), st.booleans()).map(
                        lambda rf: (_FILL_BIT if rf[1] else 0) | rf[0]
                    ),
                ),
                max_size=8,
            )
        )
        wah = WahBitmap(length, words)
        assert wah.to_dense().length == length
        assert wah.count() == wah.to_dense().count()
        assert WahBitmap(length, wah._words) == wah
        assert WahBitmap.from_dense(wah.to_dense()) == wah


@st.composite
def bit_patterns(draw):
    length = draw(st.integers(min_value=1, max_value=400))
    indices = draw(st.sets(st.integers(min_value=0, max_value=length - 1)))
    return length, sorted(indices)


class TestProperties:
    @given(bit_patterns())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, pattern):
        length, indices = pattern
        dense = Bitmap.from_indices(length, indices)
        assert WahBitmap.from_dense(dense).to_dense() == dense

    @given(bit_patterns())
    @settings(max_examples=60, deadline=None)
    def test_count_matches(self, pattern):
        length, indices = pattern
        wah = WahBitmap.from_indices(length, indices)
        assert wah.count() == len(indices)

    @given(bit_patterns(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_compressed_and_equals_dense_and(self, pattern, data):
        length, a_idx = pattern
        b_idx = data.draw(st.sets(st.integers(min_value=0, max_value=length - 1)))
        a = Bitmap.from_indices(length, a_idx)
        b = Bitmap.from_indices(length, sorted(b_idx))
        compressed = WahBitmap.from_dense(a) & WahBitmap.from_dense(b)
        assert compressed.to_dense() == (a & b)
