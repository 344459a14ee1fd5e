"""Unit and property tests for the packed bitmap engine."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import Bitmap
from repro.columnstore import bitmap as bitmap_module


def lut_count(bm: Bitmap) -> int:
    """``count()`` on the portable byte-LUT path (the numpy < 2.0 one)."""
    with mock.patch.object(bitmap_module, "_HAS_BITWISE_COUNT", False):
        return bm.count()


class TestConstruction:
    def test_zeros_has_no_set_bits(self):
        bm = Bitmap.zeros(130)
        assert bm.count() == 0
        assert not bm.any()

    def test_ones_has_all_bits(self):
        bm = Bitmap.ones(130)
        assert bm.count() == 130
        assert bm.all()

    def test_ones_masks_tail_past_length(self):
        bm = Bitmap.ones(65)
        assert bm.count() == 65
        assert bm.to_indices().max() == 64

    def test_from_indices_roundtrip(self):
        bm = Bitmap.from_indices(200, [0, 63, 64, 127, 199])
        assert bm.to_indices().tolist() == [0, 63, 64, 127, 199]

    def test_from_indices_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            Bitmap.from_indices(10, [10])
        with pytest.raises(IndexError):
            Bitmap.from_indices(10, [-1])

    def test_from_indices_empty(self):
        assert Bitmap.from_indices(10, []).count() == 0

    def test_from_bools(self):
        bm = Bitmap.from_bools([True, False, True, True])
        assert bm.length == 4
        assert bm.to_indices().tolist() == [0, 2, 3]

    def test_from_bools_empty(self):
        bm = Bitmap.from_bools([])
        assert bm.length == 0
        assert bm.count() == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(-1)

    def test_zero_length(self):
        bm = Bitmap.zeros(0)
        assert bm.count() == 0
        assert bm.to_indices().size == 0


class TestAccess:
    def test_getitem(self):
        bm = Bitmap.from_indices(100, [5, 64])
        assert bm[5] and bm[64]
        assert not bm[6]

    def test_getitem_negative_index(self):
        bm = Bitmap.from_indices(10, [9])
        assert bm[-1]

    def test_getitem_out_of_range(self):
        with pytest.raises(IndexError):
            Bitmap.zeros(10)[10]

    def test_len(self):
        assert len(Bitmap.zeros(77)) == 77

    def test_to_bools(self):
        flags = [True, False, False, True, True]
        assert Bitmap.from_bools(flags).to_bools().tolist() == flags

    def test_iter_indices(self):
        bm = Bitmap.from_indices(10, [1, 7])
        assert list(bm.iter_indices()) == [1, 7]

    def test_repr_truncates(self):
        bm = Bitmap.from_indices(100, range(20))
        assert "..." in repr(bm)


class TestAlgebra:
    def test_and(self):
        a = Bitmap.from_indices(100, [1, 2, 3, 70])
        b = Bitmap.from_indices(100, [2, 3, 4, 71])
        assert (a & b).to_indices().tolist() == [2, 3]

    def test_or(self):
        a = Bitmap.from_indices(100, [1, 70])
        b = Bitmap.from_indices(100, [2, 70])
        assert (a | b).to_indices().tolist() == [1, 2, 70]

    def test_xor(self):
        a = Bitmap.from_indices(10, [1, 2])
        b = Bitmap.from_indices(10, [2, 3])
        assert (a ^ b).to_indices().tolist() == [1, 3]

    def test_sub_is_and_not(self):
        a = Bitmap.from_indices(10, [1, 2, 3])
        b = Bitmap.from_indices(10, [2])
        assert (a - b).to_indices().tolist() == [1, 3]

    def test_invert_respects_length(self):
        a = Bitmap.from_indices(70, [0])
        inv = ~a
        assert inv.count() == 69
        assert not inv[0]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Bitmap.zeros(10) & Bitmap.zeros(11)

    def test_and_all(self):
        bms = [
            Bitmap.from_indices(50, [1, 2, 3]),
            Bitmap.from_indices(50, [2, 3, 4]),
            Bitmap.from_indices(50, [3, 4, 5]),
        ]
        assert Bitmap.and_all(bms).to_indices().tolist() == [3]

    def test_and_all_single(self):
        bm = Bitmap.from_indices(10, [4])
        assert Bitmap.and_all([bm]) == bm

    def test_and_all_empty_raises(self):
        with pytest.raises(ValueError):
            Bitmap.and_all([])

    def test_or_all(self):
        bms = [Bitmap.from_indices(10, [i]) for i in range(3)]
        assert Bitmap.or_all(bms).to_indices().tolist() == [0, 1, 2]

    def test_or_all_empty_raises(self):
        with pytest.raises(ValueError):
            Bitmap.or_all([])

    def test_and_all_does_not_mutate_inputs(self):
        a = Bitmap.from_indices(10, [1, 2])
        b = Bitmap.from_indices(10, [2])
        Bitmap.and_all([a, b])
        assert a.to_indices().tolist() == [1, 2]


class TestSetPredicates:
    def test_isdisjoint(self):
        a = Bitmap.from_indices(10, [1])
        b = Bitmap.from_indices(10, [2])
        assert a.isdisjoint(b)
        assert not a.isdisjoint(a)

    def test_issubset(self):
        small = Bitmap.from_indices(10, [1, 2])
        big = Bitmap.from_indices(10, [1, 2, 3])
        assert small.issubset(big)
        assert not big.issubset(small)

    def test_equality_and_hash(self):
        a = Bitmap.from_indices(10, [3])
        b = Bitmap.from_indices(10, [3])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Bitmap.from_indices(10, [4])
        assert a != Bitmap.from_indices(11, [3])


class TestDerivation:
    def test_set_returns_copy(self):
        a = Bitmap.zeros(10)
        b = a.set(3)
        assert not a[3] and b[3]

    def test_clear_returns_copy(self):
        a = Bitmap.ones(10)
        b = a.clear(3)
        assert a[3] and not b[3]

    def test_set_out_of_range(self):
        with pytest.raises(IndexError):
            Bitmap.zeros(5).set(5)

    def test_resized_extend(self):
        a = Bitmap.from_indices(10, [9])
        b = a.resized(100)
        assert b.length == 100
        assert b.to_indices().tolist() == [9]

    def test_resized_truncate_masks_tail(self):
        a = Bitmap.from_indices(100, [5, 99])
        b = a.resized(50)
        assert b.to_indices().tolist() == [5]

    def test_nbytes(self):
        assert Bitmap.zeros(64).nbytes() == 8
        assert Bitmap.zeros(65).nbytes() == 16

    def test_words_readonly(self):
        words = Bitmap.zeros(10).words()
        with pytest.raises(ValueError):
            words[0] = 1


class TestBuilder:
    """A bitmap grows a bit per appended record through ``extended``."""

    def test_builder_appends(self):
        bm = Bitmap.zeros(0).extended([True]).extended([False]).extended([True, True])
        assert len(bm) == 4
        assert bm.to_indices().tolist() == [0, 2, 3]

    def test_builder_empty(self):
        assert Bitmap.zeros(0).extended([]).length == 0


@st.composite
def index_sets(draw, max_length=300):
    length = draw(st.integers(min_value=1, max_value=max_length))
    indices = draw(st.sets(st.integers(min_value=0, max_value=length - 1)))
    return length, sorted(indices)


class TestProperties:
    """Bitmap algebra must agree with Python set algebra."""

    @given(index_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_and_matches_set_intersection(self, pair, data):
        length, a_idx = pair
        b_idx = data.draw(st.sets(st.integers(min_value=0, max_value=length - 1)))
        a = Bitmap.from_indices(length, a_idx)
        b = Bitmap.from_indices(length, sorted(b_idx))
        assert set((a & b).to_indices().tolist()) == set(a_idx) & b_idx

    @given(index_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_or_matches_set_union(self, pair, data):
        length, a_idx = pair
        b_idx = data.draw(st.sets(st.integers(min_value=0, max_value=length - 1)))
        a = Bitmap.from_indices(length, a_idx)
        b = Bitmap.from_indices(length, sorted(b_idx))
        assert set((a | b).to_indices().tolist()) == set(a_idx) | b_idx

    @given(index_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sub_matches_set_difference(self, pair, data):
        length, a_idx = pair
        b_idx = data.draw(st.sets(st.integers(min_value=0, max_value=length - 1)))
        a = Bitmap.from_indices(length, a_idx)
        b = Bitmap.from_indices(length, sorted(b_idx))
        assert set((a - b).to_indices().tolist()) == set(a_idx) - b_idx

    @given(index_sets())
    @settings(max_examples=60, deadline=None)
    def test_count_matches_cardinality(self, pair):
        length, indices = pair
        assert Bitmap.from_indices(length, indices).count() == len(indices)

    @given(index_sets())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_indices(self, pair):
        length, indices = pair
        bm = Bitmap.from_indices(length, indices)
        assert bm.to_indices().tolist() == indices

    @given(index_sets())
    @settings(max_examples=60, deadline=None)
    def test_double_invert_is_identity(self, pair):
        length, indices = pair
        bm = Bitmap.from_indices(length, indices)
        assert ~~bm == bm

    @given(index_sets())
    @settings(max_examples=40, deadline=None)
    def test_demorgan(self, pair):
        length, indices = pair
        a = Bitmap.from_indices(length, indices)
        b = Bitmap.from_indices(length, [i for i in range(length) if i % 3 == 0])
        assert ~(a & b) == (~a | ~b)
        assert ~(a | b) == (~a & ~b)


class TestPopcountPaths:
    """``count()`` uses ``np.bitwise_count`` on numpy >= 2.0 and a byte
    LUT otherwise; both paths must agree bit-for-bit."""

    def test_fast_path_selected_on_modern_numpy(self):
        assert bitmap_module._HAS_BITWISE_COUNT == hasattr(np, "bitwise_count")

    @given(index_sets())
    @settings(max_examples=60, deadline=None)
    def test_lut_fallback_matches_count(self, pair):
        length, indices = pair
        bm = Bitmap.from_indices(length, indices)
        assert bm.count() == lut_count(bm) == len(indices)

    def test_paths_agree_on_random_words(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            length = int(rng.integers(1, 500))
            indices = sorted(
                set(rng.integers(0, length, size=length // 2).tolist())
            )
            bm = Bitmap.from_indices(length, indices)
            assert bm.count() == lut_count(bm)

    def test_paths_agree_on_edge_patterns(self):
        for bm in (
            Bitmap.zeros(1),
            Bitmap.ones(1),
            Bitmap.zeros(64),
            Bitmap.ones(64),
            Bitmap.ones(65),
            Bitmap.ones(640),
        ):
            assert bm.count() == lut_count(bm)


class TestSliceConcat:
    """``slice``/``concat`` are the shard partition/merge primitives:
    concat of the per-shard slices must reproduce the original bitmap."""

    def test_slice_extracts_range(self):
        bm = Bitmap.from_indices(100, [5, 63, 64, 99])
        part = bm.slice(60, 70)
        assert part.length == 10
        assert part.to_indices().tolist() == [3, 4]

    def test_slice_empty_range(self):
        assert Bitmap.ones(10).slice(4, 4).length == 0

    def test_slice_out_of_range(self):
        bm = Bitmap.zeros(10)
        with pytest.raises(IndexError):
            bm.slice(-1, 5)
        with pytest.raises(IndexError):
            bm.slice(0, 11)
        with pytest.raises(IndexError):
            bm.slice(7, 3)

    def test_concat_empty_and_single(self):
        assert Bitmap.concat([]).length == 0
        bm = Bitmap.from_indices(10, [2])
        assert Bitmap.concat([bm]) is bm

    def test_concat_joins_in_order(self):
        a = Bitmap.from_bools([True, False])
        b = Bitmap.from_bools([False, True, True])
        joined = Bitmap.concat([a, b])
        assert joined.length == 5
        assert joined.to_indices().tolist() == [0, 3, 4]

    @given(index_sets(), st.lists(st.integers(0, 300), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_concat_of_slices_is_identity(self, pair, raw_cuts):
        length, indices = pair
        bm = Bitmap.from_indices(length, indices)
        cuts = sorted({min(c, length) for c in raw_cuts})
        bounds = [0, *cuts, length]
        parts = [
            bm.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi >= lo
        ]
        assert Bitmap.concat(parts) == bm

    @given(index_sets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_count_distributes_over_slices(self, pair, data):
        length, indices = pair
        cut = data.draw(st.integers(min_value=0, max_value=length))
        bm = Bitmap.from_indices(length, indices)
        assert bm.slice(0, cut).count() + bm.slice(cut, length).count() == (
            bm.count()
        )


TO_INDICES_LENGTHS = (0, 1, 63, 64, 65, 511, 512, 513, 24_000)


@st.composite
def derived_bitmaps(draw):
    """A bitmap of a pinned length and drawn density, built the way the
    engine builds them: directly, as a slice, a concat, a complement or a
    wrap of packed words."""
    length = draw(st.sampled_from(TO_INDICES_LENGTHS))
    density = draw(st.sampled_from((0.0, 0.001, 0.05, 0.5, 0.99, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(("bools", "slice", "concat", "invert", "packed")))
    if how == "slice":
        lo = draw(st.integers(0, 70))
        hi = lo + length + draw(st.integers(0, 70))
        return Bitmap.from_bools(rng.random(hi) < density).slice(lo, lo + length)
    if how == "concat":
        cut = draw(st.integers(0, length))
        flags = rng.random(length) < density
        return Bitmap.concat([Bitmap.from_bools(flags[:cut]), Bitmap.from_bools(flags[cut:])])
    base = Bitmap.from_bools(rng.random(length) < density)
    if how == "invert":
        return ~base
    if how == "packed":
        return Bitmap.from_packed(length, base.words().copy())
    return base


class TestToIndices:
    """The sparse ``to_indices`` expands only non-zero words; it must agree
    with the dense definition on every shape the engine produces."""

    @given(derived_bitmaps())
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_definition(self, bm):
        got = bm.to_indices()
        assert got.dtype == np.int64
        assert got.tolist() == np.flatnonzero(bm.to_bools()).tolist()

    def test_lut_popcount_path_agrees(self):
        bm = Bitmap.from_indices(24_000, [0, 63, 64, 4_095, 23_999])
        with mock.patch.object(bitmap_module, "_HAS_BITWISE_COUNT", False):
            assert bm.to_indices().tolist() == [0, 63, 64, 4_095, 23_999]


class TestPopcountHelper:
    """``popcount_words`` is the single popcount shared by Bitmap and the
    WAH codec (``test_wah.py``); its two implementations must agree on any
    word array."""

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_force_lut_matches_default(self, values):
        from repro.columnstore import popcount_words

        words = np.array(values, dtype=np.uint64)
        expected = sum(bin(v).count("1") for v in values)
        assert popcount_words(words) == expected
        with mock.patch.object(bitmap_module, "_HAS_BITWISE_COUNT", False):
            assert popcount_words(words) == expected


class TestContentKey:
    def test_equal_bitmaps_share_key(self):
        a = Bitmap.from_indices(100, [1, 5, 99])
        b = Bitmap.from_indices(100, [1, 5, 99])
        assert a is not b
        assert a.content_key() == b.content_key()

    def test_different_bits_different_key(self):
        a = Bitmap.from_indices(100, [1, 5, 99])
        b = Bitmap.from_indices(100, [1, 5, 98])
        assert a.content_key() != b.content_key()

    def test_length_disambiguates_same_words(self):
        # Same packed words, different logical lengths.
        a = Bitmap.from_indices(10, [1])
        b = Bitmap.from_indices(20, [1])
        assert a.content_key() != b.content_key()

    def test_key_is_memoized(self):
        bm = Bitmap.from_indices(64, [3])
        assert bm.content_key() is bm.content_key()

    def test_hash_consistent_with_equality(self):
        a = Bitmap.from_indices(100, [1, 5])
        b = Bitmap.from_indices(100, [1, 5])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
