"""Parity tests for the word-level ``Bitmap.slice``/``concat`` rewrite.

Both operations used to round-trip through dense booleans
(``np.unpackbits`` → python-level slice/concatenate → ``np.packbits``);
they now work on the packed uint64 words directly, with a zero-copy
shared-storage fast path for word-aligned slices.  The reference
implementation here *is* the old one — hypothesis drives the two against
each other across lengths, offsets, and alignment edge cases.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.bitmap import Bitmap


def _slice_reference(bitmap: Bitmap, start: int, stop: int) -> Bitmap:
    """The pre-rewrite implementation: unpack, slice booleans, repack."""
    return Bitmap.from_bools(bitmap.to_bools()[start:stop])


def _concat_reference(parts: list[Bitmap]) -> Bitmap:
    if not parts:
        return Bitmap.zeros(0)
    if len(parts) == 1:
        return parts[0]
    return Bitmap.from_bools(np.concatenate([p.to_bools() for p in parts]))


def _check_aligned(bitmap: Bitmap, start: int, stop: int, got: Bitmap) -> None:
    """A word-aligned slice is a read-only view of the source's words with
    no bit set past its length, equal to the shifting path's result (a
    one-bit prefix moves the same range off the word boundary)."""
    n = stop - start
    if start % 64 or not (stop % 64 == 0 or stop == bitmap.length) or not n:
        return
    if n == bitmap.length:
        assert got is bitmap
    else:
        assert not got._words.flags.writeable
    assert np.shares_memory(got._words, bitmap._words)
    if n % 64:
        assert int(got._words[-1]) >> (n % 64) == 0
    assert got == Bitmap.concat([Bitmap.zeros(1), bitmap]).slice(start + 1, stop + 1)


@st.composite
def bitmaps(draw, max_length=400):
    length = draw(st.integers(min_value=0, max_value=max_length))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(seed)
    return Bitmap.from_bools(rng.random(length) < density)


@st.composite
def bitmap_with_slice(draw):
    bitmap = draw(bitmaps())
    start = draw(st.integers(min_value=0, max_value=bitmap.length))
    stop = draw(st.integers(min_value=start, max_value=bitmap.length))
    return bitmap, start, stop


class TestSliceParity:
    @given(bitmap_with_slice())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        bitmap, start, stop = case
        got = bitmap.slice(start, stop)
        ref = _slice_reference(bitmap, start, stop)
        assert got == ref
        assert got.length == stop - start
        assert got.content_key() == ref.content_key()
        _check_aligned(bitmap, start, stop, got)

    def test_word_boundary_edges(self):
        """Pin the alignment cases the fast paths branch on."""
        rng = np.random.default_rng(7)
        bitmap = Bitmap.from_bools(rng.random(321) < 0.5)
        for start, stop in [
            (0, 321), (0, 64), (64, 128), (64, 321), (128, 256),
            (0, 63), (1, 64), (63, 65), (64, 65), (255, 321),
            (320, 321), (321, 321), (0, 0), (64, 64),
        ]:
            got = bitmap.slice(start, stop)
            assert got == _slice_reference(bitmap, start, stop)
            _check_aligned(bitmap, start, stop, got)

    def test_aligned_slice_shares_storage(self):
        """A word-aligned slice is a view of the parent's packed words —
        no copy — and the shared view is read-only."""
        rng = np.random.default_rng(11)
        parent = Bitmap.from_bools(rng.random(256) < 0.5)
        child = parent.slice(64, 256)
        assert np.shares_memory(child.words(), parent.words())
        with np.testing.assert_raises(ValueError):
            child.words()[0] = np.uint64(1)

    def test_slice_of_readonly_words(self):
        """Slicing never writes into the source words (the mmap-backed
        zero-copy path constructs bitmaps over read-only buffers)."""
        rng = np.random.default_rng(13)
        source = Bitmap.from_bools(rng.random(300) < 0.5)
        frozen = np.asarray(source.words())  # read-only view
        readonly = Bitmap.from_packed(300, frozen)
        for start, stop in [(0, 300), (5, 299), (64, 128), (1, 65)]:
            assert readonly.slice(start, stop) == _slice_reference(source, start, stop)


class TestRangeAndParity:
    @given(
        st.integers(min_value=0, max_value=300),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, length, seeds, data):
        """``and_all(bitmaps, start, stop)`` — the shard fold's AND of a
        record range — equals the AND of the unpacked booleans' range, and
        never writes into its operands."""
        bms = [
            Bitmap.from_bools(np.random.default_rng(seed).random(length) < 0.7)
            for seed in seeds
        ]
        before = [np.asarray(bm.words()).copy() for bm in bms]
        start = data.draw(st.sampled_from(sorted({0, 64, 128, length})) | st.integers(0, length))
        start = min(start, length)
        stop = data.draw(st.integers(min_value=start, max_value=length))
        want = np.logical_and.reduce([bm.to_bools()[start:stop] for bm in bms])
        got = Bitmap.and_all(bms, start, stop)
        assert got == Bitmap.from_bools(want)
        assert Bitmap.and_all(bms) == Bitmap.and_all(bms, 0, length)
        for bm, words in zip(bms, before):
            assert np.array_equal(np.asarray(bm.words()), words)

    def test_range_out_of_bounds(self):
        bms = [Bitmap.ones(70), Bitmap.ones(70)]
        for start, stop in [(-1, 5), (0, 71), (9, 3)]:
            with np.testing.assert_raises(IndexError):
                Bitmap.and_all(bms, start, stop)
        with np.testing.assert_raises(ValueError):
            Bitmap.and_all([Bitmap.ones(70), Bitmap.ones(71)], 64, 70)


class TestConcatParity:
    @given(st.lists(bitmaps(max_length=200), min_size=0, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, parts):
        got = Bitmap.concat(parts)
        ref = _concat_reference(parts)
        assert got == ref
        assert got.length == sum(p.length for p in parts)

    @given(bitmaps(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_concat_of_slices_roundtrips(self, bitmap, k):
        """The shard-merge invariant: concat of contiguous slices
        reproduces the original bit-for-bit."""
        cuts = sorted(
            {0, bitmap.length, *((bitmap.length * i) // k for i in range(1, k))}
        )
        parts = [bitmap.slice(a, b) for a, b in zip(cuts, cuts[1:])]
        if not parts:
            parts = [bitmap]
        assert Bitmap.concat(parts) == bitmap

    def test_all_set_carry_across_words(self):
        """Dense all-ones parts exercise every carry lane."""
        parts = [Bitmap.ones(n) for n in (1, 63, 64, 65, 127, 128, 129)]
        merged = Bitmap.concat(parts)
        assert merged == Bitmap.ones(sum(p.length for p in parts))

    def test_concat_never_mutates_inputs(self):
        rng = np.random.default_rng(17)
        parts = [Bitmap.from_bools(rng.random(n) < 0.5) for n in (70, 3, 130)]
        before = [np.asarray(p.words()).copy() for p in parts]
        Bitmap.concat(parts)
        for part, words in zip(parts, before):
            assert np.array_equal(np.asarray(part.words()), words)


class TestFromPacked:
    def test_rejects_unmasked_tail(self):
        with np.testing.assert_raises(ValueError):
            Bitmap.from_packed(3, np.array([0xFF], dtype=np.uint64))

    def test_rejects_wrong_shape(self):
        with np.testing.assert_raises(ValueError):
            Bitmap.from_packed(65, np.zeros(1, dtype=np.uint64))

    def test_wraps_without_copy_or_write(self):
        words = np.array([0x5, 0x1], dtype=np.uint64)
        words.setflags(write=False)
        bitmap = Bitmap.from_packed(65, words)
        assert bitmap.to_indices().tolist() == [0, 2, 64]
        assert np.shares_memory(np.asarray(bitmap.words()), words)
