"""Packed bitmap columns.

The paper (Section 4.2) indexes every edge id with a bitmap column whose
*i*-th bit tells whether graph record *i* contains that edge.  Evaluating a
graph query then reduces to ANDing the bitmaps of the query's edges — no
joins.  This module provides the bitmap data type used for those columns and
for materialized graph views (Section 5.1.1), which are simply precomputed
bitmap conjunctions stored as additional columns.

Bits are packed 64 per word into a ``numpy.uint64`` array so that the
boolean algebra (AND / OR / AND NOT / NOT) and population counts run as
vectorized word-level operations, mirroring how a column store executes the
same calculations.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator

import numpy as np

__all__ = ["Bitmap", "popcount_words", "popcount_each"]

_WORD_BITS = 64
# Lookup table: popcount of every byte value, used to count set bits fast.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint64)
# numpy >= 2.0 exposes the hardware popcount instruction directly; keep the
# byte-LUT as the portable fallback (and as the reference for regression
# tests pinning the two paths to each other).
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount_words(words: np.ndarray) -> int:
    """Total set bits across an unsigned integer array.

    The single popcount implementation behind :meth:`Bitmap.count` and the
    benchmarks' WAH codec: ``np.bitwise_count`` (hardware POPCNT) on
    numpy >= 2.0, the byte-LUT otherwise (tests pin each path by patching
    ``_HAS_BITWISE_COUNT``).
    """
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT8[words.view(np.uint8)].sum())


def popcount_each(words: np.ndarray) -> np.ndarray:
    """Set bits of every element of an unsigned integer array — the
    per-word sibling of :func:`popcount_words`, on the same two paths.
    Rank lookups into NULL-suppressed measure columns are built on it."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    return _POPCOUNT8[words.view(np.uint8)].reshape(-1, words.itemsize).sum(axis=1, dtype=np.int64)


def _words_needed(length: int) -> int:
    return (length + _WORD_BITS - 1) // _WORD_BITS


class Bitmap:
    """A fixed-length sequence of bits supporting boolean algebra.

    Instances are value objects: every operator returns a new ``Bitmap``.
    All operands of a binary operation must have the same ``length`` — the
    number of graph records in the relation — exactly as all bitmap columns
    of the master relation share one length.
    """

    __slots__ = ("_words", "_length", "_ckey")

    def __init__(self, length: int, words: np.ndarray | None = None):
        if length < 0:
            raise ValueError(f"bitmap length must be >= 0, got {length}")
        self._length = length
        self._ckey: tuple[int, bytes] | None = None
        n_words = _words_needed(length)
        if words is None:
            self._words = np.zeros(n_words, dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (n_words,):
                raise ValueError("words array has wrong dtype or shape")
            self._words = words
            self._mask_tail()

    # -- construction ----------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "Bitmap":
        """All-clear bitmap of ``length`` bits."""
        return cls(length)

    @classmethod
    def ones(cls, length: int) -> "Bitmap":
        """All-set bitmap of ``length`` bits."""
        bm = cls(length)
        bm._words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        bm._mask_tail()
        return bm

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "Bitmap":
        """Bitmap with exactly the given bit positions set."""
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices, dtype=np.int64)
        bm = cls(length)
        if idx.size == 0:
            return bm
        if idx.min() < 0 or idx.max() >= length:
            raise IndexError("bit index out of range")
        words = idx // _WORD_BITS
        bits = np.uint64(1) << (idx % _WORD_BITS).astype(np.uint64)
        np.bitwise_or.at(bm._words, words, bits)
        return bm

    @classmethod
    def from_bools(cls, flags: Iterable[bool]) -> "Bitmap":
        """Bitmap from an iterable of booleans (index ``i`` set iff truthy)."""
        arr = np.asarray(list(flags) if not isinstance(flags, np.ndarray) else flags, dtype=bool)
        bm = cls(len(arr))
        if arr.size:
            bm._words = np.packbits(arr, bitorder="little").view(np.uint8)
            padded = np.zeros(_words_needed(len(arr)) * 8, dtype=np.uint8)
            padded[: bm._words.size] = bm._words
            bm._words = padded.view(np.uint64)
        return bm

    @classmethod
    def from_packed(cls, length: int, words: np.ndarray) -> "Bitmap":
        """Wrap an already-packed word array without copying or masking.

        The zero-copy construction path: ``words`` must be ``uint64`` of
        exactly the packed size for ``length`` with every bit past
        ``length`` already clear — true for any array produced by
        :meth:`words` or persisted from one.  Unlike ``Bitmap(length,
        words)``, whose tail masking writes into the array, this never
        mutates ``words``, so a read-only view or an ``np.memmap`` opened
        with ``mmap_mode='r'`` can back a bitmap directly.
        """
        if length < 0:
            raise ValueError(f"bitmap length must be >= 0, got {length}")
        if words.dtype != np.uint64 or words.shape != (_words_needed(length),):
            raise ValueError("words array has wrong dtype or shape")
        tail = length % _WORD_BITS
        if tail and words.size and (int(words[-1]) >> tail):
            raise ValueError("packed words have bits set past the bitmap length")
        return cls._wrap(length, words)

    @classmethod
    def _wrap(cls, length: int, words: np.ndarray) -> "Bitmap":
        """``words`` as a bitmap, unchecked: for results of word-wise
        AND / OR / XOR / AND NOT (and concatenation) of bitmaps, whose
        bits past ``length`` are clear because their operands' are."""
        bm = cls.__new__(cls)
        bm._length = length
        bm._ckey = None
        bm._words = words
        return bm

    # -- internals --------------------------------------------------------

    def _mask_tail(self) -> None:
        """Clear bits beyond ``length`` in the final word."""
        tail = self._length % _WORD_BITS
        if tail and self._words.size:
            mask = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
            self._words[-1] &= mask

    def _check_same_length(self, other: "Bitmap") -> None:
        if self._length != other._length:
            raise ValueError(
                f"bitmap length mismatch: {self._length} vs {other._length}"
            )

    # -- basic protocol ----------------------------------------------------

    @property
    def length(self) -> int:
        """Number of addressable bits (number of records in the relation)."""
        return self._length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> bool:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("bit index out of range")
        word, bit = divmod(index, _WORD_BITS)
        return bool((self._words[word] >> np.uint64(bit)) & np.uint64(1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._length == other._length and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash(self.content_key())

    def content_key(self) -> tuple[int, bytes]:
        """Cheap content identity: ``(length, digest of the packed words)``.

        Two bitmaps compare equal iff their content keys are equal (modulo
        the astronomically unlikely digest collision), so caches can dedupe
        stored bitmaps without holding the words themselves.  Computed once
        and memoized — bitmaps are value objects, never mutated after
        construction.
        """
        key = self._ckey
        if key is None:
            digest = hashlib.blake2b(
                self._words.tobytes(), digest_size=16, salt=b"bitmap"
            ).digest()
            key = (self._length, digest)
            self._ckey = key
        return key

    def __repr__(self) -> str:
        shown = list(self.iter_indices())
        if len(shown) > 8:
            inner = ", ".join(map(str, shown[:8])) + ", ..."
        else:
            inner = ", ".join(map(str, shown))
        return f"Bitmap(length={self._length}, set=[{inner}])"

    # -- boolean algebra ---------------------------------------------------

    def __and__(self, other: "Bitmap") -> "Bitmap":
        self._check_same_length(other)
        return Bitmap._wrap(self._length, self._words & other._words)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        self._check_same_length(other)
        return Bitmap._wrap(self._length, self._words | other._words)

    def __xor__(self, other: "Bitmap") -> "Bitmap":
        self._check_same_length(other)
        return Bitmap._wrap(self._length, self._words ^ other._words)

    def __sub__(self, other: "Bitmap") -> "Bitmap":
        """AND NOT — the paper's ``[Gq1 AND NOT Gq2]`` set difference."""
        self._check_same_length(other)
        return Bitmap._wrap(self._length, self._words & ~other._words)

    def __invert__(self) -> "Bitmap":
        return Bitmap(self._length, ~self._words)

    @staticmethod
    def and_all(bitmaps: Iterable["Bitmap"]) -> "Bitmap":
        """Conjunction of one or more bitmaps (``bitmap(B)`` in the paper).

        Raises ``ValueError`` on an empty iterable: the conjunction of zero
        structural conditions is undefined for a query.
        """
        it = iter(bitmaps)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("and_all() requires at least one bitmap") from None
        acc = first._words.copy()
        length = first._length
        for bm in it:
            if bm._length != length:
                raise ValueError("bitmap length mismatch in and_all()")
            acc &= bm._words
        return Bitmap._wrap(length, acc)

    @staticmethod
    def or_all(bitmaps: Iterable["Bitmap"]) -> "Bitmap":
        """Disjunction of one or more bitmaps."""
        it = iter(bitmaps)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("or_all() requires at least one bitmap") from None
        acc = first._words.copy()
        length = first._length
        for bm in it:
            if bm._length != length:
                raise ValueError("bitmap length mismatch in or_all()")
            acc |= bm._words
        return Bitmap._wrap(length, acc)

    # -- queries -----------------------------------------------------------

    def count(self) -> int:
        """Number of set bits (cardinality of the answer set).

        Delegates to :func:`popcount_words` — ``np.bitwise_count``
        (hardware POPCNT) on numpy >= 2.0, byte-LUT fallback otherwise;
        both paths are pinned to each other by a regression test.
        """
        return popcount_words(self._words)

    def any(self) -> bool:
        """True iff at least one bit is set."""
        return bool(self._words.any())

    def all(self) -> bool:
        """True iff every bit in range is set."""
        return self.count() == self._length

    def to_indices(self) -> np.ndarray:
        """Positions of set bits, ascending, as an int64 array.

        Costs the non-zero words, not the length: only the words that hold
        a set bit are unpacked, and each bit's position within them is
        shifted by its word's ``word << 6`` (bits past ``length`` are
        always clear, so nothing needs trimming).
        """
        # ``words != 0`` first: numpy's nonzero is several times faster
        # over a bool array than over the uint64 words themselves.
        nonzero = np.flatnonzero(self._words != 0)
        words = self._words[nonzero]
        bits = np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)
        positions = np.flatnonzero(bits)
        # The k-th surviving word's bits sit at 64*k.. in ``bits``; move
        # them to 64*word.
        nonzero -= np.arange(nonzero.size)
        nonzero <<= 6
        positions += nonzero.repeat(popcount_each(words))
        return positions

    def to_bools(self) -> np.ndarray:
        """Dense boolean array of length ``length``."""
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return bits[: self._length].astype(bool)

    def iter_indices(self) -> Iterator[int]:
        """Iterate positions of set bits in ascending order."""
        return iter(self.to_indices().tolist())

    def isdisjoint(self, other: "Bitmap") -> bool:
        self._check_same_length(other)
        return not bool((self._words & other._words).any())

    def issubset(self, other: "Bitmap") -> bool:
        """True iff every set bit of self is also set in other."""
        self._check_same_length(other)
        return not bool((self._words & ~other._words).any())

    # -- mutation-free derivation -------------------------------------------

    def set(self, index: int) -> "Bitmap":
        """Return a copy with ``index`` set."""
        if not 0 <= index < self._length:
            raise IndexError("bit index out of range")
        words = self._words.copy()
        word, bit = divmod(index, _WORD_BITS)
        words[word] |= np.uint64(1) << np.uint64(bit)
        return Bitmap(self._length, words)

    def clear(self, index: int) -> "Bitmap":
        """Return a copy with ``index`` cleared."""
        if not 0 <= index < self._length:
            raise IndexError("bit index out of range")
        words = self._words.copy()
        word, bit = divmod(index, _WORD_BITS)
        words[word] &= ~(np.uint64(1) << np.uint64(bit))
        return Bitmap(self._length, words)

    def slice(self, start: int, stop: int) -> "Bitmap":
        """Bits ``[start, stop)`` as a new bitmap (horizontal partitioning:
        a record-range shard's segment of a relation-wide bitmap).

        Works on the packed words directly.  A slice starting on a word
        boundary and ending on one (or at the bitmap's end) shares the
        packed storage as a read-only view — zero copies; any other slice
        shifts word pairs, still 64x less data movement than unpacking to
        booleans.
        """
        if not 0 <= start <= stop <= self._length:
            raise IndexError(
                f"slice [{start}, {stop}) out of range for length {self._length}"
            )
        n = stop - start
        if n == 0:
            return Bitmap.zeros(0)
        word0, bit = divmod(start, _WORD_BITS)
        n_out = _words_needed(n)
        if bit == 0:
            src = self._words[word0 : word0 + n_out]
            if stop == self._length or stop % _WORD_BITS == 0:
                # Both ends word-aligned (the source tail is already
                # masked): share the words, no copy at all.
                view = src.view()
                view.setflags(write=False)
                return Bitmap.from_packed(n, view)
            return Bitmap(n, src.copy())
        # Unaligned start: out[i] = (w[i] >> bit) | (w[i+1] << 64-bit).
        # ``bit`` is in [1, 63], so both shift amounts stay in range
        # (numpy's uint64 shift by 64 is undefined).
        ext = np.zeros(n_out + 1, dtype=np.uint64)
        avail = min(self._words.size - word0, n_out + 1)
        ext[:avail] = self._words[word0 : word0 + avail]
        out = (ext[:n_out] >> np.uint64(bit)) | (
            ext[1 : n_out + 1] << np.uint64(_WORD_BITS - bit)
        )
        return Bitmap(n, out)

    @staticmethod
    def concat(bitmaps: Iterable["Bitmap"]) -> "Bitmap":
        """Order-preserving concatenation of bitmap segments.

        The shard-merge combiner: record-range shards evaluate a conjunction
        over their own bit segments and the global answer is the segments
        joined back in shard order — bit *i* of the result is bit
        ``i - start_of(shard)`` of that shard's segment.  ``concat`` of the
        per-shard slices of a bitmap reproduces the original exactly.

        When every part but the last fills whole words — shards cut on
        64-record boundaries — the merge is one ``np.concatenate`` of the
        parts' words (the last part's tail is already masked).  Otherwise
        each part is OR-merged into the output words in place: word-aligned
        offsets copy words verbatim, unaligned ones split every word into a
        low part (``<< bit``) and a carry into the next word (``>> 64-bit``)
        — no boolean unpack/repack round trip.
        """
        parts = list(bitmaps)
        if not parts:
            return Bitmap.zeros(0)
        if len(parts) == 1:
            return parts[0]
        total = 0
        aligned = True
        for p in parts:
            aligned = aligned and total % _WORD_BITS == 0
            total += p._length
        if aligned:
            return Bitmap._wrap(total, np.concatenate([p._words for p in parts]))
        out = np.zeros(_words_needed(total), dtype=np.uint64)
        offset = 0
        for p in parts:
            if p._length == 0:
                continue
            word0, bit = divmod(offset, _WORD_BITS)
            pw = p._words
            if bit == 0:
                out[word0 : word0 + pw.size] |= pw
            else:
                out[word0 : word0 + pw.size] |= pw << np.uint64(bit)
                # Carry bits spilling into the following word.  The final
                # carry element is provably zero whenever it would land
                # past the output (the part's masked tail plus the offset
                # fits the last word), so truncating it is lossless.
                carry = pw >> np.uint64(_WORD_BITS - bit)
                stop = min(word0 + 1 + pw.size, out.size)
                out[word0 + 1 : stop] |= carry[: stop - word0 - 1]
            offset += p._length
        return Bitmap._wrap(total, out)

    def resized(self, new_length: int) -> "Bitmap":
        """Return a copy truncated or zero-extended to ``new_length`` bits."""
        new_words = np.zeros(_words_needed(new_length), dtype=np.uint64)
        n = min(new_words.size, self._words.size)
        new_words[:n] = self._words[:n]
        return Bitmap(new_length, new_words)

    def nbytes(self) -> int:
        """Storage footprint in bytes of the packed representation."""
        return int(self._words.nbytes)

    def words(self) -> np.ndarray:
        """Read-only view of the packed uint64 words (for persistence)."""
        view = self._words.view()
        view.setflags(write=False)
        return view
