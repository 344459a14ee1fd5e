"""Word-aligned hybrid (WAH) run-length-compressed bitmaps.

The paper builds on the bitmap-index literature (O'Neil & Quass [4]),
where compressed encodings like WAH/EWAH are standard: sparse edge
bitmaps (a record contains ~85 of 1000 edges, so each bitmap is ~8.5%
dense) compress well and still support fast ANDs directly on the
compressed form.

This implementation uses 64-bit words: a *literal* word carries 63
payload bits; a *fill* word encodes a run of identical 63-bit groups
(fill bit + run length).  ``WahBitmap`` mirrors the dense
:class:`~repro.columnstore.bitmap.Bitmap` API closely enough to swap into
the master relation, and `bench_ablation_bitmap_codec.py` compares the
two, reproducing the classic space/time trade-off.  The verdict — ANDs
far slower and no space saved at the edge bitmaps' density — keeps it
out of the ``repro`` package; it lives beside that benchmark, its only
user, and ``tests/test_wah.py`` checks it in the tier-1 suite.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.columnstore.bitmap import Bitmap, popcount_words

__all__ = ["WahBitmap"]

_PAYLOAD_BITS = 63
_LITERAL_FLAG = 1 << 63
_FILL_BIT = 1 << 62
_MAX_RUN = (1 << 62) - 1
_PAYLOAD_MASK = (1 << 63) - 1


def _normalize_words(length: int, words: Iterable[int]) -> list[int]:
    """Canonicalize a WAH word stream for a bitmap of ``length`` bits.

    The public constructor accepts any decodable stream; equivalent bitmaps
    can arrive as different word sequences (a one-group all-ones fill vs a
    literal, truncated streams that rely on implicit zero tails, overlong
    streams, set padding bits in the final group).  Normalizing on
    construction — decode to exactly ``ceil(length / 63)`` groups, zero the
    final group's padding bits, re-compress — makes ``__eq__`` a plain word
    comparison and keeps ``count``/``to_dense`` honest about the declared
    length.
    """
    n_groups = (length + _PAYLOAD_BITS - 1) // _PAYLOAD_BITS
    groups: list[int] = []
    for word in words:
        if len(groups) >= n_groups:
            break  # overlong stream: trailing words are out of range
        if word & _LITERAL_FLAG:
            groups.append(word & _PAYLOAD_MASK)
        else:
            run = min(word & _MAX_RUN, n_groups - len(groups))
            value = _PAYLOAD_MASK if word & _FILL_BIT else 0
            groups.extend([value] * run)
    if len(groups) < n_groups:
        groups.extend([0] * (n_groups - len(groups)))  # implicit zero tail
    if n_groups:
        tail_bits = length - (n_groups - 1) * _PAYLOAD_BITS
        if tail_bits < _PAYLOAD_BITS:
            groups[-1] &= (1 << tail_bits) - 1
    return _compress_groups(np.asarray(groups, dtype=np.uint64))


def _compress_groups(groups: np.ndarray) -> list[int]:
    """Encode 63-bit groups into WAH words."""
    words: list[int] = []
    index = 0
    n = len(groups)
    while index < n:
        group = int(groups[index])
        if group == 0 or group == _PAYLOAD_MASK:
            run = 1
            while (
                index + run < n
                and int(groups[index + run]) == group
                and run < _MAX_RUN
            ):
                run += 1
            fill = _FILL_BIT if group == _PAYLOAD_MASK else 0
            words.append(fill | run)
            index += run
        else:
            words.append(_LITERAL_FLAG | group)
            index += 1
    return words


class WahBitmap:
    """An immutable WAH-compressed bitmap."""

    __slots__ = ("_words", "_length")

    def __init__(self, length: int, words: list[int], *, _canonical: bool = False):
        if length < 0:
            raise ValueError("length must be >= 0")
        self._length = length
        # Internal constructors (from_dense, __and__) produce canonical
        # streams already and skip the re-encode.
        self._words = list(words) if _canonical else _normalize_words(length, words)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dense(cls, bitmap: Bitmap) -> "WahBitmap":
        """Compress a dense bitmap."""
        length = bitmap.length
        bits = bitmap.to_bools()
        n_groups = (length + _PAYLOAD_BITS - 1) // _PAYLOAD_BITS
        padded = np.zeros(n_groups * _PAYLOAD_BITS, dtype=bool)
        padded[:length] = bits
        groups = np.zeros(n_groups, dtype=np.uint64)
        for g in range(n_groups):
            chunk = padded[g * _PAYLOAD_BITS : (g + 1) * _PAYLOAD_BITS]
            packed = np.packbits(chunk, bitorder="little")
            buf = np.zeros(8, dtype=np.uint8)
            buf[: packed.size] = packed
            groups[g] = buf.view(np.uint64)[0]
        return cls(length, _compress_groups(groups), _canonical=True)

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "WahBitmap":
        return cls.from_dense(Bitmap.from_indices(length, indices))

    # -- decompression ----------------------------------------------------------

    def _groups(self) -> np.ndarray:
        out: list[int] = []
        for word in self._words:
            if word & _LITERAL_FLAG:
                out.append(word & _PAYLOAD_MASK)
            else:
                run = word & _MAX_RUN
                value = _PAYLOAD_MASK if word & _FILL_BIT else 0
                out.extend([value] * run)
        return np.asarray(out, dtype=np.uint64)

    def to_dense(self) -> Bitmap:
        groups = self._groups()
        bits = np.zeros(len(groups) * _PAYLOAD_BITS, dtype=bool)
        for g, group in enumerate(groups):
            if group == 0:
                continue
            buf = np.asarray([group], dtype=np.uint64).view(np.uint8)
            chunk = np.unpackbits(buf, bitorder="little")[: _PAYLOAD_BITS]
            bits[g * _PAYLOAD_BITS : (g + 1) * _PAYLOAD_BITS] = chunk.astype(bool)
        return Bitmap.from_bools(bits[: self._length])

    # -- protocol -------------------------------------------------------------------

    @property
    def length(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WahBitmap):
            return NotImplemented
        return self._length == other._length and self._words == other._words

    def __repr__(self) -> str:
        return f"WahBitmap(length={self._length}, words={len(self._words)})"

    def nbytes(self) -> int:
        """Compressed footprint (8 bytes per WAH word)."""
        return 8 * len(self._words)

    def count(self) -> int:
        literals = [w & _PAYLOAD_MASK for w in self._words if w & _LITERAL_FLAG]
        total = popcount_words(np.asarray(literals, dtype=np.uint64))
        for word in self._words:
            if not word & _LITERAL_FLAG and word & _FILL_BIT:
                total += _PAYLOAD_BITS * (word & _MAX_RUN)
        # Padding bits are always zero by construction, so no correction.
        return total

    # -- compressed-domain AND ------------------------------------------------------

    def __and__(self, other: "WahBitmap") -> "WahBitmap":
        """AND two compressed bitmaps without full decompression.

        Walks both word streams run-by-run; zero fills short-circuit whole
        runs — the property that makes compressed bitmap indexes fast on
        sparse columns.
        """
        if self._length != other._length:
            raise ValueError("bitmap length mismatch")
        a_words, b_words = self._words, other._words
        out_groups: list[int] = []

        def runs(words):
            for word in words:
                if word & _LITERAL_FLAG:
                    yield (1, word & _PAYLOAD_MASK, True)
                else:
                    value = _PAYLOAD_MASK if word & _FILL_BIT else 0
                    yield ((word & _MAX_RUN), value, False)

        a_iter, b_iter = runs(a_words), runs(b_words)
        a_run = next(a_iter, None)
        b_run = next(b_iter, None)
        while a_run is not None and b_run is not None:
            take = min(a_run[0], b_run[0])
            value = a_run[1] & b_run[1]
            out_groups.extend([value] * take)
            a_run = (a_run[0] - take, a_run[1], a_run[2])
            b_run = (b_run[0] - take, b_run[1], b_run[2])
            if a_run[0] == 0:
                a_run = next(a_iter, None)
            if b_run[0] == 0:
                b_run = next(b_iter, None)
        return WahBitmap(
            self._length,
            _compress_groups(np.asarray(out_groups, dtype=np.uint64)),
            _canonical=True,
        )

    @staticmethod
    def and_all(bitmaps: "Iterable[WahBitmap]") -> "WahBitmap":
        it = iter(bitmaps)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("and_all() requires at least one bitmap") from None
        for bm in it:
            acc = acc & bm
        return acc

    def to_indices(self) -> np.ndarray:
        return self.to_dense().to_indices()
