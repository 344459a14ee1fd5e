"""Whole-answer bitmap cache for the serving layer.

The paper shares conjunctions through views that set cover picks ahead of
time (Sections 5.1–5.2).  :class:`BitmapCache` adds the runtime
counterpart for repeats: a query's structural answer is memoized under a
byte budget, one entry per answer, keyed on the canonical frozen edge-set
the plan covers plus the engine's state epoch, so a repeated query (or
another rewrite of the same covered set) skips its fold.

Keying on covered edge-sets is sound because every conjunction input — a
base ``b_i`` bitmap, a graph-view ``bv_j``, or an aggregate-view ``bp_l``
— equals the AND of the base bitmaps of the elements it covers, so any
two evaluation orders (or view decompositions) of the same covered set
produce bit-identical results.  Keying on the epoch makes invalidation
trivial and race-free: writers bump the engine epoch, after which stale
entries can never match a lookup again (they are also proactively dropped
to release budget).

The cache counts its own traffic, once, under the lock it already takes:
``GraphAnalyticsEngine.stats`` copies those counts into ``IOStats`` and a
``MetricsRegistry`` reads them as ``cache.*`` when it exports.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..columnstore.bitmap import Bitmap
from ..core.record import Edge

__all__ = ["BitmapCache", "CacheStats"]

# (epoch, covered elements): the whole answer of one structural conjunction.
CacheKey = tuple[int, frozenset]


@dataclass
class CacheStats:
    """Point-in-time counters of one :class:`BitmapCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0
    bytes_cached: int = 0

    def requests(self) -> int:
        """Conjunction lookups; always exactly ``hits + misses``."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        requested = self.requests()
        return self.hits / requested if requested else 0.0


class BitmapCache:
    """Thread-safe LRU of conjunction answers with byte-budget accounting.

    ``budget_bytes`` bounds the ``nbytes`` of the cached bitmaps; inserting
    past the budget evicts least-recently-used entries until it holds
    again (an entry larger than the whole budget is not retained at all).
    """

    def __init__(self, budget_bytes: int = 64 << 20):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, Bitmap] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # -- core operation ------------------------------------------------------

    def lookup(self, epoch: int, elements: frozenset[Edge]) -> Bitmap | None:
        """The answer cached for ``elements`` at ``epoch``, or None;
        counted as a hit or a miss."""
        key = (epoch, elements)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        return cached

    def put(self, epoch: int, elements: frozenset[Edge], bitmap: Bitmap) -> None:
        """Store a computed answer (no hit/miss accounting).  Concurrent
        misses on one key may both put; the last insert wins, and both
        bitmaps are the same answer."""
        key = (epoch, elements)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.nbytes()
            self._entries[key] = bitmap
            self._bytes += bitmap.nbytes()
            while self._bytes > self.budget_bytes and self._entries:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes()
                self._evictions += 1

    # -- invalidation --------------------------------------------------------

    def drop_stale(self, current_epoch: int) -> int:
        """Drop every entry from an epoch other than ``current_epoch``.

        Correctness never depends on this — stale epochs cannot match a
        lookup — but dead entries would squat on the byte budget until LRU
        churn clears them.  Returns the number of entries dropped.
        """
        with self._lock:
            stale = [k for k in self._entries if k[0] != current_epoch]
            for key in stale:
                self._bytes -= self._entries.pop(key).nbytes()
            self._invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def current_bytes(self) -> int:
        """Bytes currently held (always <= budget_bytes)."""
        with self._lock:
            return self._bytes

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                bytes_cached=self._bytes,
            )

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = 0
            self._evictions = self._invalidations = 0
