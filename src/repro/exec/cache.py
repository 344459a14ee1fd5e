"""Whole-answer bitmap cache for the serving layer.

The paper shares conjunctions through views that set cover picks ahead of
time (Sections 5.1–5.2).  :class:`BitmapCache` adds the runtime
counterpart for repeats: a query's structural answer is memoized under a
byte budget, one entry per answer, keyed on the canonical frozen edge-set
the plan covers plus the engine's state epoch, so a repeated query (or
another rewrite of the same covered set) skips its fold and fan-out.

Keying on covered edge-sets is sound because every conjunction input — a
base ``b_i`` bitmap, a graph-view ``bv_j``, or an aggregate-view ``bp_l``
— equals the AND of the base bitmaps of the elements it covers, so any
two evaluation orders (or view decompositions) of the same covered set
produce bit-identical results.  Keying on the epoch makes invalidation
trivial and race-free: writers bump the engine epoch, after which stale
entries can never match a lookup again (they are also proactively dropped
to release budget).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..columnstore.bitmap import Bitmap
from ..columnstore.iostats import IOStatsCollector
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
    An optional :class:`IOStatsCollector` — installed automatically by
    :meth:`GraphAnalyticsEngine.use_bitmap_cache` — mirrors hit/miss/
    eviction traffic into the engine's query stats.  An optional
    ``registry`` (a :class:`repro.obs.MetricsRegistry`, installed by
    :meth:`GraphAnalyticsEngine.use_metrics`) additionally publishes the
    same traffic as process-wide ``cache.*`` counters plus held-bytes /
    entry-count gauges.
    """

    def __init__(
        self,
        budget_bytes: int = 64 << 20,
        collector: IOStatsCollector | None = None,
        registry=None,
    ):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = budget_bytes
        self.collector = collector
        self.registry = registry
        self._metric_cache: dict[str, object] = {}
        self._cached_registry = None
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, Bitmap] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def _publish(self, name: str, n: float = 1) -> None:
        registry = self.registry
        if registry is None:
            return
        if self._cached_registry is not registry:
            self._metric_cache = {}
            self._cached_registry = registry
        counter = self._metric_cache.get(name)
        if counter is None:
            counter = self._metric_cache[name] = registry.counter(name)
        counter.inc(n)

    def _publish_gauges(self) -> None:
        registry = self.registry
        if registry is not None:
            with self._lock:
                entries, held = len(self._entries), self._bytes
            registry.gauge("cache.entries").set(entries)
            registry.gauge("cache.bytes_held").set(held)

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
        if self.collector is not None:
            if cached is not None:
                self.collector.record_cache_hit()
            else:
                self.collector.record_cache_miss()
        self._publish("cache.hits" if cached is not None else "cache.misses")
        return cached

    def put(self, epoch: int, elements: frozenset[Edge], bitmap: Bitmap) -> None:
        """Store a computed answer (no hit/miss accounting).  Concurrent
        misses on one key may both put; the last insert wins, and both
        bitmaps are the same answer."""
        key = (epoch, elements)
        evicted = 0
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.nbytes()
            self._entries[key] = bitmap
            self._bytes += bitmap.nbytes()
            while self._bytes > self.budget_bytes and self._entries:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes()
                evicted += 1
            self._evictions += evicted
        if evicted:
            if self.collector is not None:
                self.collector.record_cache_eviction(evicted)
            self._publish("cache.evictions", evicted)
        self._publish_gauges()

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
        if stale:
            self._publish("cache.invalidations", len(stale))
        self._publish_gauges()
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
        self._publish_gauges()

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
