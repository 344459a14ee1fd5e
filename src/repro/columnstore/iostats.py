"""I/O cost accounting for the column-store cost model.

Section 5.1 of the paper adopts a simple cost model: every bitmap column has
the same retrieval cost (all bitmaps have the number-of-records length), so
the cost of evaluating a query is proportional to the **number of bitmap
columns fetched**, and — for aggregate queries — to the number of measure
columns/values fetched.  The view-selection benefit function and the
experiment breakdowns (Figures 6–8 split "fetch measures" from "rest of
query") are stated in those units.

``IOStats`` counts exactly those quantities.  The master relation reports
every column touch to its collector, so benchmarks can report both
wall-clock time and model cost.  The collector serializes its increments
behind a lock because the daemon answers reads on several bridge threads
while its view maintainer runs on another, all against one engine.  Each
event is counted once, where it happens: column fetches here, cache
traffic in the bitmap cache, whose counts ``GraphAnalyticsEngine.stats``
copies into the cache fields.  A ``MetricsRegistry`` reads both when it
exports.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

__all__ = ["IOStats", "IOStatsCollector"]


@dataclass
class IOStats:
    """Counters for one query (or one batch of queries)."""

    bitmap_columns_fetched: int = 0
    measure_columns_fetched: int = 0
    measure_values_fetched: int = 0
    view_bitmaps_fetched: int = 0
    view_measure_columns_fetched: int = 0
    partitions_joined: int = 0
    # Bytes behind the bitmap fetches above (packed-word storage); the
    # paper's cost model counts columns, this tracks the actual volume.
    bitmap_bytes_fetched: int = 0
    # The installed bitmap cache's counts (see GraphAnalyticsEngine.stats).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    def total_columns_fetched(self) -> int:
        """The paper's cost unit: total columns retrieved from disk."""
        return (
            self.bitmap_columns_fetched
            + self.measure_columns_fetched
            + self.view_bitmaps_fetched
            + self.view_measure_columns_fetched
        )

    def structural_columns_fetched(self) -> int:
        """Columns fetched for the structural condition (the "rest of query"
        part of the paper's time breakdown): edge bitmaps plus view bitmaps."""
        return self.bitmap_columns_fetched + self.view_bitmaps_fetched

    def measure_fetch_columns(self) -> int:
        """Columns fetched to return measures (the mandatory bottom part of
        the Figures 6–7 breakdown)."""
        return self.measure_columns_fetched + self.view_measure_columns_fetched

    def conjunctions_requested(self) -> int:
        """Bitmap conjunctions asked of the cache; every request is exactly
        one hit or one miss, so this always equals ``hits + misses``."""
        return self.cache_hits + self.cache_misses

    def cache_hit_rate(self) -> float:
        """Fraction of conjunction requests served from cache (0.0 when the
        cache was never consulted)."""
        requested = self.conjunctions_requested()
        return self.cache_hits / requested if requested else 0.0

    def add(self, other: "IOStats") -> None:
        self.bitmap_columns_fetched += other.bitmap_columns_fetched
        self.measure_columns_fetched += other.measure_columns_fetched
        self.measure_values_fetched += other.measure_values_fetched
        self.view_bitmaps_fetched += other.view_bitmaps_fetched
        self.view_measure_columns_fetched += other.view_measure_columns_fetched
        self.partitions_joined += other.partitions_joined
        self.bitmap_bytes_fetched += other.bitmap_bytes_fetched
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions


@dataclass
class IOStatsCollector:
    """Accumulates :class:`IOStats` across queries.

    Increments are lock-protected: the daemon's bridge threads and its view
    maintainer query one engine (and thus one collector) at once, and
    ``count += 1`` is a read-modify-write that would drop updates otherwise.
    """

    stats: IOStats = field(default_factory=IOStats)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def reset(self) -> None:
        with self._lock:
            self.stats = IOStats()

    def snapshot(self) -> IOStats:
        """A copy of the counts, consistent as of one instant."""
        with self._lock:
            return replace(self.stats)

    def record_bitmap_fetches(self, n_base: int, n_view: int, nbytes: int) -> None:
        """``n_base`` edge-bitmap and ``n_view`` view-bitmap fetches of
        ``nbytes`` in all — one shard fold's I/O in one call."""
        with self._lock:
            self.stats.bitmap_columns_fetched += n_base
            self.stats.view_bitmaps_fetched += n_view
            self.stats.bitmap_bytes_fetched += nbytes

    def record_measure_fetch(self, n_values: int, is_view: bool = False) -> None:
        with self._lock:
            if is_view:
                self.stats.view_measure_columns_fetched += 1
            else:
                self.stats.measure_columns_fetched += 1
            self.stats.measure_values_fetched += n_values

    def record_partition_join(self, n_partitions: int) -> None:
        if n_partitions <= 1:
            return
        with self._lock:
            self.stats.partitions_joined += n_partitions
