"""I/O cost accounting for the column-store cost model.

Section 5.1 of the paper adopts a simple cost model: every bitmap column has
the same retrieval cost (all bitmaps have the number-of-records length), so
the cost of evaluating a query is proportional to the **number of bitmap
columns fetched**, and — for aggregate queries — to the number of measure
columns/values fetched.  The view-selection benefit function and the
experiment breakdowns (Figures 6–8 split "fetch measures" from "rest of
query") are stated in those units.

``IOStats`` counts exactly those quantities, plus the serving-layer
counters added with the concurrent executor: bitmap-conjunction cache
hits/misses/evictions and batch/parallel-task tallies.  The master relation
reports every column touch to the currently installed collector, so
benchmarks can report both wall-clock time and model cost.  The collector
serializes its increments behind a lock because the executor fans queries
out over a thread pool.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

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
    # Serving-layer counters (bitmap-conjunction cache + parallel executor).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    batches_served: int = 0
    parallel_tasks: int = 0

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
        self.batches_served += other.batches_served
        self.parallel_tasks += other.parallel_tasks


@dataclass
class IOStatsCollector:
    """Accumulates :class:`IOStats` across queries; usable as a context.

    Increments are lock-protected: the parallel executor issues queries from
    multiple threads against one engine (and thus one collector), and
    ``count += 1`` is a read-modify-write that would drop updates otherwise.

    When ``registry`` is set (a :class:`repro.obs.MetricsRegistry`, via
    :meth:`GraphAnalyticsEngine.use_metrics`), every increment is mirrored
    into process-wide ``io.*`` counters.  The mirror happens outside the
    lock — the metrics carry their own locks — and the local ``stats``
    remain the source of truth for per-query/per-batch deltas.
    """

    stats: IOStats = field(default_factory=IOStats)
    registry: object | None = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # name -> Counter memo, keyed to the registry it came from; avoids
        # a registry lookup (lock + dict probe) on every increment.
        self._metric_cache: dict[str, object] = {}
        self._cached_registry: object | None = None

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

    def reset(self) -> None:
        with self._lock:
            self.stats = IOStats()

    def record_bitmap_fetches(self, n_base: int, n_view: int, nbytes: int) -> None:
        """``n_base`` edge-bitmap and ``n_view`` view-bitmap fetches of
        ``nbytes`` in all — one shard fold's I/O in one call."""
        with self._lock:
            self.stats.bitmap_columns_fetched += n_base
            self.stats.view_bitmaps_fetched += n_view
            self.stats.bitmap_bytes_fetched += nbytes
        if self.registry is None:
            return
        if n_base:
            self._publish("io.bitmap_columns_fetched", n_base)
        if n_view:
            self._publish("io.view_bitmaps_fetched", n_view)
        if nbytes:
            self._publish("io.bitmap_bytes_fetched", nbytes)

    def record_measure_fetch(self, n_values: int, is_view: bool = False) -> None:
        with self._lock:
            if is_view:
                self.stats.view_measure_columns_fetched += 1
            else:
                self.stats.measure_columns_fetched += 1
            self.stats.measure_values_fetched += n_values
        self._publish(
            "io.view_measure_columns_fetched"
            if is_view
            else "io.measure_columns_fetched"
        )
        self._publish("io.measure_values_fetched", n_values)

    def record_partition_join(self, n_partitions: int) -> None:
        if n_partitions <= 1:
            return
        with self._lock:
            self.stats.partitions_joined += n_partitions
        self._publish("io.partitions_joined", n_partitions)

    # -- serving-layer counters ---------------------------------------------

    def record_cache_hit(self) -> None:
        with self._lock:
            self.stats.cache_hits += 1
        self._publish("io.cache_hits")

    def record_cache_miss(self) -> None:
        with self._lock:
            self.stats.cache_misses += 1
        self._publish("io.cache_misses")

    def record_cache_eviction(self, n: int = 1) -> None:
        with self._lock:
            self.stats.cache_evictions += n
        self._publish("io.cache_evictions", n)

    def record_batch(self, n_tasks: int) -> None:
        with self._lock:
            self.stats.batches_served += 1
            self.stats.parallel_tasks += n_tasks
        self._publish("io.batches_served")
        self._publish("io.parallel_tasks", n_tasks)
