"""Batch query serving over one engine.

The ROADMAP's north star is a system that serves heavy query traffic; this
module adds the serving loop the paper leaves implicit.  A
:class:`QueryExecutor` answers :class:`GraphQuery` / :class:`QueryExpr` /
:class:`PathAggregationQuery` objects one at a time or as a batch, run in
order on the calling thread, while a :class:`BitmapCache` serves a
repeated query's structural answer without re-ANDing its columns.
Request concurrency is the caller's: the daemon answers reads on its own
bridge threads (:mod:`repro.serve.server`).  The executor has no thread
pool of its own; a batch pool's 4 threads were never faster than 1
(EXPERIMENTS, "One thread pool").

Every query's conjunction folds all of its records in one call, in the
thread that runs the query.

Reads run under a shared lock and writes (appends, view
materialization/drops) under an exclusive one; every mutation bumps the
engine epoch that cache keys embed, so a concurrent reader can never be
served a bitmap from a previous state.  Results are stamped with the
epoch they executed at, making concurrent runs replayable (and testable)
against a serial execution.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager, nullcontext

from ..core.engine import (
    GraphAnalyticsEngine,
    GraphQueryResult,
    MaterializationReport,
    PathAggregationResult,
)
from ..core.query import GraphQuery, PathAggregationQuery, QueryExpr
from ..core.record import GraphRecord
from ..errors import QueryCancelledError, QueryTimeoutError
from ..obs import Histogram
from ..resilience import CancelToken, QueryContext
from .cache import BitmapCache

__all__ = ["QueryExecutor"]

AnyQuery = GraphQuery | QueryExpr | PathAggregationQuery
AnyResult = GraphQueryResult | PathAggregationResult


class _ReadWriteLock:
    """Writer-preferring readers-writer lock.

    Any number of queries may evaluate concurrently; a mutation waits for
    in-flight readers, blocks new ones, runs alone, then releases the
    floodgates.  Writer preference keeps a steady query stream from
    starving appends.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextmanager
    def read(self, wait: bool = True) -> Iterator[bool]:
        """Shared hold, yielding whether it is held: ``wait=False`` never
        waits, and holds nothing while a writer holds or wants the lock."""
        with self._cond:
            while wait and (self._writing or self._writers_waiting):
                self._cond.wait()
            held = not (self._writing or self._writers_waiting)
            self._readers += held
        try:
            yield held
        finally:
            if held:
                with self._cond:
                    self._readers -= 1
                    if not self._readers:
                        self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class QueryExecutor:
    """Serve queries and query batches against one engine.

    Parameters
    ----------
    engine:
        The engine to serve.  The executor installs its cache on the
        engine; mutate the engine *through the executor's write methods*
        while serving (direct mutation concurrent with a read is
        unsynchronized).
    cache_mb:
        Byte budget (MiB) of the executor's own :class:`BitmapCache`,
        installed on the engine and exposed as ``executor.cache``.
        ``cache_mb=0``/None leaves caching off.
    registry:
        Optional :class:`repro.obs.MetricsRegistry` to attach the executor
        and its engine to: at each export it reads :meth:`metrics` and
        :meth:`GraphAnalyticsEngine.metrics` (``io.*``, ``cache.*``).
    default_timeout:
        Per-query deadline in seconds applied when a call does not pass
        its own ``timeout`` (None = no deadline).
    jobs, exec_mode, workers, storage_dir:
        Accepted and ignored: every query folds in one call in the thread
        that runs it.  The frozen benchmark's replay still passes all
        four (``benchmarks/e2e/layers.py:185-186`` and ``:317``).
    """

    # Reads ANDing fewer words answer in place under run_one(wait=False):
    # on one CPU such a fold costs no more than a thread-bridge round trip
    # (EXPERIMENTS, "A read that will not wait").
    nowait_words = 250_000

    def __init__(
        self,
        engine: GraphAnalyticsEngine,
        jobs: int | None = None,
        cache_mb: float | None = None,
        registry=None,
        default_timeout: float | None = None,
        exec_mode: str | None = None,
        workers: int | None = None,
        storage_dir=None,
    ):
        self.engine = engine
        self.cache = BitmapCache(int(cache_mb * (1 << 20))) if cache_mb else None
        self.registry = registry
        self.default_timeout = default_timeout
        engine.use_bitmap_cache(self.cache)
        # Served queries' latencies by kind; every other event a count.
        self._query_seconds = Histogram()
        self._aggregate_seconds = Histogram()
        self._lock = threading.Lock()
        self._events = dict.fromkeys(
            ("resilience.timeouts", "resilience.cancellations", "exec.explains"), 0
        )
        if registry is not None:
            engine.use_metrics(registry)
            registry.attach(self)
        self._rw = _ReadWriteLock()
        self._window = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    # -- read side -----------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._lock:
            self._events[name] += 1

    def metrics(self) -> dict[str, tuple]:
        """``{name: (type, value)}`` as an attached registry exports it.
        ``exec.request_seconds`` merges the two kinds' latencies, and
        ``exec.queries_served`` is its count."""
        served = self._query_seconds.merge(self._aggregate_seconds)
        with self._lock:
            out = {name: ("counter", n) for name, n in self._events.items()}
        out.update({
            "exec.request_seconds": ("histogram", served),
            "exec.query_seconds": ("histogram", self._query_seconds),
            "exec.aggregate_seconds": ("histogram", self._aggregate_seconds),
            "exec.queries_served": ("counter", served.count),
        })
        return out

    def _make_ctx(
        self, timeout: float | None, cancel: CancelToken | None
    ) -> QueryContext | None:
        """Fresh per-query context from call args + executor defaults;
        None when no governance applies (keeps the hot path allocation-free)."""
        timeout = timeout if timeout is not None else self.default_timeout
        if timeout is None and cancel is None:
            return None
        return QueryContext.start(timeout=timeout, token=cancel)

    def _execute_one(
        self, query: AnyQuery, fetch_measures: bool, ctx: QueryContext | None,
        lock: bool = True,
    ) -> AnyResult:
        start = time.perf_counter()
        try:
            if ctx is not None:
                ctx.check()
            with self._rw.read() if lock else nullcontext():
                if isinstance(query, PathAggregationQuery):
                    seconds = self._aggregate_seconds
                    result = self.engine.aggregate(query, ctx=ctx)
                else:
                    seconds = self._query_seconds
                    result = self.engine.query(
                        query, fetch_measures=fetch_measures, ctx=ctx
                    )
        except QueryTimeoutError:
            self._count("resilience.timeouts")
            raise
        except QueryCancelledError:
            self._count("resilience.cancellations")
            raise
        seconds.observe(time.perf_counter() - start)
        if self._window is not None:
            self._observe(query, result)
        return result

    def attach_window(self, window) -> None:
        """Stream every served query (and the views its plan used) into a
        :class:`repro.adaptive.WorkloadWindow`; ``None`` detaches."""
        self._window = window

    def _observe(self, query: AnyQuery, result: AnyResult) -> None:
        plan = getattr(result, "plan", None)
        if isinstance(query, PathAggregationQuery):
            views: tuple[str, ...] = ()
            if plan is not None:
                views = tuple(plan.structural_view_names) + tuple(
                    plan.structural_agg_view_names
                )
            self._window.record(query.query, views)
        elif isinstance(query, GraphQuery):
            views = tuple(plan.view_names) if plan is not None else ()
            self._window.record(query, views)
        else:
            # Boolean expressions evaluate per atom without a recorded
            # plan; observe the atoms so their element sets still shape
            # candidate generation.
            for atom in query.atoms():
                self._window.record(atom, ())

    def run_one(
        self,
        query: AnyQuery,
        fetch_measures: bool = True,
        timeout: float | None = None,
        cancel: CancelToken | None = None,
        ctx: QueryContext | None = None,
        wait: bool = True,
    ) -> AnyResult | None:
        """Answer one query under the shared read lock.

        ``timeout`` (seconds) overrides the executor default for this
        call; ``cancel`` attaches a shared
        :class:`~repro.resilience.CancelToken`.  Alternatively pass a
        ready-made ``ctx``.  Admission is the caller's: the daemon gates
        a request before it reaches the executor.

        ``wait=False`` answers on the calling thread only if nothing would
        make it wait, and otherwise returns None, holding and counting
        nothing: when a writer holds or wants the lock, the query is a
        boolean expression (no single plan), or its plan ANDs at least
        :attr:`nowait_words` words.
        """
        if ctx is None:
            ctx = self._make_ctx(timeout, cancel)
        if not wait:
            return self._answer_now(query, fetch_measures, ctx)
        return self._execute_one(query, fetch_measures, ctx)

    def _answer_now(
        self, query: AnyQuery, fetch_measures: bool, ctx: QueryContext | None
    ) -> AnyResult | None:
        if not isinstance(query, (GraphQuery, PathAggregationQuery)):
            return None
        with self._rw.read(wait=False) as held:
            if not held:
                return None
            # Sized under the lock, so no mutation can make the plan stale.
            refs = self.engine.physical_plan(query).refs
            if refs and len(refs) * -(-self.engine.n_records // 64) >= self.nowait_words:
                return None
            return self._execute_one(query, fetch_measures, ctx, lock=False)

    def run_batch(
        self,
        queries: Sequence[AnyQuery],
        fetch_measures: bool = True,
        return_errors: bool = False,
        timeout: float | None = None,
        cancel: CancelToken | None = None,
    ) -> list[AnyResult | Exception]:
        """Answer a batch in submission order on the calling thread.

        Failures are isolated to their slot: every other query still
        runs to completion.  With ``return_errors=True`` the failing
        slots hold the exception objects themselves; otherwise the first
        failure (in submission order) is raised after the batch finishes.
        ``timeout`` starts counting when each query begins executing, so
        later queries get their full budget; a shared ``cancel`` token is
        also checked before each query starts, so one ``cancel()`` stops
        the whole batch at the next boundary.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        results: list[AnyResult | Exception] = []
        for query in queries:
            if cancel is not None and cancel.cancelled:
                self._count("resilience.cancellations")
                results.append(QueryCancelledError("cancelled before start"))
                continue
            try:
                results.append(self.run_one(
                    query, fetch_measures, timeout=timeout, cancel=cancel
                ))
            except Exception as exc:
                results.append(exc)
        if not return_errors:
            for slot in results:
                if isinstance(slot, Exception):
                    raise slot
        return results

    # -- write side ----------------------------------------------------------

    def view_catalog(self) -> dict:
        """The engine's view catalog under the shared read lock, so a
        concurrent view swap cannot change it mid-listing."""
        with self._rw.read():
            return self.engine.view_catalog()

    def explain(
        self, query: AnyQuery, analyze: bool = False, fmt: str = "text"
    ) -> str:
        """EXPLAIN under the shared read lock, so ``analyze=True`` (which
        executes the query) can never observe a half-applied write."""
        with self._rw.read():
            text = self.engine.explain(query, analyze=analyze, fmt=fmt)
        self._count("exec.explains")
        return text

    def append_records(self, records: Iterable[GraphRecord]) -> int:
        """Exclusive append with incremental view maintenance; readers in
        flight finish first, and the epoch bump invalidates the cache."""
        with self._rw.write():
            return self.engine.append_records(records)

    def materialize_graph_views(self, *args, **kwargs) -> MaterializationReport:
        with self._rw.write():
            return self.engine.materialize_graph_views(*args, **kwargs)

    def materialize_aggregate_views(self, *args, **kwargs) -> MaterializationReport:
        with self._rw.write():
            return self.engine.materialize_aggregate_views(*args, **kwargs)

    def drop_all_views(self) -> None:
        with self._rw.write():
            self.engine.drop_all_views()

    # -- adaptive view maintenance --------------------------------------------

    def stage_view(self, elements) -> tuple[frozenset, "object"]:
        """Build a view bitmap *off-epoch*, under the shared read lock:
        concurrent queries keep flowing while the bitmap is computed.
        Returns ``(elements, staged_bitmap)`` ready for
        :meth:`commit_view_swap`; rows appended after staging are covered
        by the append-delta at commit time."""
        elements = frozenset(elements)
        with self._rw.read():
            return elements, self.engine.compute_view_bitmap(elements)

    def commit_view_swap(self, adds=(), drops=()) -> dict:
        """Atomically apply one batch of view adds and drops.

        ``adds`` is an iterable of ``(name, elements, staged)`` tuples
        (``name`` may be None for an auto-generated one); ``drops``
        is an iterable of view names.  The whole swap happens under one
        exclusive lock section, so a reader observes either the old view
        set or the new one — never a half-committed mix — and the epoch
        bump invalidates every cached bitmap from the old state.
        """
        added: list[str] = []
        dropped: list[str] = []
        with self._rw.write():
            for name, elements, staged in adds:
                added.append(self.engine.add_graph_view(elements, name, staged))
            drops = list(drops)
            if drops:
                dropped = self.engine.drop_decayed(drops)
            return {
                "added": added,
                "dropped": dropped,
                "epoch": self.engine.epoch,
                "n_records": self.engine.n_records,
            }

    def drop_decayed(self, names) -> list[str]:
        """Atomically drop the named views (unknown names ignored)."""
        return self.commit_view_swap(drops=list(names))["dropped"]
