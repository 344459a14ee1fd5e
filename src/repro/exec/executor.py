"""Concurrent batch/stream query serving over one engine.

The ROADMAP's north star is a system that serves heavy query traffic; this
module adds the serving loop the paper leaves implicit.  A
:class:`QueryExecutor` accepts batches (or an unbounded stream) of
:class:`GraphQuery` / :class:`QueryExpr` / :class:`PathAggregationQuery`
objects and fans them out over a thread pool — the word-level numpy kernels
behind ``Bitmap.__and__`` release the GIL, so bitmap-heavy workloads scale
with cores — while a :class:`BitmapCache` serves a repeated query's
structural answer without re-ANDing its columns.

The executor also picks *how a query's conjunction runs* from its
``exec_mode`` and installs that :class:`~repro.core.engine.ShardRunner`
on the engine: in ``process`` mode a query whose conjunction ANDs enough
words to pay for it is cut into the engine's range count
(``GraphAnalyticsEngine(shards=N)``) and fans out to worker processes,
each range supervised by the executor's resilience policy and merged by
concatenation; every other query folds inline in one call (see
:mod:`.runners`).

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager, nullcontext
from itertools import islice

from ..core.engine import (
    INLINE,
    GraphAnalyticsEngine,
    GraphQueryResult,
    MaterializationReport,
    PathAggregationResult,
)
from ..core.query import GraphQuery, PathAggregationQuery, QueryExpr
from ..core.record import GraphRecord
from ..errors import (
    AdmissionRejectedError,
    QueryCancelledError,
    QueryTimeoutError,
)
from ..resilience import (
    AdmissionController,
    CancelToken,
    QueryContext,
    ResiliencePolicy,
)
from .cache import BitmapCache
from .runners import ProcessRunner

__all__ = ["QueryExecutor", "EXEC_MODES"]

EXEC_MODES = ("serial", "thread", "process")

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
    """Serve query batches/streams concurrently against one engine.

    Parameters
    ----------
    engine:
        The engine to serve.  The executor installs its cache on the
        engine; mutate the engine *through the executor's write methods*
        while serving (direct mutation concurrent with ``run_batch`` is
        unsynchronized).
    jobs:
        Worker threads per batch (1 = serial in the calling thread).
    cache_mb:
        Byte budget (MiB) of the executor's own :class:`BitmapCache`,
        installed on the engine and exposed as ``executor.cache``.
        ``cache_mb=0``/None leaves caching off.
    registry:
        Optional :class:`repro.obs.MetricsRegistry`.  When set, the
        executor publishes per-query latency histograms
        (``exec.request_seconds`` overall, ``exec.query_seconds`` /
        ``exec.aggregate_seconds`` by kind) plus batch-size and
        served-query counters, and installs the registry on the engine
        (:meth:`GraphAnalyticsEngine.use_metrics`) and the resilience
        policy so the I/O collector, bitmap cache, and policy publish too.
    admission:
        Optional :class:`repro.resilience.AdmissionController` gating
        every query; rejected queries raise
        :class:`~repro.errors.AdmissionRejectedError` without touching
        the engine.
    resilience:
        The :class:`repro.resilience.ResiliencePolicy` supervising the
        record ranges of a query that fans out to worker processes
        (``process`` mode): retries, per-range breakers and ``partial_ok``
        zero segments.  None means a default policy (3 attempts, breaker
        threshold 3); exposed as ``executor.resilience``.  An in-process
        fold is never supervised: its failure is a typed
        :class:`~repro.errors.ShardExecutionError` naming ``[0, n)``.
    default_timeout:
        Per-query deadline in seconds applied when a call does not pass
        its own ``timeout`` (None = no deadline).
    partial_ok:
        Default degraded-mode policy for queries served by this executor
        (overridable per call).
    exec_mode:
        Where a query's conjunction runs.  ``"serial"`` and ``"thread"``
        fold it inline in one call (``"thread"`` names request
        concurrency over ``jobs``, nothing more); ``"process"`` cuts a
        query ANDing at least the runner's ``min_fanout_words`` into
        ranges folded on a :class:`~repro.exec.ProcessShardPool` over a
        private snapshot the runner publishes (see :mod:`.runners`).
        None resolves to ``"thread"`` when ``jobs > 1``, else ``"serial"``;
        ``executor.exec_mode`` always names the mode in use.
    workers:
        Worker process count in ``process`` mode (defaults to ``jobs``);
        the other modes have no range-level workers.
    storage_dir:
        For ``process`` mode: where the runner makes its private spool
        (default the system temp directory).  Nothing already in it is
        read or written, and :meth:`close` removes the spool.  No write
        method saves anything: the first query of a new epoch that fans
        out republishes the engine to the workers.
    """

    # Reads ANDing fewer words answer in place under run_one(wait=False):
    # on one CPU such a fold costs no more than a thread-bridge round trip
    # (EXPERIMENTS, "A read that will not wait").  At most ProcessRunner's
    # min_fanout_words, so an in-place read never starts or waits on workers.
    nowait_words = 250_000

    def __init__(
        self,
        engine: GraphAnalyticsEngine,
        jobs: int = 1,
        cache_mb: float | None = None,
        registry=None,
        admission: AdmissionController | None = None,
        resilience: ResiliencePolicy | None = None,
        default_timeout: float | None = None,
        partial_ok: bool = False,
        exec_mode: str | None = None,
        workers: int | None = None,
        storage_dir=None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if exec_mode is not None and exec_mode not in EXEC_MODES:
            raise ValueError(
                f"exec_mode must be one of {EXEC_MODES} or None, got {exec_mode!r}"
            )
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if exec_mode is None:
            exec_mode = "thread" if jobs > 1 else "serial"
        self.exec_mode = exec_mode
        self.workers = workers if workers is not None else jobs
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        if registry is not None:
            self.resilience.registry = registry
        if exec_mode == "process":
            self._runner = ProcessRunner(
                engine, self.workers, self.resilience, storage_dir, registry, self._count
            )
        else:
            self._runner = INLINE
        self.engine = engine
        self.jobs = jobs
        self.cache = BitmapCache(int(cache_mb * (1 << 20))) if cache_mb else None
        self.registry = registry
        self.admission = admission
        self.default_timeout = default_timeout
        self.partial_ok = partial_ok
        engine.use_bitmap_cache(self.cache)
        if registry is not None:
            engine.use_metrics(registry)
            registry.gauge("engine.shards").set(getattr(engine, "n_shards", 1))
        engine.use_shard_runner(self._runner)
        self._rw = _ReadWriteLock()
        self._pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
        self._window = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._runner is not INLINE:
            self.engine.use_shard_runner(None)
            self._runner.close()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    # -- read side -----------------------------------------------------------

    def _count(self, name: str, n: float = 1) -> None:
        registry = self.registry
        if registry is not None:
            registry.counter(name).inc(n)

    def _make_ctx(
        self,
        timeout: float | None,
        cancel: CancelToken | None,
        partial_ok: bool | None,
    ) -> QueryContext | None:
        """Fresh per-query context from call args + executor defaults;
        None when no governance applies (keeps the hot path allocation-free)."""
        timeout = timeout if timeout is not None else self.default_timeout
        partial = partial_ok if partial_ok is not None else self.partial_ok
        if timeout is None and cancel is None and not partial:
            return None
        return QueryContext.start(timeout=timeout, token=cancel, partial_ok=partial)

    def _estimate_bytes(self) -> int:
        """Admission byte estimate: one uncompressed bitmap width — the
        unit every conjunction step allocates at least once."""
        return max(self.engine.n_records // 8, 1)

    def _execute_one(
        self, query: AnyQuery, fetch_measures: bool, ctx: QueryContext | None,
        lock: bool = True,
    ) -> AnyResult:
        registry = self.registry
        start = time.perf_counter() if registry is not None else 0.0
        try:
            if ctx is not None:
                ctx.check()
            with self._rw.read() if lock else nullcontext():
                if isinstance(query, PathAggregationQuery):
                    result = self.engine.aggregate(query, ctx=ctx)
                else:
                    result = self.engine.query(
                        query, fetch_measures=fetch_measures, ctx=ctx
                    )
        except QueryTimeoutError:
            self._count("resilience.timeouts")
            raise
        except QueryCancelledError:
            self._count("resilience.cancellations")
            raise
        if registry is not None:
            kind = "aggregate" if isinstance(query, PathAggregationQuery) else "query"
            elapsed = time.perf_counter() - start
            registry.histogram("exec.request_seconds").observe(elapsed)
            registry.histogram(f"exec.{kind}_seconds").observe(elapsed)
            registry.counter("exec.queries_served").inc()
            if getattr(result, "degraded", None) is not None:
                registry.counter("resilience.degraded_results").inc()
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
        partial_ok: bool | None = None,
        cancel: CancelToken | None = None,
        ctx: QueryContext | None = None,
        wait: bool = True,
    ) -> AnyResult | None:
        """Answer one query under the shared read lock.

        ``timeout`` (seconds) / ``partial_ok`` override the executor
        defaults for this call; ``cancel`` attaches a shared
        :class:`~repro.resilience.CancelToken`.  Alternatively pass a
        ready-made ``ctx``.  With an admission controller installed the
        query first passes the gate (possibly queueing up to its bounded
        wait) and may raise
        :class:`~repro.errors.AdmissionRejectedError`.

        ``wait=False`` answers on the calling thread only if nothing would
        make it wait, and otherwise returns None, holding and counting
        nothing: when a writer holds or wants the lock, the admission
        gate is closed, the query is a boolean expression (no single
        plan), or its plan ANDs at least :attr:`nowait_words` words.
        """
        if ctx is None:
            ctx = self._make_ctx(timeout, cancel, partial_ok)
        if not wait:
            return self._answer_now(query, fetch_measures, ctx)
        admission = self.admission
        if admission is None:
            return self._execute_one(query, fetch_measures, ctx)
        try:
            waited_from = time.perf_counter()
            with admission.admit(self._estimate_bytes()):
                if self.registry is not None:
                    self.registry.histogram("resilience.admission_wait_seconds").observe(
                        time.perf_counter() - waited_from
                    )
                self._count("resilience.admitted")
                return self._execute_one(query, fetch_measures, ctx)
        except AdmissionRejectedError:
            self._count("resilience.admission_rejected")
            raise

    def _answer_now(
        self, query: AnyQuery, fetch_measures: bool, ctx: QueryContext | None
    ) -> AnyResult | None:
        if not isinstance(query, (GraphQuery, PathAggregationQuery)):
            return None
        with ExitStack() as hold:
            if not hold.enter_context(self._rw.read(wait=False)):
                return None
            # Sized under the lock, so no mutation can make the plan stale.
            refs = self.engine.physical_plan(query).refs
            if refs and len(refs) * -(-self.engine.n_records // 64) >= self.nowait_words:
                return None
            if self.admission is not None:
                nbytes = self._estimate_bytes()
                if not self.admission.try_admit(nbytes):
                    return None
                hold.callback(self.admission.release, nbytes)
                self._count("resilience.admitted")
            return self._execute_one(query, fetch_measures, ctx, lock=False)

    def run_batch(
        self,
        queries: Sequence[AnyQuery],
        fetch_measures: bool = True,
        return_errors: bool = False,
        timeout: float | None = None,
        partial_ok: bool | None = None,
        cancel: CancelToken | None = None,
    ) -> list[AnyResult | Exception]:
        """Answer a batch, run in submission order; with ``jobs > 1`` it
        fans out over the pool, and results still align with that order.

        Failures are isolated to their slot: every other query still
        runs to completion.  With ``return_errors=True`` the failing
        slots hold the exception objects themselves; otherwise the first
        failure (in submission order) is raised after the batch finishes.
        ``timeout`` starts counting when each query begins executing, not
        at batch submission, so queued queries get their full budget; a
        shared ``cancel`` token is also checked before each queued query
        starts, so one ``cancel()`` stops the whole batch at the next
        boundary.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        queries = list(queries)
        if not queries:
            return []
        self.engine.collector.record_batch(len(queries))
        if self.registry is not None:
            self.registry.histogram("exec.batch_size").observe(len(queries))
        results: list[AnyResult | Exception | None] = [None] * len(queries)

        def run(index: int) -> None:
            if cancel is not None and cancel.cancelled:
                self._count("resilience.cancellations")
                results[index] = QueryCancelledError("cancelled before start")
                return
            try:
                results[index] = self.run_one(
                    queries[index],
                    fetch_measures,
                    timeout=timeout,
                    partial_ok=partial_ok,
                    cancel=cancel,
                )
            except Exception as exc:
                results[index] = exc

        if self._pool is None or len(queries) == 1:
            for index in range(len(queries)):
                run(index)
        else:
            # list() drains the lazy map iterator; run() captures failures
            # per slot, so the pool itself never sees an exception.
            list(self._pool.map(run, range(len(queries))))
        if not return_errors:
            for slot in results:
                if isinstance(slot, Exception):
                    raise slot
        return results  # type: ignore[return-value]

    def serve(
        self,
        queries: Iterable[AnyQuery],
        batch_size: int = 64,
        fetch_measures: bool = True,
        return_errors: bool = False,
        timeout: float | None = None,
        partial_ok: bool | None = None,
        cancel: CancelToken | None = None,
    ) -> Iterator[AnyResult | Exception]:
        """Stream results for an unbounded query feed, batch by batch."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        stream = iter(queries)
        while batch := list(islice(stream, batch_size)):
            yield from self.run_batch(
                batch,
                fetch_measures=fetch_measures,
                return_errors=return_errors,
                timeout=timeout,
                partial_ok=partial_ok,
                cancel=cancel,
            )

    # -- write side ----------------------------------------------------------

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
