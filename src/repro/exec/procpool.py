"""Process-parallel range folds over zero-copy mmap storage.

:class:`ProcessShardPool` keeps a persistent crew of worker *processes*
that fold record ranges of a conjunction out-of-process, sidestepping the
GIL for the CPU-bound word-level AND folds.  The design leans on three
pieces of shared-nothing plumbing:

* **Zero-copy attach** — workers never deserialize the relation.  Each
  worker memory-maps the persisted generation directory read-only through
  one :class:`~repro.columnstore.RelationBitmapReader`, so every attached
  process shares the same OS page cache for the column files; attaching
  costs one manifest read, not a data copy.  A task names record ranges
  ``(start, stop)``, slices of the one mapped store.
* **Plan fragments, not plans** — a task ships the physical plan's
  ``refs``: each :class:`~repro.core.rewrite.ConjunctionPart` resolved
  once, by the planner, to a storage-level ``(kind, token)`` pair
  (element id, view name), so the worker needs neither the catalog nor
  the planner.
* **Results ride the reply** — :meth:`ProcessShardPool.dispatch` sends a
  query's ranges as one task per worker, answered by one reply on its
  pipe: a pickled header with a ``(status, payload)`` slot per range,
  then the raw words of every non-empty result, read straight into the
  result's array (an all-zero result ships no words).

Every task is stamped with the pool's current ``(generation, epoch)``.
Workers lazily re-attach when the stamp's generation moves past their
mapped one, and refuse tasks whose generation the committed on-disk
manifest does not match (status ``"stale"``); the parent discards any
reply whose stamp no longer equals the pool's and re-dispatches.  Crashed
workers are respawned by the collector thread and their in-flight tasks
fail with :class:`WorkerCrashedError` — a plain ``RuntimeError``, so the
process runner's :class:`~repro.resilience.ResiliencePolicy` retries it
like any other range fault.  A worker that misses the query deadline
answers ``"timeout"``, surfaced as the same
:class:`~repro.errors.QueryTimeoutError` the in-process path raises.

When a waiter *abandons* a task — the serving layer's client
disconnected, or the deadline lapsed parent-side first — the parent
sends a best-effort ``("cancel", task_id)`` note down the worker's pipe
(for every task of the query still in flight), and the late reply, if
any, is dropped.  The worker checks for notes between fold parts and
answers such tasks ``"cancelled"`` without (further) work, so one dead
query never head-of-line blocks the next request through the same
worker.  The fold itself is the in-process one,
:func:`~repro.columnstore.and_refs`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from pathlib import Path

import numpy as np

from ..columnstore import Bitmap, RelationBitmapReader, and_refs, storage_generation
from ..errors import QueryCancelledError, QueryTimeoutError

__all__ = ["ProcessShardPool", "WorkerCrashedError", "WorkerTaskError", "StaleGenerationError"]

# Seconds between liveness sweeps / future polls.  Small enough that a
# cancelled query stops within one operator step, large enough not to
# busy-wait.
_POLL = 0.02
# How many times collect() re-dispatches a task whose worker reports the
# on-disk generation does not match the stamp before giving up.
_STALE_RETRIES = 3


class WorkerCrashedError(RuntimeError):
    """The worker process holding a task died before answering.

    Deliberately *not* a :class:`~repro.errors.ResilienceError`: the
    resilience policy treats it as an ordinary fold fault — charged to
    the range's breaker, retried, and skippable under ``partial_ok``.
    """


class WorkerTaskError(RuntimeError):
    """A task raised inside the worker; carries the remote traceback tail."""


class StaleGenerationError(RuntimeError):
    """Workers kept seeing a different committed generation than the stamp."""


# -- worker side --------------------------------------------------------------


def _send_words(conn, words: np.ndarray) -> None:
    """Write a result's words raw after the reply header: nothing pickled."""
    view = memoryview(words).cast("B")
    while view:
        view = view[os.write(conn.fileno(), view):]


def _read_bitmap(conn, length: int, n_words: int) -> Bitmap:
    """Read :func:`_send_words`' words straight into the result's array."""
    if not n_words:
        return Bitmap.zeros(length)
    words = np.empty(n_words, dtype=np.uint64)
    view = memoryview(words).cast("B")
    while view:
        got = os.readv(conn.fileno(), [view])
        if not got:
            raise EOFError("worker closed its pipe mid-reply")
        view = view[got:]
    return Bitmap.from_packed(length, words)


# During a fold, the worker polls its pipe for ``("cancel", task_id)``
# notes every this-many parts.  A poll is one non-blocking syscall, so
# the check costs well under a part's fold time at this stride while an
# abandoned query still stops within a few hundred microseconds.
_CANCEL_CHECK_EVERY = 128


def _worker_main(worker_id, storage_dir, conn):
    """Worker loop: attach lazily, fold fragments, ship bitmaps back.

    Transport is one duplex pipe per worker (no queues): a pipe has no
    cross-process lock to poison, so a SIGKILL'd worker never wedges its
    replacement — the parent just opens a fresh pipe for the respawn.
    A task folds each of its ranges in turn; one range's fault fills its
    own slot with ``"error"`` and the others still answer, while a
    deadline or cancel stops the whole task.

    Besides task tuples the pipe carries ``("cancel", task_id)`` notes:
    when a waiter abandons a task (client disconnect, lapsed deadline)
    the parent tells the worker, which stops folding dead work instead of
    head-of-line blocking the next query behind it.  Cancellation is
    best-effort — a note that loses the race with the reply is pruned and
    ignored — and every cancelled task still gets exactly one reply
    (status ``"cancelled"``), keeping the pipe's task/reply accounting
    intact.
    """
    storage_dir = Path(storage_dir)
    reader = None
    pending = []  # tasks buffered while draining mid-fold
    cancelled = set()  # task ids cancelled before their reply was sent
    done_hwm = -1  # highest task id already replied to (prunes stale notes)
    shutdown = False

    def drain(block):
        """Pull everything readable: cancels into the set, tasks into
        ``pending``.  Blocks for at most one message when ``block``."""
        nonlocal shutdown
        while True:
            if not block and not conn.poll(0):
                return
            block = False
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                shutdown = True
                return
            if msg is None:
                shutdown = True
                return
            if msg[0] == "cancel":
                if msg[1] > done_hwm:
                    cancelled.add(msg[1])
            else:
                pending.append(msg)

    def task_check(task_id, deadline):
        """The fold's check for one task: its wall-clock budget before
        every ref, the pipe for a cancel note every few refs."""
        refs = itertools.count()

        def check():
            if deadline is not None and time.monotonic() >= deadline:
                raise QueryTimeoutError()
            i = next(refs)
            if i and i % _CANCEL_CHECK_EVERY == 0:
                drain(block=False)
                if task_id in cancelled:
                    raise QueryCancelledError()

        return check

    def fold(start, stop, fragment, check, words) -> tuple:
        """Records ``[start, stop)``'s ``(status, payload)`` slot; a
        non-empty result's words go on ``words``, to follow the header."""
        try:
            result = and_refs(reader.ref_bitmap, fragment, stop - start, check, start=start)
        except (QueryTimeoutError, QueryCancelledError):
            raise  # the whole task stops
        except Exception as exc:  # this range's fault alone
            return "error", f"{type(exc).__name__}: {exc}"
        if not result.any():
            return "ok", (result.length, 0)
        words.append(np.ascontiguousarray(result.words()))
        return "ok", (result.length, words[-1].size)

    while True:
        if not pending:
            if shutdown:
                break
            drain(block=True)
            continue
        msg = pending.pop(0)
        task_id, ranges, stamp, fragment, budget = msg
        deadline = None if budget is None else time.monotonic() + budget
        try:
            if task_id in cancelled:
                cancelled.discard(task_id)
                done_hwm = max(done_hwm, task_id)
                conn.send((task_id, worker_id, stamp, "cancelled", None))
                continue
            generation = stamp[0]
            if reader is None or reader.generation != generation:
                if storage_generation(storage_dir) != generation:
                    done_hwm = max(done_hwm, task_id)
                    conn.send((task_id, worker_id, stamp, "stale", None))
                    continue
                reader = RelationBitmapReader(storage_dir)
            check, words = task_check(task_id, deadline), []
            try:
                slots = tuple(fold(*span, fragment, check, words) for span in ranges)
                status, payload = "ok", slots
                if any(slot[0] == "error" for slot in slots):
                    reader = None  # re-probe the manifest, as below
            except QueryTimeoutError:
                status, payload, words = "timeout", budget, []
            except QueryCancelledError:
                cancelled.discard(task_id)
                status, payload, words = "cancelled", None, []
            done_hwm = max(done_hwm, task_id)
            conn.send((task_id, worker_id, stamp, status, payload))
            for array in words:
                _send_words(conn, array)
        except Exception as exc:  # answer *something* or the task hangs
            # A failed attach may be a half-committed swap; drop the
            # mapping so the next task re-probes the manifest.
            reader = None
            done_hwm = max(done_hwm, task_id)
            detail = f"{type(exc).__name__}: {exc}"
            try:
                conn.send((task_id, worker_id, stamp, "error", detail))
            except Exception:
                break


# -- parent side --------------------------------------------------------------


class _Future:
    """One in-flight task's reply: the collector thread resolves it, and
    the waiting query thread takes it — or walks away (deadline/cancel
    fired), in which case the reply is dropped when it lands: it owns
    nothing outside the process."""

    __slots__ = ("_event", "reply", "task_id", "worker_id")

    def __init__(self, task_id=None, worker_id=None):
        self._event = threading.Event()
        self.reply = None
        self.task_id = task_id
        self.worker_id = worker_id

    def resolve(self, reply) -> None:
        self.reply = reply
        self._event.set()

    def wait(self, timeout: float) -> bool:
        return self._event.wait(timeout)


def _receive(conn) -> tuple:
    """One reply off a worker's pipe: the header, then — for an ``"ok"``
    task — the raw words of each non-empty slot, read into its bitmap."""
    task_id, worker_id, stamp, status, payload = conn.recv()
    if status == "ok":
        payload = tuple(
            (kind, _read_bitmap(conn, *body) if kind == "ok" else body)
            for kind, body in payload
        )
    return task_id, worker_id, stamp, status, payload


def _budget(ctx) -> float | None:
    """Check the query and return the seconds its deadline leaves."""
    if ctx is None:
        return None
    ctx.check()
    return None if ctx.deadline is None else ctx.deadline.remaining()


class ProcessShardPool:
    """Persistent worker-process pool bound to one storage directory.

    Parameters
    ----------
    storage_dir:
        A committed engine layout (``engine.save`` target).  Workers
        attach to its current generation with read-only mmaps.
    workers:
        Number of worker processes.  A query's ranges route to workers by
        ``index % workers``, so a worker re-serves the same ranges across
        queries of one cut (its mapped pages stay hot).
    stamp:
        The pool's initial ``(generation, epoch)``; every task carries
        the stamp current at submit time, and replies stamped otherwise
        are discarded.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; the pool tallies
        ``pool.tasks``, ``pool.worker_respawns``, ``pool.stale_discarded``
        and keeps a ``pool.workers`` gauge.

    Workers start by ``forkserver`` where available (``fork`` would
    duplicate the parent's thread locks), else by ``spawn``.
    """

    def __init__(self, storage_dir, workers: int, stamp: tuple[int, int], registry=None):
        if workers < 1:
            raise ValueError("process pool needs at least 1 worker")
        self._storage_dir = str(storage_dir)
        self._n_workers = workers
        self._stamp = tuple(stamp)
        self._registry = registry
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "forkserver" if "forkserver" in methods else "spawn"
        )
        self._task_counter = itertools.count()
        self._lock = threading.Lock()
        self._futures: dict[int, _Future] = {}
        self._closing = False
        # One duplex pipe per worker (send under the per-worker lock; the
        # collector is the only receiver).  Pipes, unlike Queues, share no
        # lock with the child, so a crashed worker cannot poison the
        # channel for its respawned replacement.
        self._conns: list = [None] * workers
        self._conn_locks = [threading.Lock() for _ in range(workers)]
        self._procs: list = [None] * workers
        for i in range(workers):
            self._spawn(i)
        self._collector = threading.Thread(
            target=self._collect, name="procpool-collector", daemon=True
        )
        self._collector.start()
        if registry is not None:
            registry.gauge("pool.workers").set(workers)

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, worker_id: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._storage_dir, child_conn),
            name=f"repro-shard-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds the only read end now
        self._conns[worker_id] = parent_conn
        self._procs[worker_id] = proc

    def close(self) -> None:
        """Stop workers and the collector; idempotent."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            pending = list(self._futures.values())
            self._futures.clear()
        for fut in pending:
            fut.resolve((None, None, None, "error", "pool closed"))
        for worker_id, conn in enumerate(self._conns):
            try:
                with self._conn_locks[worker_id]:
                    conn.send(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._collector.is_alive():
            self._collector.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- stamps ---------------------------------------------------------------

    @property
    def stamp(self) -> tuple[int, int]:
        return self._stamp

    def set_stamp(self, stamp: tuple[int, int]) -> None:
        """Advance the pool's ``(generation, epoch)`` after a re-save.

        In-flight replies carrying the old stamp are discarded by their
        waiters and re-dispatched under the new one.
        """
        self._stamp = tuple(stamp)

    @property
    def workers(self) -> int:
        return self._n_workers

    def worker_pids(self) -> list[int]:
        """Live worker pids (test hook for crash injection)."""
        return [p.pid for p in self._procs]

    # -- collector ------------------------------------------------------------

    def _collect(self) -> None:
        """Drain replies, resolve futures, respawn dead workers."""
        while True:
            if self._closing:
                return
            with self._lock:
                conns = [c for c in self._conns if c is not None]
            try:
                ready = multiprocessing.connection.wait(conns, timeout=_POLL)
            except (OSError, ValueError):
                # A conn was closed/replaced under us; re-snapshot.
                ready = []
            for conn in ready:
                try:
                    reply = _receive(conn)
                except (EOFError, OSError):
                    continue  # dead worker; the sweep below respawns it
                with self._lock:
                    fut = self._futures.pop(reply[0], None)
                if fut is not None:  # else the pool is closing
                    fut.resolve(reply)
            self._sweep_dead_workers()

    def _sweep_dead_workers(self) -> None:
        for worker_id, proc in enumerate(self._procs):
            if proc.is_alive():
                continue
            with self._lock:
                if self._closing:
                    return
                orphans = [
                    (tid, fut)
                    for tid, fut in self._futures.items()
                    if fut.worker_id == worker_id
                ]
                for tid, _ in orphans:
                    del self._futures[tid]
                try:
                    self._conns[worker_id].close()
                except Exception:
                    pass
                self._spawn(worker_id)  # fresh process, fresh pipe
            if self._registry is not None:
                self._registry.counter("pool.worker_respawns").inc()
            detail = f"worker {worker_id} died (exit code {proc.exitcode})"
            for tid, fut in orphans:
                fut.resolve((tid, worker_id, None, "crashed", detail))

    # -- execution ------------------------------------------------------------

    def _submit(self, worker_id, ranges, stamp, fragment, budget) -> _Future:
        """Send worker ``worker_id`` one task: ``fragment`` over the
        ``(start, stop)`` record ``ranges``, answered by one reply."""
        task_id = next(self._task_counter)
        fut = _Future(task_id, worker_id)
        with self._lock:
            if self._closing:
                raise RuntimeError("process pool is closed")
            self._futures[task_id] = fut
            conn = self._conns[worker_id]
        try:
            with self._conn_locks[worker_id]:
                conn.send((task_id, tuple(ranges), stamp, fragment, budget))
        except (OSError, BrokenPipeError):
            # The worker died between the snapshot and the send; resolve
            # the future crashed so the policy retries after respawn.
            with self._lock:
                self._futures.pop(task_id, None)
            detail = f"worker {worker_id} pipe broken at submit"
            fut.resolve((task_id, worker_id, None, "crashed", detail))
        if self._registry is not None:
            self._registry.counter("pool.tasks").inc()
        return fut

    def _cancel_task(self, fut: _Future) -> None:
        """Best-effort note to the worker that the waiter walked away, so
        it stops folding (or never starts) the abandoned task instead of
        blocking the next query behind dead work.  Failure is fine — the
        collector drops whatever reply eventually arrives."""
        try:
            with self._conn_locks[fut.worker_id]:
                self._conns[fut.worker_id].send(("cancel", fut.task_id))
        except Exception:
            return
        if self._registry is not None:
            self._registry.counter("pool.tasks_cancelled").inc()

    def _wait(self, fut: _Future, ctx) -> tuple:
        """Block on a future, keeping the query's deadline/cancel checks
        cooperative parent-side; abandoning on a raise."""
        try:
            while not fut.wait(_POLL):
                if ctx is not None:
                    ctx.check()
            # The deadline may have lapsed while the task was in flight;
            # honour it within one round-trip, like the in-process path
            # honours it within one operator step.
            if ctx is not None:
                ctx.check()
        except BaseException:
            if fut.reply is None:
                self._cancel_task(fut)
            raise
        return fut.reply

    def dispatch(self, ranges, fragment: tuple, ctx=None) -> dict:
        """Send ``fragment`` over the ``(start, stop)`` record ``ranges``
        as one task per worker they route to (range ``i`` to worker
        ``i % workers``), before anyone waits; returns the ``{i: (future,
        slot)}`` routes :meth:`collect` consumes.  A group the closing
        pool refuses is left out: :meth:`collect` then raises for its
        ranges."""
        stamp, budget, routes = self._stamp, _budget(ctx), {}
        for worker_id in range(min(self._n_workers, len(ranges))):
            group = range(worker_id, len(ranges), self._n_workers)
            try:
                fut = self._submit(worker_id, [ranges[i] for i in group], stamp, fragment, budget)
            except RuntimeError:
                continue
            routes.update((index, (fut, slot)) for slot, index in enumerate(group))
        return routes

    def collect(self, index: int, span, routes: dict, fragment: tuple, ctx=None) -> Bitmap:
        """Range ``index``'s bitmap, records ``span = (start, stop)``:
        from its slot of the :meth:`dispatch` reply on the first call, by
        a task of its own on any later call (a retry) and whenever a
        reply must be redone — its stamp lags the pool's (a generation
        swap mid-flight: the stale result is never returned), the worker
        saw another generation on disk (at most ``_STALE_RETRIES``
        times), or a stray cancel.  Worker crashes and in-task errors
        raise plain ``RuntimeError`` subclasses for the resilience policy
        to retry; deadline misses raise
        :class:`~repro.errors.QueryTimeoutError`.  A deadline or cancel
        while waiting cancels every task of ``routes`` still in flight."""
        stale_left = _STALE_RETRIES
        where = f"records [{span[0]}:{span[1]})"
        while True:
            fut, slot = routes.pop(index, None) or (
                self._submit(
                    index % self._n_workers, [span], self._stamp, fragment, _budget(ctx)
                ),
                0,
            )
            try:
                _, _, reply_stamp, status, payload = self._wait(fut, ctx)
            except BaseException:
                for other in {batch for batch, _ in routes.values()} - {fut}:
                    if other.reply is None:
                        self._cancel_task(other)
                routes.clear()
                raise
            if status == "ok":
                if reply_stamp == self._stamp:
                    kind, body = payload[slot]
                    if kind == "ok":
                        return body
                    raise WorkerTaskError(f"{where}: {body}")
                if self._registry is not None:
                    self._registry.counter("pool.stale_discarded").inc()
            elif status == "stale":
                if reply_stamp == self._stamp:
                    stale_left -= 1
                    if stale_left <= 0:
                        raise StaleGenerationError(
                            f"{where}: workers see generation "
                            f"{storage_generation(self._storage_dir)} on disk "
                            f"but the pool stamp is {self._stamp[0]}"
                        )
                    time.sleep(_POLL)
            elif status == "timeout":
                raise QueryTimeoutError(
                    f"query deadline of {payload:g}s exceeded", budget=payload
                )
            elif status == "crashed":
                raise WorkerCrashedError(payload)
            elif status != "cancelled":  # only abandoned tasks are cancelled
                raise WorkerTaskError(f"{where}: {payload}")

    def execute(self, start: int, stop: int, fragment: tuple, ctx=None) -> Bitmap:
        """Fold ``fragment`` over records ``[start, stop)`` remotely, alone."""
        return self.collect(0, (start, stop), {}, fragment, ctx)
