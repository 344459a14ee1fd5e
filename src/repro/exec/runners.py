"""The two parallel :class:`~repro.core.engine.ShardRunner` strategies.

A query is cut into ranges only once the words it ANDs reach the runner's
``min_fanout_words``, the break-even ``benchmarks/bench_fanout_breakeven.py``
measures.  :class:`ThreadRunner` overrides ``map``: range folds fan out
over a dedicated thread pool.  :class:`ProcessRunner` overrides
``folds``: the ranges go to :class:`~.procpool.ProcessShardPool` workers
as one task per worker over an mmap'd save of the engine, and the calling
thread supervises them in order as the replies land.
"""

from __future__ import annotations

import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from ..columnstore import RelationBitmapReader, storage_generation
from ..core.engine import ShardRunner
from ..errors import PersistenceError
from .procpool import ProcessShardPool

__all__ = ["ThreadRunner", "ProcessRunner"]


class ThreadRunner(ShardRunner):
    """Fan range folds out over ``workers`` threads — a pool of their own:
    batch workers submitting range folds back into the batch pool could
    exhaust it and deadlock.  ``count(name, n)`` publishes a counter."""

    # 2 threads on 2 vCPUs (2 to 8 ranges) won 1 of 10 runs at 1M words
    # ANDed, 6 of 10 at 4M, and every run at 8M and 16M (EXPERIMENTS).
    min_fanout_words = 8_000_000

    def __init__(self, workers: int, count=None):
        self._threads = ThreadPoolExecutor(workers, thread_name_prefix="shard")
        self._count = count

    def map(self, fn, tasks) -> list:
        if self._count is not None:
            self._count("exec.shard_tasks", len(tasks))
        # list() re-raises the first worker exception, in range order.
        return list(self._threads.map(fn, tasks))

    def close(self) -> None:
        self._threads.shutdown(wait=True)


class ProcessRunner(ShardRunner):
    """Fold each range on a worker process over zero-copy mmap storage.

    Workers attach to ``storage_dir`` in place when it holds a committed
    save of the engine's record count (the CLI passes the database it just
    loaded); otherwise the engine is spooled to a private temp directory,
    removed on :meth:`close`, or at once if the pool fails to start.  The
    owner calls :meth:`resync` after every mutation so the workers see the
    new generation.  ``count(name, n)`` publishes a counter."""

    # 2 workers on 2 vCPUs (2 to 8 ranges) lost every run up to 1M words
    # ANDed, won 8 of 10 at 4M and every run at 8M, and lost 4 of 5 at 16M
    # (EXPERIMENTS).
    min_fanout_words = 4_000_000

    def __init__(self, engine, workers: int, storage_dir=None, registry=None, count=None):
        self._count = count
        self._owned = storage_dir is None or not _holds(Path(storage_dir), engine)
        if self._owned:
            storage_dir = tempfile.mkdtemp(prefix="repro-procpool-")
        self.directory = Path(storage_dir)
        try:
            if self._owned:
                engine.save(self.directory)
            stamp = (storage_generation(self.directory), engine.epoch)
            self.pool = ProcessShardPool(self.directory, workers, stamp, registry=registry)
        except BaseException:
            self._remove_spool()
            raise

    def folds(self, tasks, plan, env, ctx) -> list:
        """Send every range before any is waited on — one task per worker
        — and hand back one fold per range: its first call reads the
        range's slot of the reply, a retry runs the range alone.  When the
        pool's stamp lags the query's epoch (a mutation bypassed
        :meth:`resync`) the folds run in-process."""
        if self._count is not None:
            self._count("exec.shard_tasks", len(tasks))
        if self.pool.stamp[1] != env.epoch:
            return super().folds(tasks, plan, env, ctx)
        spans = [(task.start, task.stop) for task in tasks]
        routes = self.pool.dispatch(spans, plan.refs, ctx)
        return [
            partial(self.pool.collect, index, span, routes, plan.refs, ctx)
            for index, span in enumerate(spans)
        ]

    def resync(self, engine) -> None:
        """Republish the engine to the pool's directory and advance the
        stamp; stale in-flight replies get discarded."""
        engine.save(self.directory)
        self.pool.set_stamp((storage_generation(self.directory), engine.epoch))

    def close(self) -> None:
        self.pool.close()
        self._remove_spool()

    def _remove_spool(self) -> None:
        if self._owned:
            shutil.rmtree(self.directory, ignore_errors=True)


def _holds(directory: Path, engine) -> bool:
    """Whether ``directory`` is a committed save that is plausibly this
    engine's current state: one of as many records, since workers fold the
    store's bits over the ranges the parent cuts from its own count."""
    try:
        return RelationBitmapReader(directory).n_records == engine.n_records
    except (PersistenceError, OSError, TypeError, ValueError):
        return False  # no committed save there, or an unreadable one
