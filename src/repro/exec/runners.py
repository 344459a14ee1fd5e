"""The two parallel :class:`~repro.core.engine.ShardRunner` strategies.

:class:`ThreadRunner` overrides ``map``: shard tasks fan out over a
dedicated thread pool (the word-level numpy AND kernels release the GIL).
:class:`ProcessRunner` overrides ``folds``: a query's shards go to
:class:`~.procpool.ProcessShardPool` workers as one task per worker over
an mmap'd save of the engine, and the calling thread — no pool of its
own, its folds run in other processes — supervises them in order as the
replies land.  Supervision stays in the interpreter, parent-side.
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
    """Fan shard tasks out over ``workers`` threads — a pool of their own:
    batch workers submitting shard tasks back into the batch pool could
    exhaust it and deadlock.  ``count(name, n)`` publishes a counter."""

    def __init__(self, workers: int, count=None):
        self._threads = ThreadPoolExecutor(workers, thread_name_prefix="shard")
        self._count = count

    def map(self, fn, tasks) -> list:
        if self._count is not None:
            self._count("exec.shard_tasks", len(tasks))
        # list() re-raises the first worker exception, in shard order.
        return list(self._threads.map(fn, tasks))

    def close(self) -> None:
        self._threads.shutdown(wait=True)


class ProcessRunner(ShardRunner):
    """Fold each shard on a worker process over zero-copy mmap storage.

    Workers attach to ``storage_dir`` in place when it holds a committed
    save cut where this engine's shards are (the CLI passes the database it
    just loaded); otherwise the engine is spooled to a private temp directory,
    removed on :meth:`close`, or at once if the pool fails to start.  The
    owner calls :meth:`resync` after every mutation so the workers see the
    new generation.  ``count(name, n)`` publishes a counter."""

    def __init__(self, engine, workers: int, storage_dir=None, registry=None, count=None):
        self._count = count
        directory = Path(storage_dir) if storage_dir is not None else None
        self._owned = directory is None or not _holds(directory, engine)
        if self._owned:
            directory = Path(tempfile.mkdtemp(prefix="repro-procpool-"))
        self.directory = directory
        try:
            if self._owned:
                engine.save(directory)
            stamp = (storage_generation(directory), engine.epoch)
            self.pool = ProcessShardPool(directory, workers, stamp, registry=registry)
        except BaseException:
            self._remove_spool()
            raise

    def folds(self, tasks, plan, env, ctx) -> list:
        """Send every shard before any is waited on — one task per worker
        — and hand back one fold per task: the first call of a shard's
        fold reads its slot of the reply, a retry runs the shard alone.
        When the pool's stamp lags the query's epoch (a mutation bypassed
        :meth:`resync`) the folds run in-process — correctness never
        depends on the resync."""
        if self._count is not None:
            self._count("exec.shard_tasks", len(tasks))
        if self.pool.stamp[1] != env.epoch:
            return super().folds(tasks, plan, env, ctx)
        routes = self.pool.dispatch([task.shard for task in tasks], plan.refs, ctx)
        return [
            partial(self.pool.collect, task.shard, routes, plan.refs, ctx)
            for task in tasks
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
    engine's current state: cut at the engine's shard sizes, since workers
    fold the store's record ranges and the parent merges at its own."""
    try:
        stored = RelationBitmapReader(directory).shard_records
    except (PersistenceError, OSError, TypeError, ValueError):
        return False  # no committed save there, or an unreadable one
    return stored == engine.relation.shard_records
