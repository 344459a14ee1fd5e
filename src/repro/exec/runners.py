"""The process runner: a query's record ranges folded on worker processes.

:class:`ProcessRunner` is the one :class:`~repro.core.engine.ShardRunner`
that fans out, and so the one place a record range can fail on its own:
it cuts a query into ranges once the words it ANDs reach its
``min_fanout_words`` (the break-even ``benchmarks/bench_fanout_breakeven.py``
measures), sends them to :class:`~.procpool.ProcessShardPool` workers as
one task per worker over an mmap'd snapshot of the engine, and supervises
each range under its :class:`~repro.resilience.ResiliencePolicy` as the
replies land.  Every other query folds inline.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from functools import partial
from pathlib import Path

from ..columnstore import Bitmap, storage_generation
from ..core.engine import ShardRunner, range_tasks
from ..errors import ShardExecutionError
from .procpool import ProcessShardPool

__all__ = ["ProcessRunner"]


class ProcessRunner(ShardRunner):
    """Fold each range on a worker process over zero-copy mmap storage.

    The runner alone decides what its workers read, and nothing starts at
    construction.  The first query that fans out saves the engine into a
    private spool (a temp directory made under ``storage_dir``, default
    the system's) and starts the pool over it; a later fan-out that finds
    the pool's stamp behind its epoch saves again and advances the stamp.
    Readers of one epoch share one snapshot, so each epoch that fans out
    costs one save, and writes never know that workers exist.  Nothing
    already in ``storage_dir`` is read or overwritten; :meth:`close`
    stops the workers and removes the spool.  ``policy`` supervises every
    range of a query that fans out: retries, the per-range breaker and
    ``partial_ok`` zero segments.  ``count(name, n)`` publishes a counter."""

    # 2 workers on 2 vCPUs (2 to 8 ranges) lost every run up to 1M words
    # ANDed, won 8 of 10 at 4M and every run at 8M, and lost 4 of 5 at 16M
    # (EXPERIMENTS).
    min_fanout_words = 4_000_000

    def __init__(self, engine, workers: int, policy, storage_dir=None, registry=None,
                 count=None):
        self.engine, self.workers, self.policy = engine, workers, policy
        self._storage_dir, self._registry, self._count = storage_dir, registry, count
        self.pool = self.directory = None
        self._lock = threading.Lock()

    def conjunction(self, plan, env, ctx) -> Bitmap:
        """Fold inline below the break-even or at one range.  Otherwise
        publish the engine at the query's epoch, then send every range
        before any is waited on — one task per worker — and supervise
        each under the policy as its slot of the reply lands: a retry
        runs the range alone, and a range given up under ``partial_ok``
        is an all-zero segment.  Ranges partition the records in order,
        so concat *is* the merge."""
        n = env.relation.n_records
        if env.shards == 1 or len(plan.refs) * -(-n // 64) < self.min_fanout_words:
            return super().conjunction(plan, env, ctx)
        self._publish(env.epoch, n)
        tasks = range_tasks(n, env.shards)
        if self._count is not None:
            self._count("exec.shard_tasks", len(tasks))
        spans = [(task.start, task.stop) for task in tasks]
        routes = self.pool.dispatch(spans, plan.refs, ctx)
        segments = []
        for index, (shard, start, stop) in enumerate(tasks):
            fold = partial(self.pool.collect, index, spans[index], routes, plan.refs, ctx)
            segment = self.policy.run_shard(shard, start, stop, fold, ctx, generation=env.epoch)
            segments.append(Bitmap.zeros(stop - start) if segment is None else segment)
        return Bitmap.concat(segments)

    def _publish(self, epoch: int, n: int) -> None:
        """Save the engine into the spool and start the pool, or re-stamp
        a pool that lags ``epoch``.  A failure is a typed error naming
        ``[0, n)``; a pool that never started leaves no spool behind."""
        with self._lock:
            if self.pool is not None and self.pool.stamp[1] == epoch:
                return
            try:
                if self.directory is None:
                    self.directory = Path(tempfile.mkdtemp(
                        prefix="repro-procpool-", dir=self._storage_dir))
                self.engine.save(self.directory)
                stamp = (storage_generation(self.directory), epoch)
                if self.pool is None:
                    self.pool = ProcessShardPool(
                        self.directory, self.workers, stamp, registry=self._registry)
                else:
                    self.pool.set_stamp(stamp)
            except Exception as exc:
                if self.pool is None:
                    self._remove_spool()
                raise ShardExecutionError(
                    f"process pool unavailable: {exc} (records [0:{n}) unavailable)",
                    shard=0, start=0, stop=n,
                ) from exc

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        self._remove_spool()

    def _remove_spool(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None
