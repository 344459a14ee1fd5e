"""The process runner: a query's record ranges folded on worker processes.

:class:`ProcessRunner` is the one :class:`~repro.core.engine.ShardRunner`
that fans out, and so the one place a record range can fail on its own:
it cuts a query into ranges once the words it ANDs reach its
``min_fanout_words`` (the break-even ``benchmarks/bench_fanout_breakeven.py``
measures), sends them to :class:`~.procpool.ProcessShardPool` workers as
one task per worker over an mmap'd save of the engine, and supervises
each range under its :class:`~repro.resilience.ResiliencePolicy` as the
replies land.  Every other query folds inline.
"""

from __future__ import annotations

import shutil
import tempfile
from functools import partial
from pathlib import Path

from ..columnstore import Bitmap, RelationBitmapReader, storage_generation
from ..core.engine import ShardRunner, range_tasks
from ..errors import PersistenceError
from .procpool import ProcessShardPool

__all__ = ["ProcessRunner"]


class ProcessRunner(ShardRunner):
    """Fold each range on a worker process over zero-copy mmap storage.

    Workers attach to ``storage_dir`` in place when it holds a committed
    save of the engine's record count (the CLI passes the database it just
    loaded); otherwise the engine is spooled to a private temp directory,
    removed on :meth:`close`, or at once if the pool fails to start.  The
    owner calls :meth:`resync` after every mutation so the workers see the
    new generation.  ``policy`` supervises every range of a query that
    fans out: retries, the per-range breaker and ``partial_ok`` zero
    segments.  ``count(name, n)`` publishes a counter."""

    # 2 workers on 2 vCPUs (2 to 8 ranges) lost every run up to 1M words
    # ANDed, won 8 of 10 at 4M and every run at 8M, and lost 4 of 5 at 16M
    # (EXPERIMENTS).
    min_fanout_words = 4_000_000

    def __init__(self, engine, workers: int, policy, storage_dir=None, registry=None,
                 count=None):
        self.policy = policy
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

    def conjunction(self, plan, env, ctx) -> Bitmap:
        """Fold inline below the break-even, at one range, or when the
        pool's stamp lags the query's epoch (a mutation bypassed
        :meth:`resync`).  Otherwise send every range before any is waited
        on — one task per worker — and supervise each under the policy as
        its slot of the reply lands: a retry runs the range alone, and a
        range given up under ``partial_ok`` is an all-zero segment.
        Ranges partition the records in order, so concat *is* the merge."""
        n = env.relation.n_records
        if (env.shards == 1 or self.pool.stamp[1] != env.epoch
                or len(plan.refs) * -(-n // 64) < self.min_fanout_words):
            return super().conjunction(plan, env, ctx)
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
