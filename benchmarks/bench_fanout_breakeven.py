"""Where fanning a query's fold out pays: the runners' ``min_fanout_words``.

A query's structural conjunction ANDs ``len(refs) × ceil(n / 64)`` words.
The inline runner folds them in one call; the process runner can instead
cut the records into ranges and fold them on worker processes, paying a
pipe write and read per worker for the split.  This script measures both
sides through the interpreter's own fold path
(``interpreter._conjunction``, no cache, no tracer) over a synthetic
relation of ``--refs`` element columns (default 8), at sizes from 94 to
2 000 000 words per bitmap:

* ``inline``  — ``INLINE``: ``[0, n)`` in one call;
* ``process`` — ``ProcessRunner`` with ``--workers`` workers over its
  snapshot of the relation under a default ``ResiliencePolicy``, forced
  to fan out into ``--ranges`` ranges (results ship raw words); one
  warm-up fan-out starts the pool and publishes the snapshot before any
  timing;
* ``loop`` — the inline fold called from a coroutine on an event loop, as
  the daemon answers a read that will not wait;
* ``bridged`` — the same fold bridged off the loop the way the daemon
  bridges a read: ``loop.run_in_executor`` on a one-thread pool, with a
  disconnect-watcher task created, cancelled and reaped around it.

Both counts default to 2; the e2e workloads that fan out serve 4 ranges
on 2 workers.

Every column marks the same records (one per 64), so the answer is never
all-zero and the process pool ships every result word.  The break-even
of a runner is the smallest measured size from which fanning out beats
the inline fold at every larger size; ``None`` when it never does.
``QueryExecutor.nowait_words`` is the largest measured size whose fold on
the loop costs no more than the bridge's round trip (``bridged`` minus
``loop``): above it, a read would hold the loop longer than hopping off
it costs.

Run::

    PYTHONPATH=src python benchmarks/bench_fanout_breakeven.py \
        [--ranges 2] [--workers 2] [--refs 8] [--json out.json]

EXPERIMENTS.md records the table and the constants taken from it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from types import SimpleNamespace

import numpy as np

from repro.columnstore import Bitmap, MasterRelation, MeasureColumn, save_relation
from repro.core.engine import INLINE
from repro.core.engine.interpreter import ExecEnv, _conjunction
from repro.exec.runners import ProcessRunner
from repro.resilience import ResiliencePolicy

WORDS_PER_BITMAP = [
    94, 375, 1_563, 15_625, 31_250, 62_500, 125_000, 250_000, 500_000, 1_000_000, 2_000_000,
]


def _relation(words: int, refs: int) -> MasterRelation:
    n = 64 * words
    relation = MasterRelation()
    relation.set_record_count(n)
    rows = np.arange(0, n, 64)
    for edge_id in range(refs):  # a bitmap of its own per column
        bits = Bitmap.from_indices(n, rows)
        relation.put_column(edge_id, MeasureColumn(np.ones(rows.size), bits))
    return relation


def _env(relation, runner, ranges: int) -> ExecEnv:
    return ExecEnv(
        relation=relation, catalog=None, cache=None, tracer=None,
        runner=runner, shards=ranges, epoch=0,
        plan=None, agg_views={}, measured=set(),
    )


def _median_us(fn, reps: int) -> float:
    fn()  # warm: attach, first-touch pages
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _loop_and_bridged_us(fold, reps: int) -> tuple[float, float]:
    """Median µs of ``fold`` called on an event loop, and bridged off it."""
    pool = ThreadPoolExecutor(max_workers=1)

    async def timed(step) -> float:
        await step()  # warm: the pool's thread starts here
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            await step()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1e6

    async def on_loop() -> None:
        fold()

    async def bridged() -> None:
        idle = asyncio.StreamReader()  # never fed: the watcher waits
        watcher = asyncio.ensure_future(idle.read(1))
        await asyncio.get_running_loop().run_in_executor(pool, fold)
        watcher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await watcher

    async def both() -> tuple[float, float]:
        return await timed(on_loop), await timed(bridged)

    try:
        return asyncio.run(both())
    finally:
        pool.shutdown()


def measure(words: int, reps: int, ranges: int, workers: int, refs: int) -> dict:
    relation = _relation(words, refs)
    plan = SimpleNamespace(refs=tuple(("element", i) for i in range(refs)), key=None)
    expected = relation.fold(plan.refs)
    row = {"words_per_bitmap": words, "words_anded": refs * words}
    with tempfile.TemporaryDirectory(prefix="repro-breakeven-") as spool_root:
        engine = SimpleNamespace(epoch=0, save=partial(save_relation, relation))
        processes = ProcessRunner(engine, workers, ResiliencePolicy(), storage_dir=spool_root)
        processes.min_fanout_words = 0
        try:
            for name, runner in (("inline", INLINE), ("process", processes)):
                env = _env(relation, runner, ranges)
                # The warm-up: the process runner's first fan-out starts
                # its pool and publishes the snapshot, untimed.
                assert _conjunction(plan, env, None) == expected, name
                row[f"{name}_us"] = _median_us(lambda: _conjunction(plan, env, None), reps)
            env = _env(relation, INLINE, ranges)
            row["loop_us"], row["bridged_us"] = _loop_and_bridged_us(
                lambda: _conjunction(plan, env, None), reps
            )
        finally:
            processes.close()
    return row


def break_even(rows: list[dict], name: str) -> int | None:
    """Smallest ``words_anded`` from which ``name`` beats inline at every
    larger measured size."""
    found = None
    for row in reversed(rows):
        if row[f"{name}_us"] >= row["inline_us"]:
            break
        found = row["words_anded"]
    return found


def nowait_words(rows: list[dict]) -> int | None:
    """Largest ``words_anded`` whose fold on the loop costs no more than
    the bridge's round trip."""
    fits = [row["words_anded"] for row in rows
            if row["loop_us"] <= row["bridged_us"] - row["loop_us"]]
    return max(fits, default=None)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="also write the table and break-evens here")
    parser.add_argument("--reps", type=int, default=200, help="timed folds per cell")
    parser.add_argument("--ranges", type=int, default=2, help="ranges a query fans out into")
    parser.add_argument("--workers", type=int, default=2, help="worker processes")
    parser.add_argument("--refs", type=int, default=8, help="bitmaps ANDed per query")
    args = parser.parse_args()
    rows = []
    print(f"cpus={os.cpu_count()} refs={args.refs} ranges={args.ranges} workers={args.workers}")
    print(f"{'words/bitmap':>12} {'words ANDed':>12} {'inline µs':>10} {'process µs':>10} "
          f"{'loop µs':>10} {'bridged µs':>10}")
    for words in WORDS_PER_BITMAP:
        reps = max(30, args.reps * 94 // words)
        row = measure(words, reps, args.ranges, args.workers, args.refs)
        rows.append(row)
        print(f"{words:>12} {row['words_anded']:>12} {row['inline_us']:>10.1f} "
              f"{row['process_us']:>10.1f} {row['loop_us']:>10.1f} {row['bridged_us']:>10.1f}")
    result = {
        "cpus": os.cpu_count(), "refs": args.refs, "ranges": args.ranges,
        "workers": args.workers,
        "rows": rows,
        "process_break_even_words": break_even(rows, "process"),
        "nowait_words": nowait_words(rows),
    }
    print(f"process break-even: {result['process_break_even_words']} words")
    print(f"largest fold no dearer than the bridge: {result['nowait_words']} words")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
