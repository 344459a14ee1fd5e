"""What a query's fold costs on the daemon's loop, and bridged off it.

A query's structural conjunction ANDs ``len(refs) × ceil(n / 64)`` words,
records ``[0, n)`` in one call.  This script measures that fold through
the interpreter's own path (``interpreter.structural``, no cache, no
tracer) over a synthetic relation of ``--refs`` element columns (default
8), at sizes from 94 to 2 000 000 words per bitmap:

* ``inline``  — the fold called directly;
* ``loop`` — the fold called from a coroutine on an event loop, as the
  daemon answers a read that will not wait;
* ``bridged`` — the same fold bridged off the loop the way the daemon
  bridges a read: ``loop.run_in_executor`` on a one-thread pool, with a
  disconnect-watcher task created, cancelled and reaped around it.

By default every column marks the same records (one per 64), so the
answer is never all-zero.
``--density P`` instead sets each bit of each column independently with
probability ``P`` (the paper's edge bitmaps are about 7 % dense), so a
many-ref answer is mostly zero words.  ``--words N …`` replaces the
default sizes; a size whose ``refs × words`` exceeds 16M words is
refused (a 256-ref run at 2M words would need 4 GiB).
``QueryExecutor.nowait_words`` is the largest measured size whose fold on
the loop costs no more than the bridge's round trip (``bridged`` minus
``loop``): above it, a read would hold the loop longer than hopping off
it costs.

Run::

    PYTHONPATH=src python benchmarks/bench_fanout_breakeven.py \
        [--refs 8] [--density 0.07] [--words 15625 250000] [--json out.json]

EXPERIMENTS.md records the table and the constants taken from it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from repro.columnstore import Bitmap, MasterRelation, MeasureColumn
from repro.core.engine.interpreter import ExecEnv, structural

WORDS_PER_BITMAP = [
    94, 375, 1_563, 15_625, 31_250, 62_500, 125_000, 250_000, 500_000, 1_000_000, 2_000_000,
]
MAX_WORDS_ANDED = 16_000_000


def _relation(words: int, refs: int, density: float | None) -> MasterRelation:
    n = 64 * words
    relation = MasterRelation()
    relation.set_record_count(n)
    rng = np.random.default_rng(0)
    for edge_id in range(refs):  # a bitmap of its own per column
        if density is None:
            bits = Bitmap.from_indices(n, np.arange(0, n, 64))
        else:
            bits = Bitmap.from_bools(rng.random(n, dtype=np.float32) < density)
        relation.put_column(edge_id, MeasureColumn(np.ones(bits.count()), bits))
    return relation


def _env(relation, plan) -> ExecEnv:
    return ExecEnv(
        relation=relation, catalog=None, cache=None, tracer=None, epoch=0,
        plan=lambda _query: plan, agg_views={}, measured=set(),
    )


def _median_us(fn, reps: int) -> float:
    fn()  # warm: first-touch pages
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


def measure(words: int, reps: int, refs: int, density: float | None = None) -> dict:
    relation = _relation(words, refs, density)
    ids = tuple(("element", i) for i in range(refs))
    plan = SimpleNamespace(parts=ids, refs=ids, key=None)
    env = _env(relation, plan)

    def fold():
        return structural(None, env)[0]

    assert fold() == relation.fold(plan.refs)
    row = {"words_per_bitmap": words, "words_anded": refs * words}
    row["inline_us"] = _median_us(fold, reps)
    row["loop_us"], row["bridged_us"] = _loop_and_bridged_us(fold, reps)
    return row


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
    parser.add_argument("--refs", type=int, default=8, help="bitmaps ANDed per query")
    parser.add_argument("--density", type=float,
                        help="set each bit with this probability (default: one bit per word)")
    parser.add_argument("--words", type=int, nargs="+", metavar="N",
                        help="words per bitmap to measure (default: 94 … 2 000 000)")
    args = parser.parse_args()
    if args.density is not None and not 0.0 <= args.density <= 1.0:
        parser.error("--density must lie in [0, 1]")
    sizes = args.words or [w for w in WORDS_PER_BITMAP if args.refs * w <= MAX_WORDS_ANDED]
    too_big = [w for w in sizes if w < 1 or args.refs * w > MAX_WORDS_ANDED]
    if too_big:
        parser.error(f"--words {too_big}: each size needs 1 ≤ refs × words ≤ {MAX_WORDS_ANDED:,}")
    rows = []
    print(f"cpus={os.cpu_count()} refs={args.refs} "
          f"density={'one bit per word' if args.density is None else args.density}")
    print(f"{'words/bitmap':>12} {'words ANDed':>12} {'inline µs':>10} "
          f"{'loop µs':>10} {'bridged µs':>10}")
    for words in sizes:
        reps = max(30, args.reps * 94 // words)
        row = measure(words, reps, args.refs, args.density)
        rows.append(row)
        print(f"{words:>12} {row['words_anded']:>12} {row['inline_us']:>10.1f} "
              f"{row['loop_us']:>10.1f} {row['bridged_us']:>10.1f}")
    result = {
        "cpus": os.cpu_count(), "refs": args.refs, "density": args.density,
        "rows": rows,
        "nowait_words": nowait_words(rows),
    }
    print(f"largest fold no dearer than the bridge: {result['nowait_words']} words")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
