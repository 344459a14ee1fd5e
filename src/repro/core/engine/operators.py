"""The operator layer: plan execution primitives over one storage backend.

These are the physical operators the plan interpreter composes: fold a
plan's canonical part list into a structural bitmap through the storage
layer's one fold entry (memoizing every prefix when a cache is installed),
and describe the record-range shards a backend exposes so the same fold
can run once per shard and merge by concatenation.

Every operator takes the backend (a relation or one shard of one)
explicitly instead of reaching back into the engine, so the one
in-process fold (:meth:`~.interpreter.ShardRunner.fold`) serves the
unsharded engine (a single task over the whole relation) and every shard
of a sharded one, inline or on the executor's thread pool.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from weakref import WeakKeyDictionary

from ...columnstore.bitmap import Bitmap
from ..rewrite import ConjunctionPart

__all__ = [
    "MERGED_SHARD",
    "NULL_SPAN",
    "ShardTask",
    "shard_tasks",
    "part_token",
    "conjunction",
]

# Shared no-op context for the tracing hooks: reusable and reentrant, so
# one instance serves every untraced span site without allocation.
NULL_SPAN = nullcontext()

# Cache-key shard id for a conjunction already merged across every shard.
# Real shards are numbered from 0, so -1 can never collide; a warm sharded
# query is then a single lookup instead of a fan-out plus concatenation.
MERGED_SHARD = -1


def part_token(part: ConjunctionPart) -> str:
    """Stable display string for a conjunction part's bitmap column."""
    token = part.token
    if isinstance(token, str):
        return token
    try:
        u, v = token
        return f"{u}->{v}"
    except (TypeError, ValueError):
        return repr(token)


@dataclass(frozen=True)
class ShardTask:
    """One unit of shard-parallel work: a record-range shard plus its
    global row offset (global row = ``start`` + shard-local row)."""

    shard: int
    start: int
    relation: object

    def __repr__(self) -> str:  # keep worker logs short
        return f"ShardTask(shard={self.shard}, start={self.start})"


# backend -> (shard relations, starts, their tasks): shard_tasks' memo.
_TASKS: WeakKeyDictionary = WeakKeyDictionary()


def shard_tasks(backend) -> tuple[ShardTask, ...]:
    """The backend's record-range shards as ordered work items.

    A plain :class:`MasterRelation` yields one task covering everything;
    a :class:`~repro.columnstore.sharded.ShardedTable` yields one per
    shard, in record order — so ``Bitmap.concat`` over per-task results is
    always the order-preserving merge.

    Several shards' tasks are built once per geometry: the memo is keyed
    on the backend and compared against its current relations (by
    identity, so a shard replaced in place gets a new task) and starts.
    A single relation is its own shard, and a memo holding it would keep
    the weak key alive, so its one task is built per call.
    """
    relations, starts = backend.shard_relations(), backend.shard_starts()
    memo = _TASKS.get(backend)
    if memo is not None and memo[0] == relations and memo[1] == starts:
        return memo[2]
    tasks = tuple(
        ShardTask(i, start, relation)
        for i, (relation, start) in enumerate(zip(relations, starts, strict=True))
    )
    if len(tasks) > 1:
        _TASKS[backend] = (relations, starts, tasks)
    return tasks


def _fetch(relation, ref, tracer, ctx) -> Bitmap:
    """One ref through the storage fold; under a tracer, with the counters
    a traced query reports per part (an element the shard never saw
    touched nothing)."""
    bitmap = relation.fold((ref,), ctx)
    if tracer is not None and (ref[0] != "element" or relation.has_element(ref[1])):
        tracer.add("bitmaps_fetched")
        tracer.add("bytes_touched", bitmap.nbytes())
    return bitmap


def conjunction(
    relation,
    plan,
    cache,
    epoch: int,
    shard: int = 0,
    tracer=None,
    ctx=None,
) -> Bitmap:
    """AND the plan's parts over ``relation`` (one shard, or the whole
    unsharded relation), memoizing intermediates when a cache is installed.

    Every fetch goes through the storage fold
    (:meth:`~repro.columnstore.table.MasterRelation.fold`) on the plan's
    pre-resolved ``refs``: an uncached, untraced fold is *one* call for
    all parts; the cached fold calls it per prefix step and the traced one
    per part, because they need a cache entry or a span per part.

    Cached entries are keyed on ``(epoch, shard, cumulative covered
    edge-set)`` — well-defined because every part's bitmap equals the AND
    of its covered elements' base bitmaps restricted to the shard's record
    range.  Evaluation folds left in canonical part order, looking up each
    running prefix, so overlapping queries (ordered together by the
    executor) extend each other's cached prefixes instead of recomputing
    from scratch.

    ``ctx`` is the query's :class:`repro.resilience.QueryContext` (or
    None); the storage fold checks it before every ref, so an expired
    deadline or a fired cancel token stops the query one operator step
    past the event.  Prefixes completed before the stop are exact and stay
    cached — an aborted fold never leaves a partial bitmap behind because
    insertion only happens after a part's compute returns.
    """
    parts, refs, keys = plan.parts, plan.refs, plan.prefix_keys
    if ctx is not None:
        ctx.check()
    if cache is None or any(not part.covered for part in parts):
        if tracer is None:
            return relation.fold(refs, ctx)

        def fetch(part: ConjunctionPart, ref) -> Bitmap:
            with tracer.span("and", kind=part.kind, part=part_token(part)):
                return _fetch(relation, ref, tracer, ctx)

        return Bitmap.and_all(map(fetch, parts, refs))

    def build(i: int) -> Bitmap:
        def compute() -> Bitmap:
            if tracer is not None:
                tracer.add("cache_miss")
            bitmap = _fetch(relation, refs[i], tracer, ctx)
            return bitmap if i == 0 else build(i - 1) & bitmap

        if tracer is None:
            return cache.get_or_compute(epoch, keys[i], compute, shard=shard)
        # One span per conjunction part: a prefix served from cache
        # closes immediately with cache_hit=1; a miss nests the fetch
        # (and the shorter prefix's span) inside it.
        with tracer.span(
            "and", kind=parts[i].kind, part=part_token(parts[i])
        ) as span:
            result = cache.get_or_compute(epoch, keys[i], compute, shard=shard)
            if "cache_miss" not in span.counters:
                span.add("cache_hit")
            return result

    return build(len(parts) - 1)
