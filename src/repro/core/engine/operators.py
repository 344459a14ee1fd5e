"""The operator layer: plan execution primitives over one storage backend.

These are the physical operators the plan interpreter composes: fetch one
conjunction input's bitmap column, fold a canonical part list into a
structural bitmap (memoizing every prefix when a cache is installed), and
describe the record-range shards a backend exposes so the same fold can
run once per shard and merge by concatenation.

Every operator takes the backend (a relation or one shard of one) and the
catalog explicitly instead of reaching back into the engine, so the one
in-process fold (:meth:`~.interpreter.ShardRunner.fold`) serves the
unsharded engine (a single task over the whole relation) and every shard
of a sharded one, inline or on the executor's thread pool.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from ...columnstore.bitmap import Bitmap
from ..record import Edge
from ..rewrite import ConjunctionPart

__all__ = [
    "MERGED_SHARD",
    "NULL_SPAN",
    "ShardTask",
    "shard_tasks",
    "part_token",
    "fetch_part",
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


def shard_tasks(backend) -> list[ShardTask]:
    """The backend's record-range shards as ordered work items.

    A plain :class:`MasterRelation` yields one task covering everything;
    a :class:`~repro.columnstore.sharded.ShardedTable` yields one per
    shard, in record order — so ``Bitmap.concat`` over per-task results is
    always the order-preserving merge.
    """
    return [
        ShardTask(i, start, relation)
        for i, (relation, start) in enumerate(
            zip(backend.shard_relations(), backend.shard_starts(), strict=True)
        )
    ]


def fetch_part(relation, catalog, part: ConjunctionPart, tracer=None) -> Bitmap:
    """Fetch one conjunction input's bitmap column (counted as I/O).

    ``relation`` may be one shard of a sharded backend: an element column
    the shard never saw contributes an all-zero segment with no I/O charge
    (there is no column file there to fetch) — the planner has already
    verified the element exists globally.
    """
    if part.kind == "element":
        edge_id = catalog.get_id(part.token)
        if edge_id is None or not relation.has_element(edge_id):
            return Bitmap.zeros(relation.n_records)
        bitmap = relation.bitmap(edge_id)
    elif part.kind == "graph-view":
        bitmap = relation.view_bitmap(part.token)
    else:
        bitmap = relation.aggregate_view_bitmap(part.token)
    if tracer is not None:
        tracer.add("bitmaps_fetched")
        tracer.add("bytes_touched", bitmap.nbytes())
    return bitmap


def conjunction(
    relation,
    catalog,
    parts: list[ConjunctionPart],
    keys: list[frozenset[Edge]] | None,
    cache,
    epoch: int,
    shard: int = 0,
    tracer=None,
    ctx=None,
) -> Bitmap:
    """AND the parts' bitmaps over ``relation``, memoizing intermediates
    when a cache is installed.

    Cached entries are keyed on ``(epoch, shard, cumulative covered
    edge-set)`` — well-defined because every part's bitmap equals the AND
    of its covered elements' base bitmaps restricted to the shard's record
    range.  Evaluation folds left in canonical part order, looking up each
    running prefix, so overlapping queries (ordered together by the
    executor) extend each other's cached prefixes instead of recomputing
    from scratch.

    ``ctx`` is the query's :class:`repro.resilience.QueryContext` (or
    None); the fold checks it before every part fetch, so an expired
    deadline or a fired cancel token stops the query one operator step
    past the event.  Prefixes completed before the stop are exact and stay
    cached — an aborted fold never leaves a partial bitmap behind because
    insertion only happens after a part's compute returns.
    """
    if ctx is not None:
        ctx.check()
    if cache is None or any(not part.covered for part in parts):

        def fetch(part: ConjunctionPart) -> Bitmap:
            if ctx is not None:
                ctx.check()
            if tracer is None:
                return fetch_part(relation, catalog, part)
            with tracer.span("and", kind=part.kind, part=part_token(part)):
                return fetch_part(relation, catalog, part, tracer)

        return Bitmap.and_all(fetch(part) for part in parts)

    def build(i: int) -> Bitmap:
        def compute() -> Bitmap:
            if ctx is not None:
                ctx.check()
            if tracer is not None:
                tracer.add("cache_miss")
            bitmap = fetch_part(relation, catalog, parts[i], tracer)
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
