"""The operator layer: plan execution primitives over the master relation.

These are the physical operators the plan interpreter composes: fold a
plan's canonical part list into a structural bitmap through the storage
layer's one fold entry, and describe the relation's record-range shards
as tasks so the same fold can run once per shard and merge by
concatenation.

A shard is a record range of the one relation, named by its index: the
one in-process fold (:meth:`~.interpreter.ShardRunner.fold`) serves the
unsharded engine (a single task over every record) and every shard of a
sharded one, inline or on the executor's thread pool.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple

from ...columnstore.bitmap import Bitmap
from ..rewrite import ConjunctionPart

__all__ = [
    "NULL_SPAN",
    "ShardTask",
    "shard_tasks",
    "part_token",
    "conjunction",
]

# Shared no-op context for the tracing hooks: reusable and reentrant, so
# one instance serves every untraced span site without allocation.
NULL_SPAN = nullcontext()


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


class ShardTask(NamedTuple):
    """One unit of shard-parallel work: shard ``shard`` of the relation,
    records ``[start, stop)`` (global row = ``start`` + shard-local row)."""

    shard: int
    start: int
    stop: int


def shard_tasks(relation) -> list[ShardTask]:
    """The relation's record-range shards (``shard_records``) as ordered
    work items — one covering everything when unsharded — so
    ``Bitmap.concat`` over per-task results is the order-preserving merge."""
    tasks, start = [], 0
    for shard, size in enumerate(relation.shard_records):
        tasks.append(ShardTask(shard, start, start + size))
        start += size
    return tasks


def _fetch(relation, ref, shard, tracer, ctx) -> Bitmap:
    """One ref through the storage fold of one shard; under a tracer, with
    the counters a traced query reports per part (an element the relation
    never saw touched nothing)."""
    bitmap = relation.fold((ref,), ctx, shard=shard)
    if tracer is not None and (ref[0] != "element" or relation.has_element(ref[1])):
        tracer.add("bitmaps_fetched")
        tracer.add("bytes_touched", bitmap.nbytes())
    return bitmap


def conjunction(relation, plan, shard: int = 0, tracer=None, ctx=None) -> Bitmap:
    """AND the plan's parts over shard ``shard`` of ``relation`` (its one
    shard when unsharded).

    Every fetch goes through the storage fold
    (:meth:`~repro.columnstore.table.MasterRelation.fold`) on the plan's
    pre-resolved ``refs``: an untraced fold is *one* call for all parts,
    the traced one calls it per part, because it opens a span per part.

    ``ctx`` is the query's :class:`repro.resilience.QueryContext` (or
    None); the storage fold checks it before every ref, so an expired
    deadline or a fired cancel token stops the query one operator step
    past the event.
    """
    if ctx is not None:
        ctx.check()
    if tracer is None:
        return relation.fold(plan.refs, ctx, shard=shard)

    def fetch(part: ConjunctionPart, ref) -> Bitmap:
        with tracer.span("and", kind=part.kind, part=part_token(part)):
            return _fetch(relation, ref, shard, tracer, ctx)

    return Bitmap.and_all(map(fetch, plan.parts, plan.refs))
