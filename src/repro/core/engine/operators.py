"""The operator layer: plan execution primitives over the master relation.

These are the physical operators the plan interpreter composes: fold a
plan's canonical part list into a structural bitmap through the storage
layer's one fold entry over one record range, and cut a query's records
into the ranges the process runner folds apart and merges by
concatenation.  The relation holds no cut: a query folds ``[0, n)`` in
one call unless that runner fans it out.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple

from ...columnstore.bitmap import _WORD_BITS, Bitmap
from ..rewrite import ConjunctionPart

__all__ = [
    "NULL_SPAN",
    "ShardTask",
    "range_tasks",
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
    """One unit of a query's fold: range ``shard`` of the query's cut,
    records ``[start, stop)`` (global row = ``start`` + range-local row)."""

    shard: int
    start: int
    stop: int


def range_tasks(n_records: int, k: int) -> list[ShardTask]:
    """``n_records`` cut into ``k`` ordered ranges: an even split, in
    whole 64-record words once every range would hold one (the last range
    taking the remainder), so the ``Bitmap.concat`` merge copies words."""
    unit = _WORD_BITS if n_records >= _WORD_BITS * k else 1
    base, extra = divmod(n_records // unit, k)
    tasks, start = [], 0
    for i in range(k):
        stop = start + unit * (base + (i < extra))
        tasks.append(ShardTask(i, start, stop))
        start = stop
    tasks[-1] = ShardTask(k - 1, tasks[-1].start, n_records)
    return tasks


def conjunction(relation, plan, task: ShardTask, tracer=None, ctx=None) -> Bitmap:
    """AND the plan's parts over the records of ``task``.

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
        return relation.fold(plan.refs, ctx, task.start, task.stop)

    def fetch(part: ConjunctionPart, ref) -> Bitmap:
        with tracer.span("and", kind=part.kind, part=part_token(part)):
            bitmap = relation.fold((ref,), ctx, task.start, task.stop)
            # An element the relation never saw touched nothing.
            if ref[0] != "element" or relation.has_element(ref[1]):
                tracer.add("bitmaps_fetched")
                tracer.add("bytes_touched", bitmap.nbytes())
            return bitmap

    return Bitmap.and_all(map(fetch, plan.parts, plan.refs))
