"""The plan interpreter: the engine's whole read path in one place.

A query is answered in the paper's three steps (§3.2, §4): fetch one
bitmap per conjunction part, AND them, gather the measure columns of the
surviving rows.  Every step consumes the memoized
:class:`~.planner.PhysicalPlan` (``parts`` / ``refs`` / ``key`` /
``fetch_elements`` / ``needed_functions``) and an :class:`ExecEnv` — the
engine's configuration read **once** at query entry, so a setter flipping
the tracer or cache mid-flight cannot reach a running query.

There is one way to run a query's conjunction, traced or not
(:func:`structural`): the empty-answer short-circuit, the cache lookup,
one storage fold of every part over records ``[0, n)`` — typed on
failure — then the cache put.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, NamedTuple

import numpy as np

from ...columnstore.bitmap import Bitmap
from ...columnstore.column import rank_rows
from ...errors import ResilienceError, ShardExecutionError
from ..aggregates import get_function
from ..query import And, AndNot, GraphQuery, Or

__all__ = ["ExecEnv", "run_query", "run_aggregate", "evaluate"]

# Shared no-op context for the tracing hooks: reusable and reentrant, so
# one instance serves every untraced span site without allocation.
NULL_SPAN = nullcontext()


class ExecEnv(NamedTuple):
    """What one query executes against, read once from the engine."""

    relation: object
    catalog: object
    cache: object  # BitmapCache | None
    tracer: object  # Tracer | None
    epoch: int
    plan: Callable  # query -> PhysicalPlan (memoized by the planner)
    agg_views: dict
    measured: set  # nodes carrying their own measures

    def span(self, name: str, **meta):
        """A tracer span when this query is traced, else the shared no-op
        (which yields ``None``: touch the span only under a tracer check)."""
        return self.tracer.span(name, **meta) if self.tracer is not None else NULL_SPAN


# -- structural conjunction --------------------------------------------------


def structural(query, env: ExecEnv, ctx=None):
    """``(bitmap, plan)``: the rows structurally matching ``query`` (a
    :class:`GraphQuery` or :class:`PathAggregationQuery`).

    The plan's parts become its answer in one way, traced or not: a plan
    with no parts is the empty answer; with a cache, the whole answer is
    looked up once under ``(epoch, plan.key)``; a miss is *one*
    :meth:`~repro.columnstore.table.MasterRelation.fold` of ``plan.refs``
    over records ``[0, n)`` — which checks ``ctx`` before every ref — and
    any failure but a deadline or cancellation raises a typed
    :class:`~repro.errors.ShardExecutionError` naming ``[0, n)``; the
    fold is then stored."""
    tracer = env.tracer
    with env.span("rewrite"):
        plan = env.plan(query)
        if tracer is not None:
            logical = plan.logical
            if plan.kind == "graph":
                tracer.add("views_used", len(logical.view_names))
            else:
                tracer.add("views_used", len(logical.structural_view_names))
                tracer.add("agg_views_used", len(logical.structural_agg_view_names))
            tracer.add("residual_elements", len(logical.residual_elements))
    relation = env.relation
    n = relation.n_records
    with env.span("conjunction") as span:
        if not plan.parts:  # a residual element has no column anywhere
            if tracer is not None:
                span.add("rows_matched", 0)
                span.meta["short_circuit"] = "unindexed-element"
            return Bitmap.zeros(n), plan
        cache = env.cache if plan.key is not None else None
        answer = None if cache is None else cache.lookup(env.epoch, plan.key)
        if tracer is not None and cache is not None:
            tracer.add("cache_hit" if answer is not None else "cache_miss")
        if answer is None:
            try:
                answer = relation.fold(plan.refs, ctx)
            except ResilienceError:
                raise
            except Exception as exc:
                raise ShardExecutionError(
                    f"shard 0 failed: {exc} (records [0:{n}) unavailable)",
                    shard=0, start=0, stop=n,
                ) from exc
            if tracer is not None:
                # The planner emits refs only to columns that exist, and
                # every column is as long as the answer.
                tracer.add("bitmaps_fetched", len(plan.refs))
                tracer.add("bytes_touched", len(plan.refs) * answer.nbytes())
            if cache is not None:
                cache.put(env.epoch, plan.key, answer)
        if tracer is not None:
            span.add("bitmaps_anded", len(plan.parts))
            span.add("rows_matched", answer.count())
    return answer, plan


def evaluate(expr, env: ExecEnv, ctx=None) -> Bitmap:
    """``[Gq1 AND Gq2] = [Gq1] ∩ [Gq2]`` and friends on the atoms' bitmaps
    (§3.2); ``ctx`` is checked per node so deadlines cover the whole tree."""
    if ctx is not None:
        ctx.check()
    if isinstance(expr, GraphQuery):
        return structural(expr, env, ctx)[0]
    if isinstance(expr, And):
        return evaluate(expr.left, env, ctx) & evaluate(expr.right, env, ctx)
    if isinstance(expr, Or):
        return evaluate(expr.left, env, ctx) | evaluate(expr.right, env, ctx)
    if isinstance(expr, AndNot):
        return evaluate(expr.left, env, ctx) - evaluate(expr.right, env, ctx)
    raise TypeError(f"cannot evaluate {type(expr).__name__}")


# -- measure gather ----------------------------------------------------------


def _fetch(element, rows, env: ExecEnv):
    """``(column id | None, the element's measures at rows)`` — all NaN,
    and no id, when no column holds the element.  ``rows`` are the
    matching rows ranked once a query (``rank_rows``) for every column."""
    edge_id = env.catalog.get_id(element)
    if edge_id is None or not env.relation.has_element(edge_id):
        return None, np.full(rows.size, np.nan)
    return edge_id, env.relation.measures(edge_id, rows)


def run_query(query, env: ExecEnv, fetch_measures: bool = True, ctx=None):
    """Answer a graph query or boolean expression:
    ``(rows, measures, elements, logical plan | None)``.  For an
    expression, measures cover the union of the atoms' elements."""
    tracer = env.tracer
    with env.span("query", query=query, epoch=env.epoch) as root:  # span() stringifies
        if isinstance(query, GraphQuery):
            bitmap, plan = structural(query, env, ctx)
            logical, elements = plan.logical, plan.fetch_elements
        else:
            bitmap, logical = evaluate(query, env, ctx), None
            atoms = query.atoms()
            elements = tuple(
                dict.fromkeys(e for atom in atoms for e in env.plan(atom).fetch_elements)
            )
        rows = bitmap.to_indices()
        measures: dict = {}
        if fetch_measures and rows.size:
            with env.span("measures"):
                known_ids: list[int] = []
                ranked = rank_rows(rows)
                for element in elements:
                    if ctx is not None:
                        ctx.check()
                    edge_id, measures[element] = _fetch(element, ranked, env)
                    if edge_id is not None:
                        known_ids.append(edge_id)
                if known_ids:
                    env.relation.simulate_partition_join(known_ids, rows)
                if tracer is not None:
                    tracer.add("measure_columns", len(known_ids))
                    tracer.add("measure_values", rows.size * len(known_ids))
                    spanned = env.relation.partitions_for(known_ids)
                    tracer.add("partitions_spanned", len(spanned))
        if tracer is not None:
            root.add("rows_matched", rows.size)
    return rows, measures, elements, logical


# -- path aggregation --------------------------------------------------------


def _view_partial(view, sub_function: str, rows, env: ExecEnv):
    """Partial-aggregate array contributed by a view tile: the stored
    ``mp`` column when the view materializes ``sub_function``; a COUNT
    partial over matched rows is the tile's element count (every element
    is present by the structural condition), so it needs no storage."""
    if sub_function in view.stored_functions():
        return env.relation.aggregate_view_measures(f"{view.name}:{sub_function}", rows)
    if sub_function == "count":
        return np.full(rows.size, float(len(view.elements(env.measured))))
    raise KeyError(
        f"view {view.name!r} stores {view.stored_functions()}, cannot provide {sub_function!r}"
    )


def run_aggregate(query, env: ExecEnv, ctx=None):
    """Answer ``F_Gq``: per matching record, the aggregate along every
    maximal path of the query graph (§3.4), merging view tiles with raw
    measure columns: ``(rows, path_values, logical plan)``."""
    tracer = env.tracer
    with env.span("aggregate", query=query, epoch=env.epoch) as root:
        bitmap, plan = structural(query, env, ctx)
        rows = bitmap.to_indices()
        ranked = rank_rows(rows)
        function = get_function(query.function)
        needed = plan.needed_functions
        path_values, raw = {}, {}
        with env.span("aggregation"):
            for path_plan in plan.logical.path_plans:
                if ctx is not None:
                    ctx.check()
                partials: dict[str, list] = {fn: [] for fn in needed}
                for segment in path_plan.segments:
                    if segment.kind == "view":
                        view = env.agg_views[segment.view_name]
                        for fn in needed:
                            partials[fn].append(_view_partial(view, fn, ranked, env))
                    else:
                        element = segment.element
                        if element not in raw:
                            raw[element] = _fetch(element, ranked, env)[1]
                        for fn in needed:
                            partials[fn].append(get_function(fn).lift(raw[element]))
                    if tracer is not None:
                        tracer.add(f"{segment.kind}_segments")
                if not any(partials.values()):
                    continue
                if function.distributive:
                    value = function.merge_partials(partials[function.name])
                else:
                    value = function.finalize(
                        {fn: get_function(fn).merge_partials(a) for fn, a in partials.items()}
                    )
                path_values[path_plan.path] = value
            if tracer is not None:
                tracer.add("paths", len(plan.logical.path_plans))
        if tracer is not None:
            root.add("rows_matched", rows.size)
    return rows, path_values, plan.logical
