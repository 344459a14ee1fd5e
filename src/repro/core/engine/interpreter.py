"""The plan interpreter: the engine's whole read path in one place.

A query is answered in the paper's three steps (§3.2, §4): fetch one
bitmap per conjunction part, AND them, gather the measure columns of the
surviving rows.  Every step consumes the memoized
:class:`~.planner.PhysicalPlan` (``parts`` / ``refs`` / ``key`` /
``fetch_elements`` / ``needed_functions``) and an :class:`ExecEnv` — the
engine's configuration read **once** at query entry, so a setter flipping
the tracer or cache mid-flight cannot reach a running query.

There is one way to run a fold, a :class:`ShardRunner`: ``tasks`` decides
per query *which* record ranges to fold — ``[0, n)`` in one call unless
the words the plan touches reach the runner's fan-out break-even —
``map`` *where* they run and ``folds`` *how* each range's conjunction is
computed (thread and process runners: :mod:`repro.exec.runners`).
Supervision and the whole-answer cache entry sit above the runner, once.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ...columnstore.bitmap import Bitmap
from ...columnstore.column import rank_rows
from ...errors import ResilienceError, ShardExecutionError
from ..aggregates import get_function
from ..query import And, AndNot, GraphQuery, Or
from .operators import NULL_SPAN, ShardTask, conjunction, range_tasks

__all__ = ["ExecEnv", "ShardRunner", "INLINE", "run_query", "run_aggregate", "evaluate"]


class ShardRunner:
    """The inline strategy: a query's records fold in one call, in the
    calling thread.  Subclasses set ``min_fanout_words`` and override
    ``map`` (threads) or ``folds`` (worker processes); nothing else about
    a query depends on the mode."""

    #: Words ANDed (refs × words per bitmap) from which a query is cut
    #: into ranges; folding ranges in turn inline never pays.
    min_fanout_words: float = math.inf

    def tasks(self, n_records: int, shards: int, n_refs: int) -> list[ShardTask]:
        """A query's record ranges: ``[0, n)``, or ``shards`` even ranges
        once its exact word count reaches the break-even."""
        if shards > 1 and n_refs * -(-n_records // 64) >= self.min_fanout_words:
            return range_tasks(n_records, shards)
        return [ShardTask(0, 0, n_records)]

    def map(self, fn: Callable, tasks: list) -> list:
        """Apply ``fn`` to every range task; results in task order."""
        return [fn(task) for task in tasks]

    def folds(self, tasks: list, plan, env: "ExecEnv", ctx) -> list:
        """One zero-argument fold per task, in task order: what
        :func:`supervised_fold` runs, and runs again on a retry."""
        return [
            partial(conjunction, env.relation, plan, task, env.tracer, ctx) for task in tasks
        ]


INLINE = ShardRunner()


class ExecEnv(NamedTuple):
    """What one query executes against, read once from the engine."""

    relation: object
    catalog: object
    cache: object  # BitmapCache | None
    tracer: object  # Tracer | None
    policy: object  # ResiliencePolicy | None
    runner: ShardRunner
    shards: int  # record ranges a query fanning out is cut into
    epoch: int
    plan: Callable  # query -> PhysicalPlan (memoized by the planner)
    agg_views: dict
    measured: set  # nodes carrying their own measures

    def span(self, name: str, **meta):
        """A tracer span when this query is traced, else the shared no-op
        (which yields ``None``: touch the span only under a tracer check)."""
        return self.tracer.span(name, **meta) if self.tracer is not None else NULL_SPAN


# -- structural conjunction --------------------------------------------------


def supervised_fold(task, fold: Callable, env: ExecEnv, ctx) -> Bitmap:
    """One range's segment of the conjunction (all of it for ``[0, n)``),
    computed by ``fold`` (from :meth:`ShardRunner.folds`).  Under a
    resilience policy: bounded retries, the per-range breaker and — with
    ``partial_ok`` — an all-zero substitute for a persistently failing
    range (its records land on the context's degraded ledger).  Without
    one, the first failure raises a typed
    :class:`~repro.errors.ShardExecutionError`."""
    if ctx is not None:
        ctx.check()
    if env.tracer is None:
        segment = _supervise(task, fold, env, ctx)
    else:
        with env.tracer.span("shard", shard=task.shard) as span:
            segment = _supervise(task, fold, env, ctx)
            if segment is None:
                span.meta["degraded"] = "skipped"
    # None = skipped under partial_ok (never cached — an all-zero segment
    # is not the range's answer).
    return Bitmap.zeros(task.stop - task.start) if segment is None else segment


def _supervise(task, fold: Callable, env: ExecEnv, ctx) -> Bitmap | None:
    """``fold()`` under the policy, or typed on its first failure."""
    start, stop = task.start, task.stop
    if env.policy is not None:
        return env.policy.run_shard(
            task.shard, start, stop, fold, ctx, generation=env.epoch,
        )
    try:
        return fold()
    except ResilienceError:
        raise
    except Exception as exc:
        raise ShardExecutionError(
            f"shard {task.shard} failed: {exc} "
            f"(records [{start}:{stop}) unavailable)",
            shard=task.shard, start=start, stop=stop,
        ) from exc


def _conjunction(plan, env: ExecEnv, ctx) -> Bitmap:
    """lookup → fetch → AND → merge → store.  With a cache, the whole
    answer is looked up once under ``(epoch, plan.key)`` and a miss stores
    what it folds — unless the query degraded, since a partial merge would
    poison healthy repeats.  The runner picks the record ranges
    (:meth:`ShardRunner.tasks`), each folded under supervision.  One
    range folds inline; several fold on the runner and concatenate
    (ranges partition the records in order, so concat *is* the merge).
    Traced queries fold the same ranges inline, in the calling thread."""
    cache = env.cache if plan.key is not None else None
    if cache is not None:
        answer = cache.lookup(env.epoch, plan.key)
        if env.tracer is not None:
            env.tracer.add("cache_hit" if answer is not None else "cache_miss")
        if answer is not None:
            return answer
    tasks = env.runner.tasks(env.relation.n_records, env.shards, len(plan.refs))
    if len(tasks) == 1:
        [fold] = INLINE.folds(tasks, plan, env, ctx)
        answer = supervised_fold(tasks[0], fold, env, ctx)
    else:
        runner = INLINE if env.tracer is not None else env.runner
        jobs = list(zip(tasks, runner.folds(tasks, plan, env, ctx)))
        answer = Bitmap.concat(runner.map(lambda job: supervised_fold(*job, env, ctx), jobs))
    if cache is not None and not (ctx is not None and ctx.degraded):
        cache.put(env.epoch, plan.key, answer)
    return answer


def structural(query, env: ExecEnv, ctx=None):
    """``(bitmap, plan)``: the rows structurally matching ``query`` (a
    :class:`GraphQuery` or :class:`PathAggregationQuery`)."""
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
    with env.span("conjunction") as span:
        if not plan.parts:  # a residual element has no column anywhere
            if tracer is not None:
                span.add("rows_matched", 0)
                span.meta["short_circuit"] = "unindexed-element"
            return Bitmap.zeros(env.relation.n_records), plan
        bitmap = _conjunction(plan, env, ctx)
        if tracer is not None:
            span.add("bitmaps_anded", len(plan.parts))
            span.add("rows_matched", bitmap.count())
    return bitmap, plan


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


def _finish(root, n_rows: int, ctx) -> None:
    """Close a traced query's root span: result size + degraded summary."""
    root.add("rows_matched", n_rows)
    if ctx is not None and ctx.degraded:
        root.meta["degraded"] = ctx.report().summary()


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
            _finish(root, rows.size, ctx)
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
            _finish(root, rows.size, ctx)
    return rows, path_values, plan.logical
