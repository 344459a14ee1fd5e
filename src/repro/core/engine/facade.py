"""The engine facade: plan, execute, and persist behind one object.

:class:`GraphAnalyticsEngine` keeps the public surface the repo has always
had, but internally delegates to the three layers this package separates:

* the **planner** (:mod:`.planner`) turns queries into
  :class:`PhysicalPlan` objects — the same object the interpreter
  executes, EXPLAIN describes, and the tracer annotates;
* the **interpreter** (:mod:`.interpreter`) executes a plan — fetch, AND,
  gather — folding every record ``[0, n)`` in one call;
* the **storage** is one :class:`MasterRelation`: measure gathers, view
  maintenance, and persistence read the one relation.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path as FsPath
from typing import Hashable

import numpy as np

from ...columnstore.bitmap import Bitmap
from ...columnstore.column import MeasureColumn, sorted_cells
from ...columnstore.iostats import IOStats, IOStatsCollector
from ...columnstore.persistence import load_relation, save_relation
from ...columnstore.table import MasterRelation, and_refs
from ...errors import IngestError, ManifestError, PersistenceError
from ..aggregates import get_function
from ..candidates import candidate_aggregate_paths, select_graph_views
from ..catalog import EdgeCatalog
from ..paths import Path
from ..query import GraphQuery, PathAggregationQuery, QueryExpr
from ..record import Edge, GraphRecord
from ..rewrite import (
    AggregationPlan,
    GraphQueryPlan,
    prune_unavailable_views,
)
from ..setcover import greedy_select_views
from ..views import AggregateGraphView, GraphView
from . import interpreter
from .interpreter import ExecEnv
from .planner import PhysicalPlan, Planner

__all__ = [
    "GraphAnalyticsEngine",
    "GraphQueryResult",
    "PathAggregationResult",
    "MaterializationReport",
]


@dataclass
class GraphQueryResult:
    """Answer of a graph query: matching records and their measures."""

    query: GraphQuery
    rows: np.ndarray
    record_ids: list
    measures: dict[Edge, np.ndarray]
    plan: GraphQueryPlan | None = None
    epoch: int | None = None

    def __len__(self) -> int:
        return int(self.rows.size)

    def n_measure_values(self) -> int:
        return sum(int(a.size) for a in self.measures.values())


@dataclass
class PathAggregationResult:
    """Answer of a path-aggregation query: one aggregate per maximal path
    per matching record."""

    query: PathAggregationQuery
    rows: np.ndarray
    record_ids: list
    path_values: dict[Path, np.ndarray]
    plan: AggregationPlan | None = None
    epoch: int | None = None

    def __len__(self) -> int:
        return int(self.rows.size)


@dataclass
class MaterializationReport:
    """What a materialization run considered and chose."""

    kind: str
    n_candidates: int
    selected: list[str] = field(default_factory=list)
    stopped_on_singleton: bool = False


def _transpose(records: Iterable[GraphRecord]) -> tuple[list, dict[Edge, tuple]]:
    """Records as columns, in one pass: their ids, and per element the
    ``(rows, values)`` of its cells — rows ascending and unique by
    construction, so they need no check."""
    record_ids: list = []
    columns: dict[Edge, tuple[list[int], list[float]]] = {}
    for row, record in enumerate(records):
        record_ids.append(record.record_id)
        for edge, value in record.measures().items():
            column = columns.get(edge)
            if column is None:
                column = columns[edge] = ([], [])
            column[0].append(row)
            column[1].append(value)
    return record_ids, columns


class GraphAnalyticsEngine:
    """Store and analyze a massive collection of small graph records."""

    def __init__(self, partition_width: int = 1000):
        self.catalog = EdgeCatalog()
        self.collector = IOStatsCollector()
        self.relation = MasterRelation(
            partition_width=partition_width, collector=self.collector
        )
        self._record_ids: list = []
        self._graph_views: dict[str, GraphView] = {}
        self._agg_views: dict[str, AggregateGraphView] = {}
        self._measured_nodes: set[Hashable] = set()
        self._view_counter = 0
        # The planner owns the plan memo, invalidated whenever the data or
        # view set changes: rewriting is pure in (query, views, backend),
        # so repeated queries — the common case in the paper's workloads —
        # plan once.
        self._planner = Planner(self)
        # State epoch: bumps on every data or view mutation.  Cached
        # structural bitmaps are keyed on it, so concurrent readers can
        # never be served a conjunction computed against an older state.
        self._epoch = 0
        # Optional shared bitmap-conjunction cache (see repro.exec.cache),
        # installed by use_bitmap_cache(); None keeps the original
        # uncached evaluation path.
        self._bitmap_cache = None
        # Optional tracer (repro.obs.Tracer), installed by use_tracer();
        # None keeps every hot path on a single attribute check.
        self._tracer = None

    # -- loading ------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self.relation.n_records

    @property
    def measured_nodes(self) -> frozenset[Hashable]:
        """Nodes that carry their own measures anywhere in the data."""
        return frozenset(self._measured_nodes)

    @property
    def graph_views(self) -> dict[str, GraphView]:
        return dict(self._graph_views)

    @property
    def aggregate_views(self) -> dict[str, AggregateGraphView]:
        return dict(self._agg_views)

    def _ingest(self, record_ids: Sequence, columns: Mapping[Edge, tuple]) -> int:
        """The one ingest step: ``columns`` (per element the batch's ``(rows,
        values)``, rows in ``[0, len(record_ids))``, ascending and unique)
        go to storage in one call; cached plans are dropped and the epoch
        bumps once."""
        cells = {self.catalog.intern(edge): column for edge, column in columns.items()}
        self._measured_nodes.update(u for u, v in columns if u == v)
        self.relation.append_columns(len(record_ids), cells)
        self._record_ids.extend(record_ids)
        self._planner.invalidate()
        self._bump_epoch()
        return len(record_ids)

    def load_records(self, records: Iterable[GraphRecord]) -> int:
        """Bulk-load graph records as one batch; returns how many.

        Views are not maintained: use :meth:`append_records` for
        incremental growth under materialized views.
        """
        return self._ingest(*_transpose(records))

    def append_records(self, records: Iterable[GraphRecord]) -> int:
        """Append records *and incrementally maintain all views*.

        Each view gains the new rows from the builder that made it, started
        at the first new row: a rebuild's answer at the cost of the words
        the rows land in.
        """
        start = self.n_records
        count = self._ingest(*_transpose(records))
        for name, view in self._graph_views.items():
            self.relation.extend_graph_view(name, self.compute_view_bitmap(view.elements, start))
        for name, view in self._agg_views.items():
            for stored_fn, delta in self._aggregate_view_columns(view, start).items():
                self.relation.extend_aggregate_view(f"{name}:{stored_fn}", delta)
        return count

    def load_columnar(
        self,
        record_ids: Sequence,
        columns: Mapping[Edge, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Vectorized bulk load: per element, parallel (row, value) arrays,
        a row being a position in ``record_ids``; :meth:`load_records`'
        write.  The whole batch is checked first: a
        row outside ``[0, len(record_ids))`` or given twice refuses it."""
        n = len(record_ids)
        self._ingest(record_ids, {e: sorted_cells(*cells, n) for e, cells in columns.items()})

    def record_ids_at(self, rows: np.ndarray) -> list:
        ids = self._record_ids
        return [ids[i] for i in np.asarray(rows, dtype=np.int64).tolist()]

    # -- persistence ----------------------------------------------------------

    _CHECKPOINT = "ingest_checkpoint.json"

    @staticmethod
    def _atomic_write_json(path: FsPath, payload: dict) -> None:
        staged = path.with_name(path.name + ".tmp")
        staged.write_text(json.dumps(payload))
        os.replace(staged, path)

    @staticmethod
    def is_saved_engine(directory: str | FsPath) -> bool:
        """Whether ``directory`` looks like a saved engine database."""
        return (FsPath(directory) / "manifest.json").is_file()

    def _engine_meta(self) -> dict:
        # Ids keep their JSON type (an int id loads as that int); only what
        # JSON cannot hold is written as its str().  Measured nodes are not
        # written: load derives them from the catalog's self-edges.
        return {
            "record_ids": [
                r if r is None or isinstance(r, (str, int, float)) else str(r)
                for r in self._record_ids
            ],
            "edges": [list(edge) for edge in self.catalog],
            "graph_views": [
                {
                    "name": view.name,
                    "elements": [list(e) for e in sorted(view.elements, key=repr)],
                }
                for _, view in sorted(self._graph_views.items())
            ],
            "aggregate_views": [
                {
                    "name": view.name,
                    "nodes": list(view.path.nodes),
                    "open_start": view.path.open_start,
                    "open_end": view.path.open_end,
                    "function": view.function,
                }
                for _, view in sorted(self._agg_views.items())
            ],
            "view_counter": self._view_counter,
        }

    def save(self, directory: str | FsPath) -> None:
        """Persist the full engine (relation + catalog + view definitions)
        under ``directory``, crash-safely.

        The engine metadata rides inside the relation manifest, so columns,
        views, and catalog commit in *one* atomic swap — an interrupted
        save leaves the previous state loadable, never a torn mix.
        """
        save_relation(self.relation, directory, app_meta=self._engine_meta())

    @classmethod
    def load(
        cls, directory: str | FsPath, shards: int | None = None
    ) -> "GraphAnalyticsEngine":
        """Reconstruct an engine saved by :meth:`save`.

        Base columns are integrity-checked (corruption raises
        :class:`~repro.errors.CorruptionError`); views whose files were
        damaged are dropped with a warning and queries transparently fall
        back to base bitmaps.  ``shards`` is accepted and ignored: the
        frozen benchmark's replay still passes it
        (``benchmarks/e2e/layers.py:170``).
        """
        directory = FsPath(directory)
        engine = cls()
        relation = load_relation(directory)
        relation.collector = engine.collector
        engine.relation = relation
        meta = relation.app_meta
        if meta is None:
            raise PersistenceError(
                f"{directory} carries no engine metadata; was this relation "
                "saved with GraphAnalyticsEngine.save()?"
            )
        try:
            engine._record_ids = list(meta["record_ids"])
            for edge in meta["edges"]:
                engine.catalog.intern(tuple(edge))
            # What both ingest paths record: the nodes with a self-edge.
            engine._measured_nodes = {u for u, v in engine.catalog if u == v}
            for spec in meta.get("graph_views", []):
                view = GraphView(
                    spec["name"], frozenset(tuple(e) for e in spec["elements"])
                )
                engine._graph_views[view.name] = view
            for spec in meta.get("aggregate_views", []):
                path = Path(
                    spec["nodes"],
                    open_start=spec["open_start"],
                    open_end=spec["open_end"],
                )
                view = AggregateGraphView(spec["name"], path, spec["function"])
                engine._agg_views[view.name] = view
            engine._view_counter = int(meta.get("view_counter", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(
                f"{directory}: malformed engine metadata: {exc}"
            ) from None
        if len(engine._record_ids) != relation.n_records:
            raise ManifestError(
                f"{directory}: {len(engine._record_ids)} record ids for "
                f"{relation.n_records} stored records"
            )
        engine.sync_views_with_relation()
        return engine

    def sync_views_with_relation(self) -> list[str]:
        """Drop view definitions whose backing columns the relation lacks
        (e.g. refused at load time as corrupt), so the
        rewriter degrades to base bitmaps instead of planning against
        phantom views.  Returns the dropped view names."""
        dropped = prune_unavailable_views(
            self._graph_views, self._agg_views, self.relation
        )
        self._bump_views_epoch()
        return dropped

    def load_records_resumable(
        self,
        records: Iterable[GraphRecord],
        directory: str | FsPath,
        batch_size: int = 1000,
    ) -> int:
        """Bulk-load ``records`` in batches, persisting a checkpoint after
        each batch so a crashed load can resume.

        After every ``batch_size`` records the engine is saved to
        ``directory`` (atomically) and ``ingest_checkpoint.json`` records
        how far the input stream got.  To resume after a crash, reload the
        persisted engine with :meth:`load` and call this again with the
        *same* record stream: already-persisted records are skipped and
        loading continues from the first unsaved one.  Re-running a
        finished load with the same stream is a no-op, and a stream that
        has since grown (an appended log file) loads only the new tail.
        Returns the number of records loaded by *this* call.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        directory = FsPath(directory)
        directory.mkdir(parents=True, exist_ok=True)
        checkpoint = directory / self._CHECKPOINT
        if checkpoint.is_file():
            try:
                state = json.loads(checkpoint.read_text())
                base = int(state["base"])
                loaded_before = int(state["loaded"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise ManifestError(
                    f"{checkpoint}: corrupt ingest checkpoint; delete it to "
                    "restart the load from scratch"
                ) from None
            # The engine may hold a few more records than the checkpoint
            # says (a crash can land between the save and the checkpoint
            # write); the saved engine is the source of truth.
            if self.n_records < base + loaded_before:
                raise IngestError(
                    f"engine holds {self.n_records} records but "
                    f"{checkpoint} expects at least {base + loaded_before}; "
                    f"resume from the saved engine: GraphAnalyticsEngine.load({str(directory)!r})"
                )
            skip = self.n_records - base
        else:
            base = self.n_records
            skip = 0
        stream = iter(records)
        if skip:
            consumed = sum(1 for _ in islice(stream, skip))
            if consumed < skip:
                raise IngestError(
                    f"record stream has only {consumed} records but "
                    f"{skip} were already loaded; resume with the same source"
                )
        loaded = 0
        while batch := list(islice(stream, batch_size)):
            loaded += self.load_records(batch)
            self.save(directory)
            self._atomic_write_json(
                checkpoint, {"base": base, "loaded": self.n_records - base}
            )
        if loaded == 0 and not self.is_saved_engine(directory):
            self.save(directory)
        self._atomic_write_json(
            checkpoint,
            {"base": base, "loaded": self.n_records - base, "complete": True},
        )
        return loaded

    # -- structural evaluation -------------------------------------------------

    def _bump_views_epoch(self) -> None:
        self._planner.invalidate()
        self._bump_epoch()

    def _bump_epoch(self) -> None:
        """Advance the state epoch after any data/view mutation.

        The bitmap-conjunction cache keys on the epoch, so bumping it
        atomically invalidates every cached intermediate; stale entries are
        also proactively dropped to release their budget.
        """
        self._epoch += 1
        if self._bitmap_cache is not None:
            self._bitmap_cache.drop_stale(self._epoch)

    @property
    def epoch(self) -> int:
        """Monotonic state epoch: bumps on every append/load/view change."""
        return self._epoch

    @property
    def bitmap_cache(self):
        return self._bitmap_cache

    def use_bitmap_cache(self, cache) -> None:
        """Install (or with ``None`` remove) a shared bitmap-conjunction
        cache (:class:`repro.exec.BitmapCache`); :attr:`stats` reads its
        hit/miss/eviction counts."""
        self._bitmap_cache = cache

    @property
    def tracer(self):
        return self._tracer

    def use_tracer(self, tracer) -> None:
        """Install (or with ``None`` remove) a :class:`repro.obs.Tracer`.

        Tracing is purely observational — query answers are identical with
        and without it — and with no tracer installed every hook is a
        single attribute check, so the disabled cost is negligible."""
        self._tracer = tracer

    def use_metrics(self, registry) -> None:
        """Attach this engine to a :class:`repro.obs.MetricsRegistry`, which
        then exports :meth:`metrics` with its own; a query makes no
        registry call.  Attaching again changes nothing."""
        registry.attach(self)

    def metrics(self) -> dict[str, tuple[str, float]]:
        """``{name: (type, value)}`` as an attached registry exports it:
        ``io.<field>`` for every :class:`IOStats` field, and the installed
        cache's ``cache.*`` counters and gauges."""
        out = {
            f"io.{name}": ("counter", value)
            for name, value in asdict(self.stats).items()
        }
        cache = self._bitmap_cache
        if cache is not None:
            counts = cache.stats
            out.update({
                "cache.hits": ("counter", counts.hits),
                "cache.misses": ("counter", counts.misses),
                "cache.evictions": ("counter", counts.evictions),
                "cache.invalidations": ("counter", counts.invalidations),
                "cache.entries": ("gauge", counts.entries),
                "cache.bytes_held": ("gauge", counts.bytes_cached),
            })
        return out

    # -- planning --------------------------------------------------------------

    def physical_plan(self, query: GraphQuery | PathAggregationQuery) -> PhysicalPlan:
        """The physical plan for ``query`` — the single source of truth
        shared by execution, ``repro explain``, and the tracer.
        Memoized until the next mutation; computing it has no side effect
        beyond warming that memo."""
        return self._planner.physical_plan(query)

    def plan_query(self, query: GraphQuery) -> GraphQueryPlan:
        """The rewrite chosen for ``query`` given current views (§5.3)."""
        return self._planner.physical_plan(query).logical

    def plan_aggregation(self, query: PathAggregationQuery) -> AggregationPlan:
        return self._planner.physical_plan(query).logical

    # -- evaluation: plan -> interpreter -----------------------------------------

    def _env(self, tracer=None) -> ExecEnv:
        """This query's snapshot of the engine's configuration, read once
        at query entry.  ``tracer`` overrides the installed one for the
        call (EXPLAIN ANALYZE traces one query without touching the
        engine other queries are running on)."""
        return ExecEnv(
            relation=self.relation, catalog=self.catalog, cache=self._bitmap_cache,
            tracer=tracer if tracer is not None else self._tracer,
            epoch=self._epoch,
            plan=self._planner.physical_plan,
            agg_views=self._agg_views, measured=self._measured_nodes,
        )

    def evaluate(self, expr: QueryExpr, ctx=None) -> Bitmap:
        """Evaluate a boolean combination of graph queries to a bitmap.

        Implements ``[Gq1 AND Gq2] = [Gq1] ∩ [Gq2]`` and friends as binary
        calculations on the stored bitmaps (Section 3.2).  ``ctx`` (a
        :class:`repro.resilience.QueryContext`) is checked between atoms,
        so deadlines and cancellation cover the whole expression tree.
        """
        return interpreter.evaluate(expr, self._env(), ctx)

    def query(
        self, query: GraphQuery | QueryExpr, fetch_measures: bool = True, ctx=None
    ) -> GraphQueryResult:
        """Answer a graph query: matching records with their measures.

        For a boolean expression, measures are fetched for the union of the
        atoms' elements that each matching record actually contains.

        With a tracer installed (:meth:`use_tracer`) the call produces one
        :class:`~repro.obs.QueryTrace` with nested rewrite / conjunction /
        measure-materialization spans; answers are identical either way.

        ``ctx`` is an optional :class:`repro.resilience.QueryContext`
        carrying the query's deadline and cancel token.
        """
        return self._run(query, fetch_measures, ctx)

    def aggregate(self, query: PathAggregationQuery, ctx=None) -> PathAggregationResult:
        """Answer ``F_Gq``: per matching record, apply the aggregate along
        every maximal source→terminal path of the query graph (§3.4).

        Traced like :meth:`query`, with an extra ``aggregation`` span
        covering the per-path partial-merge stage.  ``ctx`` works exactly
        as in :meth:`query`.
        """
        return self._run(query, True, ctx)

    def _run(self, query, fetch_measures: bool = True, ctx=None, tracer=None):
        """Interpret ``query`` against one environment snapshot and wrap
        the answer in its result type."""
        env = self._env(tracer)
        if isinstance(query, PathAggregationQuery):
            result_type = PathAggregationResult
            rows, answer, plan = interpreter.run_aggregate(query, env, ctx)
        else:
            result_type = GraphQueryResult
            rows, answer, elements, plan = interpreter.run_query(
                query, env, fetch_measures, ctx
            )
            if not isinstance(query, GraphQuery):
                query = GraphQuery(elements)
        return result_type(query, rows, self.record_ids_at(rows), answer, plan, env.epoch)

    # -- materialization ---------------------------------------------------------------

    def _fresh_view_name(self, prefix: str) -> str:
        self._view_counter += 1
        return f"{prefix}{self._view_counter}"

    def compute_view_bitmap(self, elements: Iterable[Edge], start: int = 0) -> Bitmap:
        """Bits ``[start, n_records)`` of the graph-view bitmap over
        ``elements``: the uncharged AND (:func:`and_refs`) of those bits
        of the elements' bitmaps, registering nothing and charging no
        query I/O; an append delta reads only the words its rows land in."""
        n = self.relation.n_records
        if not 0 <= start <= n:
            raise ValueError(f"view rows start {start} outside [0, {n}]")

        def rows(kind: str, token) -> Bitmap | None:
            bitmap = self.relation.ref_bitmap(kind, token)
            return None if bitmap is None else bitmap.slice(start, n)

        # An element the catalog never saw (id None) has no column either.
        refs = [("element", self.catalog.get_id(element)) for element in elements]
        return and_refs(rows, refs, n - start)

    def _aggregate_view_columns(
        self, view: AggregateGraphView, start: int = 0
    ) -> dict[str, MeasureColumn]:
        """Rows ``[start, n_records)`` of an aggregate view's stored columns:
        the function over the rows the view's bitmap matches — uncharged."""
        elements = view.elements(self._measured_nodes)
        ids = [self.catalog.get_id(element) for element in elements]
        bits = self.compute_view_bitmap(elements, start)
        rows = bits.to_indices() + start
        # A matched row holds every element, so every column exists.
        raw = [self.relation.column_for_persistence(i).take(rows) for i in ids] if rows.size else []
        return {
            name: MeasureColumn(get_function(name).combine(raw) if rows.size else (), bits)
            for name in view.stored_functions()
        }

    def add_graph_view(
        self,
        elements: Iterable[Edge],
        name: str | None = None,
        staged: Bitmap | None = None,
    ) -> str:
        """Materialize one graph view (or index feature) over ``elements``;
        returns its bitmap column's name.

        ``staged`` is the view's bitmap built earlier over the first
        ``staged.length`` rows (by :meth:`compute_view_bitmap`, e.g. off
        the writer lock).  Rows are immutable and append-only, so only the
        rows appended since are folded now: a commit costs the append
        tail, not the relation.
        """
        elements = frozenset(elements)
        staged = Bitmap.zeros(0) if staged is None else staged
        bitmap = Bitmap.concat([staged, self.compute_view_bitmap(elements, staged.length)])
        view = GraphView(name if name is not None else self._fresh_view_name("gv"), elements)
        self.relation.add_graph_view(view.name, bitmap)
        self._graph_views[view.name] = view
        self._bump_views_epoch()
        return view.name

    def drop_decayed(self, names: Iterable[str]) -> list[str]:
        """Drop the named views individually (graph or aggregate), leaving
        every other view untouched; unknown names are ignored.  Returns
        the names actually dropped.  A single views-epoch bump covers the
        whole batch, so readers see one atomic transition."""
        dropped: list[str] = []
        for view_name in names:
            if view_name in self._graph_views:
                self.relation.drop_graph_view(view_name)
                del self._graph_views[view_name]
                dropped.append(view_name)
            elif view_name in self._agg_views:
                view = self._agg_views.pop(view_name)
                for stored_fn in view.stored_functions():
                    self.relation.drop_aggregate_view(f"{view_name}:{stored_fn}")
                dropped.append(view_name)
        if dropped:
            self._bump_views_epoch()
        return dropped

    def materialize_graph_views(
        self,
        workload: Sequence[GraphQuery],
        budget: int,
        method: str = "closure",
        min_support: int = 1,
    ) -> MaterializationReport:
        """Select and materialize up to ``budget`` graph views (§5.2);
        ``method`` and ``min_support`` are :func:`select_graph_views`'s."""
        selection, n_candidates = select_graph_views(
            workload, budget, method, min_support
        )
        report = MaterializationReport(kind="graph", n_candidates=n_candidates)
        report.stopped_on_singleton = selection.stopped_on_singleton
        for elements in selection.selected:
            report.selected.append(self.add_graph_view(elements))
        if not report.selected:  # a write advances the epoch, even a no-op
            self._bump_views_epoch()
        return report

    def materialize_aggregate_views(
        self,
        workload: Sequence[PathAggregationQuery],
        budget: int,
        function: str = "sum",
        max_path_length: int | None = 32,
    ) -> MaterializationReport:
        """Select and materialize up to ``budget`` aggregate views (§5.4).

        Candidates are paths between interesting nodes of the workload
        union graph; the greedy chooser weighs coverage by path length, per
        the benefit model (longer pre-aggregated paths replace more
        columns).
        """
        measured = frozenset(self._measured_nodes)
        paths = candidate_aggregate_paths(workload, max_length=max_path_length)
        candidates: dict[str, frozenset[Edge]] = {}
        weights: dict[str, float] = {}
        keyed_paths: dict[str, Path] = {}
        for i, path in enumerate(paths):
            elements = frozenset(path.elements(measured) or path.edges())
            if len(elements) < 2:
                continue
            key = f"cand{i}"
            candidates[key] = elements
            weights[key] = float(len(path.edges()))
            keyed_paths[key] = path
        selection = greedy_select_views(
            [q.query.elements for q in workload], candidates, budget, weights
        )
        report = MaterializationReport(kind="aggregate", n_candidates=len(candidates))
        report.stopped_on_singleton = selection.stopped_on_singleton
        for key in selection.selected:
            name = self._fresh_view_name("av")
            view = AggregateGraphView(name, keyed_paths[key], function)
            for stored_fn, column in self._aggregate_view_columns(view).items():
                self.relation.add_aggregate_view(f"{name}:{stored_fn}", column)
            self._agg_views[name] = view
            report.selected.append(name)
        self._bump_views_epoch()
        return report

    def drop_all_views(self) -> None:
        """Remove every materialized view (benchmark budget sweeps)."""
        self.relation.drop_views()
        self._graph_views.clear()
        self._agg_views.clear()
        self._bump_views_epoch()

    # -- introspection ---------------------------------------------------------------

    def view_catalog(self) -> dict:
        """The materialized views as JSON-ready lists, by name: each graph
        view's elements and row count, each aggregate view's function and
        path (``repro views --json`` and the daemon's ``GET /views``)."""
        return {
            "graph_views": [
                {
                    "name": name,
                    "elements": [list(e) for e in sorted(view.elements, key=repr)],
                    "rows": self.relation.ref_bitmap("graph-view", name).count(),
                }
                for name, view in sorted(self._graph_views.items())
            ],
            "aggregate_views": [
                {
                    "name": name,
                    "function": view.function,
                    "path": [list(e) for e in view.path.edges()],
                }
                for name, view in sorted(self._agg_views.items())
            ],
        }

    def explain(
        self,
        query: GraphQuery | PathAggregationQuery,
        analyze: bool = False,
        fmt: str = "text",
    ) -> str:
        """EXPLAIN-style description: the chosen plan, its cost in the
        paper's units, and the SQL the column store would execute.

        With ``analyze=True`` the query is also executed under a temporary
        tracer and the measured counters + span tree are attached
        (EXPLAIN ANALYZE).  ``fmt`` selects ``"text"`` or ``"json"``.
        """
        from ...obs.explain import explain as _explain

        return _explain(self, query, analyze=analyze, fmt=fmt)

    def reset_stats(self) -> None:
        """Zero the collector and the installed cache's counts."""
        self.collector.reset()
        if self._bitmap_cache is not None:
            self._bitmap_cache.reset_stats()

    @property
    def stats(self) -> IOStats:
        """A snapshot of the I/O counts; the cache fields are the installed
        cache's own (zero without one)."""
        stats = self.collector.snapshot()
        cache = self._bitmap_cache
        if cache is not None:
            counts = cache.stats
            stats.cache_hits = counts.hits
            stats.cache_misses = counts.misses
            stats.cache_evictions = counts.evictions
        return stats

    def disk_size_bytes(self) -> int:
        return self.relation.disk_size_bytes()
