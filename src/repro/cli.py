"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``load`` — convert a JSONL/CSV record file into a persisted relation
  directory (the on-disk column store);
* ``query`` — run a DSL query against a persisted relation;
* ``aggregate`` — run a DSL path-aggregation query;
* ``batch`` — serve a file of DSL queries in order with a shared
  bitmap-conjunction cache (``--cache-mb``);
* ``explain`` — show the rewrite plan a query would use without running it
  (``--analyze`` also executes it and attaches measured counters + trace);
* ``metrics`` — serve a workload and dump the metrics registry;
* ``serve`` — run the HTTP daemon (``--adaptive`` adds the background
  view maintainer tracking the observed workload);
* ``views`` — list a persisted relation's materialized views;
* ``stats`` — show a persisted relation's shape and footprint;
* ``demo`` — build a small synthetic corpus and run a sample session.

Examples::

    python -m repro load records.jsonl ./db
    python -m repro query ./db "A -> D -> E"
    python -m repro aggregate ./db "SUM A -> D -> E"
    python -m repro batch ./db queries.txt --cache-mb 64
    python -m repro explain ./db "A -> D -> E" --analyze
    python -m repro metrics ./db --queries queries.txt --cache-mb 64
    python -m repro stats ./db
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path as FsPath

from .columnstore import relation_disk_usage
from .core import GraphAnalyticsEngine
from .errors import (
    QueryCancelledError,
    QuerySyntaxError,
    QueryTimeoutError,
    ReproError,
    ShardExecutionError,
    exit_code_for,
)
from .lang import (
    diagnose,
    format_workload,
    parse_aggregation,
    parse_query,
    parse_statement,
    parse_statement_ast,
    parse_workload,
    render_syntax_error,
)
from .exec import QueryExecutor
from .io import QuarantineReport, read_csv_triplets, read_jsonl

__all__ = ["main"]


def _executor_for(
    args: argparse.Namespace, engine: GraphAnalyticsEngine, registry=None
) -> QueryExecutor:
    return QueryExecutor(
        engine,
        cache_mb=getattr(args, "cache_mb", 0),
        default_timeout=getattr(args, "timeout", None),
        registry=registry,
    )


def _warn_unknown_nodes(engine: GraphAnalyticsEngine, text: str) -> None:
    """Did-you-mean warnings for node labels absent from the engine's
    catalog.  Unknown labels are legal (the answer is just empty), so
    these are stderr warnings, never errors."""
    try:
        ast = parse_statement_ast(text)
    except QuerySyntaxError:  # pragma: no cover - caller already parsed
        return
    for diag in diagnose(ast, engine.catalog.nodes()):
        print(f"warning: {diag.message}", file=sys.stderr)


def _cmd_load(args: argparse.Namespace) -> int:
    source = FsPath(args.source)
    if args.format == "auto":
        fmt = "csv" if source.suffix.lower() == ".csv" else "jsonl"
    else:
        fmt = args.format
    reader = read_csv_triplets if fmt == "csv" else read_jsonl
    directory = FsPath(args.database)
    report = QuarantineReport()
    records = reader(source, policy=args.on_error, report=report)
    if args.resume:
        if GraphAnalyticsEngine.is_saved_engine(directory):
            engine = GraphAnalyticsEngine.load(directory)
        else:
            engine = GraphAnalyticsEngine()
        loaded = engine.load_records_resumable(
            records, directory, batch_size=args.batch_size
        )
    else:
        engine = GraphAnalyticsEngine()
        loaded = engine.load_records(records)
        engine.save(directory)
    print(f"loaded {loaded} records "
          f"({engine.relation.n_element_columns} distinct elements) "
          f"into {directory}")
    if report:
        print(report.summary(), file=sys.stderr)
    if args.quarantine:
        FsPath(args.quarantine).write_text(report.to_json())
        print(f"quarantine report written to {args.quarantine}", file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = GraphAnalyticsEngine.load(args.database)
    expr = parse_query(args.query)
    _warn_unknown_nodes(engine, args.query)
    with _executor_for(args, engine) as executor:
        result = executor.run_one(expr, fetch_measures=not args.ids_only)
    print(f"{len(result)} matching records")
    limit = args.limit if args.limit else len(result)
    for i, record_id in enumerate(result.record_ids[:limit]):
        if args.ids_only:
            print(record_id)
        else:
            measures = {
                f"{u}->{v}": result.measures[(u, v)][i]
                for (u, v) in sorted(result.measures, key=repr)
                if not _is_nan(result.measures[(u, v)][i])
            }
            print(f"{record_id}: {measures}")
    if len(result) > limit:
        print(f"... ({len(result) - limit} more)")
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    engine = GraphAnalyticsEngine.load(args.database)
    query = parse_aggregation(args.query)
    _warn_unknown_nodes(engine, args.query)
    with _executor_for(args, engine) as executor:
        result = executor.run_one(query)
    print(f"{len(result)} matching records")
    limit = args.limit if args.limit else len(result)
    for path, values in result.path_values.items():
        print(f"path {path}:")
        for record_id, value in list(zip(result.record_ids, values))[:limit]:
            print(f"  {record_id}: {value:g}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Serve a file of DSL queries (one per line, ``#`` comments) through
    the executor and report throughput + cache efficiency.

    A malformed line fails with its 1-based line number and a caret
    pointing at the offending column."""
    import time

    statements = parse_workload(FsPath(args.queries).read_text())
    workload = [stmt.query for stmt in statements]
    engine = GraphAnalyticsEngine.load(args.database)
    engine.reset_stats()
    with _executor_for(args, engine) as executor:
        started = time.perf_counter()
        results = executor.run_batch(
            workload, fetch_measures=False, return_errors=True
        )
        elapsed = time.perf_counter() - started
    failed = 0
    for stmt, result in zip(statements, results):
        if isinstance(result, Exception):
            failed += 1
            print(f" ERROR  {stmt.text}  [{_describe_error(result)}]")
        else:
            print(f"{len(result):6d}  {stmt.text}")
    stats = engine.stats
    rate = len(results) / elapsed if elapsed else float("inf")
    print(
        f"served {len(results)} queries in {elapsed:.3f}s "
        f"({rate:.0f} q/s"
        + (f", {failed} failed" if failed else "")
        + ")",
        file=sys.stderr,
    )
    if executor.cache is not None:
        print(
            f"conjunction cache: {stats.cache_hits} hits / "
            f"{stats.conjunctions_requested()} requests "
            f"({100 * stats.cache_hit_rate():.0f}%), "
            f"{stats.cache_evictions} evictions, "
            f"{executor.cache.current_bytes() / 1e6:.2f} MB held",
            file=sys.stderr,
        )
    if failed:
        first = next(r for r in results if isinstance(r, Exception))
        return exit_code_for(first)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .obs import explain

    engine = GraphAnalyticsEngine.load(args.database)
    query = parse_statement(args.query)
    _warn_unknown_nodes(engine, args.query)
    if args.cache_mb:
        from .exec import BitmapCache

        engine.use_bitmap_cache(BitmapCache(int(args.cache_mb * (1 << 20))))
    try:
        print(explain(engine, query, analyze=args.analyze, fmt=args.format))
    except TypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry

    engine = GraphAnalyticsEngine.load(args.database)
    registry = MetricsRegistry()
    if args.queries:
        statements = parse_workload(FsPath(args.queries).read_text())
        workload = [stmt.query for stmt in statements]
        with _executor_for(args, engine, registry) as executor:
            executor.run_batch(workload, fetch_measures=False)
    dump = registry.to_json() if args.json else registry.render()
    if args.output:
        FsPath(args.output).write_text(registry.to_json() + "\n")
        print(f"metrics written to {args.output}", file=sys.stderr)
    print(dump)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .obs import MetricsRegistry
    from .resilience import AdmissionController
    from .serve import ReproServer, ServeConfig, TenantGate, TenantPolicy

    engine = GraphAnalyticsEngine.load(args.database)
    # The daemon's tenant gate is the only admission; it admits
    # tenant-first so one tenant can't starve the rest.
    shared = None
    if args.max_inflight or args.rate:
        shared = AdmissionController(
            max_inflight=args.max_inflight,
            rate=args.rate,
            max_wait_s=args.max_wait,
        )
    policy = TenantPolicy(
        max_inflight=args.tenant_max_inflight,
        rate=args.tenant_rate,
        max_wait_s=args.max_wait,
    )
    registry = MetricsRegistry()
    config = ServeConfig(host=args.host, port=args.port)

    async def run() -> int:
        with _executor_for(args, engine, registry) as executor:
            maintainer = None
            if args.adaptive:
                from .adaptive import ViewMaintainer, WorkloadWindow

                maintainer = ViewMaintainer(
                    executor,
                    window=WorkloadWindow(args.adaptive_window),
                    budget=args.adaptive_budget,
                    interval_s=args.adaptive_interval,
                    min_support=args.adaptive_min_support,
                    hit_rate_floor=args.adaptive_floor,
                    registry=registry,
                )
            server = ReproServer(
                executor,
                registry=registry,
                gate=TenantGate(shared=shared, policy=policy),
                config=config,
                maintainer=maintainer,
            )
            await server.start()
            adaptive_note = (
                f", adaptive views every {args.adaptive_interval:g}s"
                if maintainer is not None
                else ""
            )
            print(
                f"repro serve: listening on http://{args.host}:{server.port} "
                f"({engine.n_records} records{adaptive_note})"
            )
            try:
                await asyncio.Event().wait()
            except (KeyboardInterrupt, asyncio.CancelledError):
                pass
            finally:
                print("repro serve: draining...", file=sys.stderr)
                await server.stop()
            return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_views(args: argparse.Namespace) -> int:
    import json

    catalog = GraphAnalyticsEngine.load(args.database).view_catalog()
    if args.json:
        print(json.dumps(catalog, indent=2, default=str))
        return 0

    def edge_str(edge) -> str:
        return "-".join(str(node) for node in edge)

    graph, agg = catalog["graph_views"], catalog["aggregate_views"]
    print(f"graph views ({len(graph)}):")
    for view in graph:
        elems = ", ".join(edge_str(e) for e in view["elements"])
        print(f"  {view['name']:<14} {view['rows']:>8} rows  {{{elems}}}")
    print(f"aggregate views ({len(agg)}):")
    for view in agg:
        path = " -> ".join(edge_str(e) for e in view["path"])
        print(f"  {view['name']:<14} {view['function']:<6} {path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    directory = FsPath(args.database)
    engine = GraphAnalyticsEngine.load(directory)
    relation = engine.relation
    print(f"records:            {relation.n_records}")
    print(f"element columns:    {relation.n_element_columns}")
    print(f"partitions:         {relation.n_partitions} "
          f"(width {relation.partition_width})")
    print(f"graph views:        {len(relation.graph_view_names())}")
    print(f"aggregate views:    {len(relation.aggregate_view_names())}")
    print(f"size (model):       {relation.disk_size_bytes() / 1e6:.2f} MB")
    print(f"size (on disk):     {relation_disk_usage(directory) / 1e6:.2f} MB")
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    """Canonicalize DSL query/workload files in place (``repro fmt``).

    Every statement is rewritten to its canonical spelling (the one
    EXPLAIN prints and the unparser emits); comments and blank lines are
    preserved.  ``--check`` reports files that would change without
    touching them (exit 1), for CI.  ``--stdout`` prints the formatted
    text instead of rewriting (single file only).
    """
    if args.stdout and len(args.files) != 1:
        print("error: --stdout takes exactly one file", file=sys.stderr)
        return 2
    changed: list[str] = []
    for name in args.files:
        path = FsPath(name)
        original = path.read_text()
        try:
            formatted = format_workload(original)
        except QuerySyntaxError as exc:
            print(f"{name}: {render_syntax_error(exc)}", file=sys.stderr)
            return 2
        if args.stdout:
            sys.stdout.write(formatted)
            return 0
        if formatted != original:
            changed.append(name)
            if not args.check:
                path.write_text(formatted)
                print(f"formatted {name}", file=sys.stderr)
    if args.check and changed:
        for name in changed:
            print(f"would reformat {name}")
        return 1
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .workloads import build_dataset, sample_path_queries

    corpus = build_dataset("NY", n_records=args.records, seed=7)
    engine = GraphAnalyticsEngine()
    engine.load_columnar(corpus.record_ids(), corpus.to_columnar())
    queries = sample_path_queries(corpus, 5, 5, seed=3)
    print(f"demo corpus: {engine.n_records} records, "
          f"{engine.relation.n_element_columns} elements")
    for query in queries:
        result = engine.query(query, fetch_measures=False)
        print(f"  {len(result):5d} records contain "
              f"{' -> '.join(str(n) for n in sorted(query.nodes()))[:60]}")
    return 0


def _is_nan(value: float) -> bool:
    return value != value


def _describe_error(exc: Exception) -> str:
    """One-line human rendering of a serving failure."""
    if isinstance(exc, QueryTimeoutError):
        return f"timed out: {exc}"
    if isinstance(exc, QueryCancelledError):
        return "cancelled"
    if isinstance(exc, ShardExecutionError):
        return f"shard failure: {exc}"
    return f"{type(exc).__name__}: {exc}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph analytics on massive collections of small graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_load = sub.add_parser("load", help="ingest records into a database directory")
    p_load.add_argument("source", help="records file (.jsonl or .csv)")
    p_load.add_argument("database", help="output database directory")
    p_load.add_argument("--format", choices=["auto", "jsonl", "csv"], default="auto")
    p_load.add_argument(
        "--on-error", choices=["strict", "skip", "collect"], default="strict",
        help="bad input lines: abort (strict), drop silently (skip), or "
             "drop and report (collect)",
    )
    p_load.add_argument(
        "--quarantine", metavar="FILE", default=None,
        help="write the quarantine report as JSON to FILE",
    )
    p_load.add_argument(
        "--resume", action="store_true",
        help="batched, checkpointed load; re-run the same command after a "
             "crash to continue where it left off",
    )
    p_load.add_argument(
        "--batch-size", type=int, default=1000,
        help="records per checkpointed batch with --resume (default 1000)",
    )
    p_load.set_defaults(func=_cmd_load)

    def add_serving_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-mb", type=float, default=0, metavar="MB",
            help="bitmap-conjunction cache budget in MB (0 = off)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-query deadline; an overrunning query is cancelled at "
                 "the next operator boundary (exit code 3)",
        )
        # Accepted and ignored — every query folds in one call, in order —
        # because the frozen benchmark starts its daemons with all four
        # (benchmarks/e2e/data.py:64-70, Workload.daemon_flags).
        p.add_argument("--jobs", type=int, default=None, help=argparse.SUPPRESS)
        p.add_argument("--shards", type=int, default=None, help=argparse.SUPPRESS)
        p.add_argument("--exec-mode", choices=("serial", "thread", "process"),
                       default=None, help=argparse.SUPPRESS)
        p.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)

    p_query = sub.add_parser("query", help="run a DSL graph query")
    p_query.add_argument("database")
    p_query.add_argument("query", help="e.g. \"A -> D -> E\" or \"{(C,H)} OR {(F,J)}\"")
    p_query.add_argument("--limit", type=int, default=20)
    p_query.add_argument("--ids-only", action="store_true")
    add_serving_flags(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_agg = sub.add_parser("aggregate", help="run a DSL path-aggregation query")
    p_agg.add_argument("database")
    p_agg.add_argument("query", help='e.g. "SUM A -> D -> E"')
    p_agg.add_argument("--limit", type=int, default=20)
    add_serving_flags(p_agg)
    p_agg.set_defaults(func=_cmd_aggregate)

    p_batch = sub.add_parser("batch", help="serve a file of DSL queries")
    p_batch.add_argument("database")
    p_batch.add_argument(
        "queries",
        help="text file: one DSL query per line (graph or aggregation); "
             "# comments and blank lines are skipped",
    )
    add_serving_flags(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_explain = sub.add_parser(
        "explain", help="show a query's rewrite plan without running it"
    )
    p_explain.add_argument("database")
    p_explain.add_argument(
        "query", help='graph or aggregation DSL, e.g. "A -> D -> E"'
    )
    p_explain.add_argument(
        "--analyze", action="store_true",
        help="also execute the query and attach measured counters + trace",
    )
    p_explain.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="plan rendering (default text)",
    )
    p_explain.add_argument(
        "--cache-mb", type=float, default=0, metavar="MB",
        help="bitmap-conjunction cache budget for --analyze (0 = off)",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_metrics = sub.add_parser(
        "metrics", help="serve a workload and dump the metrics registry"
    )
    p_metrics.add_argument("database")
    p_metrics.add_argument(
        "--queries", metavar="FILE", default=None,
        help="DSL workload file to serve before dumping (one query per line)",
    )
    p_metrics.add_argument(
        "--json", action="store_true", help="dump as JSON instead of text"
    )
    p_metrics.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the JSON dump to FILE",
    )
    add_serving_flags(p_metrics)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP daemon over a database directory"
    )
    p_serve.add_argument("database")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8750,
        help="listen port (0 = pick an ephemeral port; default 8750)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="shared cap on concurrent requests; excess requests wait up "
             "to --max-wait, then get 429 (default unlimited)",
    )
    p_serve.add_argument(
        "--rate", type=float, default=None, metavar="QPS",
        help="shared token-bucket admission rate (default unlimited)",
    )
    p_serve.add_argument(
        "--max-wait", type=float, default=0.0, metavar="SECONDS",
        help="bounded admission wait before rejecting (default 0)",
    )
    p_serve.add_argument(
        "--tenant-max-inflight", type=int, default=None, metavar="N",
        help="per-tenant concurrent-query cap (default unlimited)",
    )
    p_serve.add_argument(
        "--tenant-rate", type=float, default=None, metavar="QPS",
        help="per-tenant token-bucket rate (default unlimited)",
    )
    p_serve.add_argument(
        "--adaptive", action="store_true",
        help="run the background view maintainer: observe served queries, "
             "materialize/drop views to track the workload",
    )
    p_serve.add_argument(
        "--adaptive-interval", type=float, default=5.0, metavar="SECONDS",
        help="seconds between maintenance refreshes (default 5)",
    )
    p_serve.add_argument(
        "--adaptive-budget", type=int, default=8, metavar="N",
        help="max maintainer-managed graph views (default 8)",
    )
    p_serve.add_argument(
        "--adaptive-window", type=int, default=512, metavar="N",
        help="observed-workload window size in queries (default 512)",
    )
    p_serve.add_argument(
        "--adaptive-min-support", type=int, default=2, metavar="N",
        help="min windowed occurrences for a view candidate (default 2)",
    )
    p_serve.add_argument(
        "--adaptive-floor", type=float, default=0.05, metavar="RATE",
        help="drop a decayed view once its windowed hit rate sinks below "
             "this (default 0.05)",
    )
    add_serving_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_views = sub.add_parser(
        "views", help="list a database's materialized views"
    )
    p_views.add_argument("database")
    p_views.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_views.set_defaults(func=_cmd_views)

    p_stats = sub.add_parser("stats", help="show a database's shape and size")
    p_stats.add_argument("database")
    p_stats.set_defaults(func=_cmd_stats)

    p_fmt = sub.add_parser(
        "fmt", help="canonicalize DSL query/workload files in place"
    )
    p_fmt.add_argument(
        "files", nargs="+", metavar="FILE",
        help="workload files (one statement per line, # comments kept)",
    )
    p_fmt.add_argument(
        "--check", action="store_true",
        help="don't rewrite; exit 1 listing files that would change",
    )
    p_fmt.add_argument(
        "--stdout", action="store_true",
        help="print the formatted text instead of rewriting (one file)",
    )
    p_fmt.set_defaults(func=_cmd_fmt)

    p_demo = sub.add_parser("demo", help="run a synthetic demo session")
    p_demo.add_argument("--records", type=int, default=500)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe early.
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (QueryTimeoutError, QueryCancelledError, ShardExecutionError) as exc:
        # Resilience failures before the generic ReproError catch-all:
        # distinct exit codes so callers can branch on the failure class.
        print(f"error: {_describe_error(exc)}", file=sys.stderr)
        return exit_code_for(exc)
    except QuerySyntaxError as exc:
        # Caret-annotated rendering: message, offending line, ^ column.
        print(f"error: {render_syntax_error(exc)}", file=sys.stderr)
        return 2
    except (ReproError, ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
