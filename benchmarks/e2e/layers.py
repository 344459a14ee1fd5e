"""The traced run: where the time of a request goes, layer by layer.

First the daemon serves the first ``TRACE_OPS`` operations of the seed's
sequence while its own ``/metrics`` counters are read before and after.
Then this process loads the same store, builds the same executor and
replays the same operations through the public functions of each layer,
one ``perf_counter_ns`` span per call.  The harness cannot put a stopwatch
inside ``run_one``, so its inner calls (``query``, ``evaluate``,
``physical_plan``) are re-run right after it and subtracted as its
children.  Every answer is compared with the daemon's and with an
unsharded, view-less, cache-less engine; a sample with the row store.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import time
from pathlib import Path

import stats
from daemon import children
from drive import drive, fill_failures, prepare, setup_seconds, split_ops
from repro.baselines import RowStore
from repro.core import GraphAnalyticsEngine, PathAggregationQuery
from repro.exec import QueryExecutor
from repro.lang import lower_statement, parse_statement_ast, tokenize
from repro.obs import MetricsRegistry
from repro.resilience import CancelToken, QueryContext
from repro.serve import codec
from repro.serve.protocol import Limits, read_request
from repro.serve.server import ServeConfig
from repro.serve.tenants import DEFAULT_TENANT, TenantGate
from wire import Connection, http_request

TRACE_OPS = 1000
ORACLE_SAMPLE = 32
# Spans that are measured beside the request, not on its path.
OFF_PATH = ("engine.evaluate_unsharded", "exec.run_one_serial", "bench.unstaged")


class Spans:
    """In-memory span log: ``(name, start_ns, end_ns, id, parent, request)``."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def add(self, name: str, start: int, end: int, parent, request: int) -> int:
        self.rows.append((name, start, end, len(self.rows), parent, request))
        return len(self.rows) - 1

    def timed(self, name: str, parent, request: int, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns ``(result, span_id)``."""
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        end = time.perf_counter_ns()
        return result, self.add(name, start, end, parent, request)

    def durations(self, name: str) -> list[int]:
        return [end - start for n, start, end, *_ in self.rows if n == name]

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "id", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(dict(zip(keys, row))) + "\n")


def reap_children() -> None:
    """End what a process-mode executor in this process leaves running (a
    forkserver and a resource tracker, both deaf to polite signals) and
    wait for it, so nothing outlives the benchmark."""
    for pid in children(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass


def encode_answer(chunk_rows: int, result, aggregate: bool) -> int:
    """The daemon's NDJSON encoding — header line, then ``chunk_rows`` rows
    per chunk — through the codec's public functions, without a socket.
    Returns the bytes of the row chunks."""
    if aggregate:
        header, rows = codec.encode_agg_header(result), codec.iter_agg_rows(result)
    else:
        header, rows = codec.encode_graph_header(result), codec.iter_graph_rows(result)
    (codec.dumps(header) + "\n").encode()   # work the daemon does; not row bytes
    total = 0
    buffer: list[str] = []
    for row in rows:
        buffer.append(codec.dumps(row))
        if len(buffer) >= chunk_rows:
            total += len(("\n".join(buffer) + "\n").encode())
            buffer.clear()
    if buffer:
        total += len(("\n".join(buffer) + "\n").encode())
    return total


def wire_ids(body: bytes) -> list:
    return [json.loads(line)["id"] for line in body.splitlines()[1:]]


def structural(query):
    return query.query if isinstance(query, PathAggregationQuery) else query


# -- 1. over the wire ---------------------------------------------------------


def wire_pass(session, plan, ops, seconds: float) -> dict:
    """Serve ``ops`` once with the daemon's own counters read on either
    side; returns what the wire showed and the counter deltas."""
    wl = plan.workload
    began = time.perf_counter()
    daemon = session.daemon(wl)
    try:
        prepare(daemon, plan)
        _, setup_kernel_s = setup_seconds(session, daemon, began)
        with Connection(daemon.port) as conn:
            ping = http_request("GET", "/healthz")
            floor = [conn.send(ping).ns for _ in range(300)][100:]
            before = conn.get_json("/metrics?format=json")
        logs, _marks = drive(daemon, ops, wl.clients, seconds, seconds, keep=True)
        with Connection(daemon.port) as conn:
            after = conn.get_json("/metrics?format=json")
        daemon.stop()
    except BaseException:
        daemon.kill()
        raise

    def delta(name: str, field: str = "value") -> float:
        return float(after.get(name, {}).get(field, 0.0)) - float(
            before.get(name, {}).get(field, 0.0)
        )

    # With two clients, what was served is the first n of each slice.
    done = min(len(log.bodies) for log in logs) * wl.clients
    reads, appends = split_ops(logs)
    reads, bad_reads = fill_failures(reads)
    appends, bad_appends = fill_failures(appends)
    return {
        "done": done,
        "bodies": [logs[j % wl.clients].bodies[j // wl.clients] for j in range(done)],
        "reads": reads,
        "appends": appends,
        "records": sum(n for log in logs for n in log.records),
        "failed": bad_reads + bad_appends,
        "floor": floor,
        "delta": delta,
        "start_s": daemon.start_s,
        "setup_kernel_s": setup_kernel_s,
    }


# -- 2. in this process, stage by stage ---------------------------------------


def replay(session, plan, ops, bodies, spans: Spans) -> dict:
    """Replay ``ops`` through each layer's public functions, one span per
    call; returns counts and the number of answers that did not match."""
    wl = plan.workload
    fetch = wl.fetch_measures
    t0 = time.perf_counter()
    engine = GraphAnalyticsEngine.load(session.store, shards=wl.shards)
    load_s = time.perf_counter() - t0
    oracle = GraphAnalyticsEngine.load(session.store)
    # Views go onto the engine before the executor exists: a process pool
    # would re-save the whole store after each materialisation.
    t0 = time.perf_counter()
    if wl.graph_views:
        engine.materialize_graph_views(
            [structural(q) for q in plan.queries], wl.graph_views
        )
    if wl.agg_views:
        engine.materialize_aggregate_views(plan.queries, wl.agg_views, function="sum")
    views_s = time.perf_counter() - t0
    registry = MetricsRegistry()
    executor = QueryExecutor(
        engine, jobs=wl.jobs, cache_mb=wl.cache_mb, exec_mode=wl.exec_mode,
        workers=wl.workers, storage_dir=str(session.store), registry=registry,
    )
    gate = TenantGate()
    chunk_rows = ServeConfig().stream_check_every
    limits = Limits()
    timed = spans.timed
    nbytes = max(engine.n_records // 8, 1)   # the daemon's admission estimate
    counts = {
        "load_s": load_s, "views_s": views_s, "mismatches": 0, "rows": 0,
        "row_bytes": 0, "parts": 0, "view_plans": 0, "appended": 0, "io": {},
    }
    io_total: dict[str, int] = counts["io"]
    appended: list = []
    read_index: list[int] = []

    def context() -> QueryContext:
        return QueryContext.start(timeout=None, token=CancelToken(), partial_ok=False)

    def answer(query):
        if wl.aggregate:
            return engine.aggregate(query)
        return engine.query(query, fetch_measures=fetch)

    def counted_run_one(i: int, name: str, query, ctx=None):
        """``run_one`` in a span, with the engine's column counts around it
        added to ``io_total``; also tells whether the bitmap cache missed."""
        io_before = dataclasses.asdict(engine.stats)
        result, span_id = timed(
            name, None, i, executor.run_one, query, fetch_measures=fetch, ctx=ctx
        )
        io_after = dataclasses.asdict(engine.stats)
        for key, value in io_after.items():
            io_total[key] = io_total.get(key, 0) + value - io_before[key]
        return result, span_id, io_after["cache_misses"] > io_before["cache_misses"]

    def admit(n: int) -> None:
        with gate.admit(DEFAULT_TENANT, n):
            pass

    def serve_unstaged(body: bytes) -> int:
        query = codec.build_query(codec.parse_body(body))
        with gate.admit(DEFAULT_TENANT, nbytes):
            result = executor.run_one(query, fetch_measures=fetch, ctx=context())
        return encode_answer(chunk_rows, result, wl.aggregate)

    async def read_requests() -> None:
        for i, op in enumerate(ops):
            reader = asyncio.StreamReader()
            reader.feed_data(op.raw)
            reader.feed_eof()
            start = time.perf_counter_ns()
            request = await read_request(reader, limits)
            spans.add("serve.protocol.read_request", start, time.perf_counter_ns(), None, i)
            if request is None or request.body != op.body:
                raise RuntimeError("read_request did not return the body sent")

    try:
        for op in plan.warmup:
            executor.run_one(plan.queries[op.query], fetch_measures=fetch)
        asyncio.run(read_requests())

        for i, op in enumerate(ops):
            payload, _ = timed("serve.codec.parse_body", None, i, codec.parse_body, op.body)
            if op.kind == "append":
                records, _ = timed(
                    "serve.codec.build_records", None, i, codec.build_records, payload
                )
                timed("serve.tenants.admit", None, i, admit, 0)
                count, _ = timed("exec.append", None, i, executor.append_records, records)
                oracle.append_records(records)
                appended.extend(records)
                reply = json.loads(bodies[i]) if bodies[i] else {}
                counts["mismatches"] += reply.get("appended") != count
                continue
            read_index.append(i)
            text = payload["q"]
            ast, parse_id = timed("lang.parse", None, i, parse_statement_ast, text)
            timed("lang.lex", parse_id, i, tokenize, text)
            query, _ = timed("lang.lower", None, i, lower_statement, ast, text)
            timed("serve.tenants.admit", None, i, admit, nbytes)
            result, run_id, missed = counted_run_one(i, "exec.run_one", query, context())
            row_bytes, _ = timed(
                "serve.codec.encode", None, i, encode_answer, chunk_rows, result, wl.aggregate
            )
            # Children of run_one, re-run.  Where run_one missed the bitmap
            # cache they run without one, or the fold it paid for would be
            # booked as the executor's own overhead.
            if missed:
                engine.use_bitmap_cache(None)
            inner, query_id = timed("engine.query", run_id, i, answer, query)
            _, eval_id = timed("engine.evaluate", query_id, i, engine.evaluate, structural(query))
            engine.use_bitmap_cache(executor.cache)
            physical, _ = timed("engine.plan_memo", eval_id, i, engine.physical_plan, query)
            flat, _ = timed("engine.evaluate_unsharded", None, i, oracle.evaluate, structural(query))
            timed("bench.unstaged", None, i, serve_unstaged, op.body)

            counts["rows"] += len(result)
            counts["row_bytes"] += row_bytes
            parts = physical.parts or ()
            counts["parts"] += len(parts)
            counts["view_plans"] += any(part.kind != "element" for part in parts)
            truth = oracle.record_ids_at(flat.to_indices())
            if not (
                bodies[i]
                and list(result.record_ids) == truth == wire_ids(bodies[i])
                and list(inner.record_ids) == truth
            ):
                counts["mismatches"] += 1

        # Plans without the memo, one per distinct query asked.
        asked = sorted({ops[i].query for i in read_index})
        for q in asked:
            engine._planner.invalidate()
            timed("engine.plan_cold", None, -1, engine.physical_plan, plan.queries[q])

        # The row-store model on a sample, at the final state.
        rowstore = RowStore()
        rowstore.load_records(session.corpus.to_records())
        rowstore.load_records(appended)
        for q in asked[:ORACLE_SAMPLE]:
            graph_query = structural(plan.queries[q])
            model = rowstore.query(graph_query).record_ids
            flat = oracle.record_ids_at(oracle.evaluate(graph_query).to_indices())
            counts["mismatches"] += sorted(model, key=str) != sorted(flat, key=str)

        # Process mode only: the same plans without the pool, for the cost
        # of crossing it — and for the column counts, which the parent's
        # collector cannot see while workers do the fetching.
        if wl.exec_mode == "process":
            executor.close()
            executor = QueryExecutor(
                engine, jobs=wl.jobs, cache_mb=wl.cache_mb, exec_mode="serial",
                registry=registry,
            )
            io_total.clear()
            for i in read_index:
                counted_run_one(i, "exec.run_one_serial", plan.queries[ops[i].query])
    finally:
        executor.close()
        reap_children()
    counts.update(
        reads=read_index, appended=len(appended), checked=len(asked[:ORACLE_SAMPLE])
    )
    return counts


# -- 3. the numbers -----------------------------------------------------------


def trace(session, workload, seed: int, seconds: float, spans_path=None) -> dict:
    """Per-layer metrics for one workload (see the module docstring)."""
    plan = session.plan(workload, seed, seconds)
    wire = wire_pass(session, plan, plan.ops[:TRACE_OPS], seconds)
    ops = plan.ops[: wire["done"]]
    spans = Spans()
    counts = replay(session, plan, ops, wire["bodies"], spans)
    if spans_path is not None:
        spans.write(spans_path)

    own = stats.self_times(spans.rows)
    delta = wire["delta"]

    def us(name: str) -> float:
        """Median self time of the spans of one name, in microseconds."""
        return stats.median(own[name]) / 1e3 if own.get(name) else 0.0

    def raw_us(name: str) -> float:
        values = spans.durations(name)
        return stats.median(values) / 1e3 if values else 0.0

    def total_us(name: str) -> float:
        return sum(own.get(name, ())) / 1e3

    # Per read, the stages on the daemon's path: top-level spans only.
    reads = set(counts["reads"])
    staged: dict[int, int] = {}
    for name, start, end, _sid, parent, request in spans.rows:
        if request in reads and parent is None and name not in OFF_PATH:
            staged[request] = staged.get(request, 0) + (end - start)
    staged_us = stats.median(list(staged.values())) / 1e3
    n_reads = max(len(reads), 1)
    n_appended = max(counts["appended"], 1)
    rows = max(counts["rows"], 1)
    io = counts["io"]
    wire_p50_ms = stats.percentile(wire["reads"], 50) / 1e6
    unaccounted_ms = wire_p50_ms - staged_us / 1e3
    lookups = delta("cache.hits") + delta("cache.misses")
    served = delta("exec.request_seconds", "count")
    dispatch_us = 0.0
    if workload.exec_mode == "process":
        dispatch_us = raw_us("exec.run_one") - raw_us("exec.run_one_serial")
    appends = wire["appends"]
    tail = stats.supported_percentile(len(wire["reads"]))
    info = session.store_info
    values = {
        "serve.server.floor_ms": (stats.percentile(wire["floor"], 50) / 1e6, "ms"),
        "serve.protocol.read_request_us": (us("serve.protocol.read_request"), "us"),
        "serve.codec.parse_body_us": (us("serve.codec.parse_body"), "us"),
        "serve.tenants.admit_us": (us("serve.tenants.admit"), "us"),
        "serve.codec.encode_us": (us("serve.codec.encode"), "us"),
        "serve.codec.encode_ns_per_row": (total_us("serve.codec.encode") * 1e3 / rows, "ns"),
        "serve.codec.bytes_per_row": (counts["row_bytes"] / rows, "B"),
        "serve.server.bytes_streamed_per_req": (
            delta("serve.bytes_streamed") / max(len(wire["reads"]), 1), "B"),
        "serve.codec.build_records_us_per_record": (
            total_us("serve.codec.build_records") / n_appended, "us"),
        "serve.server.unaccounted_ms": (unaccounted_ms, "ms"),
        "serve.server.unaccounted_share": (unaccounted_ms / wire_p50_ms, "ratio"),
        "lang.lex_us": (us("lang.lex"), "us"),
        "lang.parse_us": (us("lang.parse"), "us"),
        "lang.lower_us": (us("lang.lower"), "us"),
        "lang.tokens_per_query": (
            sum(len(tokenize(t)) for t in plan.texts) / len(plan.texts), "count"),
        "engine.plan_cold_us": (us("engine.plan_cold"), "us"),
        "engine.plan_memo_us": (us("engine.plan_memo"), "us"),
        "engine.parts_per_query": (counts["parts"] / n_reads, "count"),
        "engine.view_hit_ratio": (counts["view_plans"] / n_reads, "ratio"),
        "engine.evaluate_us": (us("engine.evaluate"), "us"),
        "engine.evaluate_unsharded_us": (us("engine.evaluate_unsharded"), "us"),
        "engine.shard_overhead_ratio": (
            raw_us("engine.evaluate") / raw_us("engine.evaluate_unsharded"), "ratio"),
        "engine.gather_us": (us("engine.query"), "us"),
        "engine.gather_ns_per_row": (total_us("engine.query") * 1e3 / rows, "ns"),
        "engine.rows_per_query": (counts["rows"] / n_reads, "count"),
        "engine.materialize_views_s": (counts["views_s"], "s"),
        "columnstore.bitmap_columns_per_query": (
            io.get("bitmap_columns_fetched", 0) / n_reads, "count"),
        "columnstore.view_bitmaps_per_query": (
            io.get("view_bitmaps_fetched", 0) / n_reads, "count"),
        "columnstore.measure_values_per_query": (
            io.get("measure_values_fetched", 0) / n_reads, "count"),
        "columnstore.bitmap_bytes_per_query": (
            io.get("bitmap_bytes_fetched", 0) / n_reads, "B"),
        "columnstore.save_s": (info["save_s"], "s"),
        "columnstore.load_s": (counts["load_s"], "s"),
        "engine.load_columnar_records_per_s": (
            session.corpus.n_records / info["load_columnar_s"], "1/s"),
        "exec.run_one_us": (raw_us("exec.run_one"), "us"),
        "exec.run_one_mean_us": (
            sum(spans.durations("exec.run_one")) / 1e3 / n_reads, "us"),
        "exec.overhead_us": (us("exec.run_one"), "us"),
        "exec.procpool.dispatch_us": (dispatch_us, "us"),
        "exec.cache.hit_rate": (delta("cache.hits") / lookups if lookups else 0.0, "ratio"),
        "exec.cache.evictions": (delta("cache.evictions"), "count"),
        "exec.cache.invalidations": (delta("cache.invalidations"), "count"),
        "exec.append_us_per_record": (total_us("exec.append") / n_appended, "us"),
        "exec.daemon_request_ms": (
            delta("exec.request_seconds", "sum") / served * 1e3 if served else 0.0, "ms"),
        "wire.p50_ms": (wire_p50_ms, "ms"),
        "wire.tail_ms": (stats.percentile(wire["reads"], tail) / 1e6, "ms"),
        "wire.tail_percentile": (tail, "%"),
        "wire.append_p50_ms": (
            stats.percentile(appends, 50) / 1e6 if appends else 0.0, "ms"),
        "wire.append_records_per_s": (
            wire["records"] / (sum(appends) / 1e9) if appends else 0.0, "1/s"),
        "workloads.generate_s": (session.generate_s, "s"),
        "serve.start_s": (wire["start_s"], "s"),
        "bench.setup_kernel_s": (wire["setup_kernel_s"], "s"),
        "bench.staged_total_us": (staged_us, "us"),
        "bench.span_overhead_ratio": (staged_us / raw_us("bench.unstaged"), "ratio"),
    }
    heavy = us("serve.codec.encode") + us("engine.query")
    light = (
        us("lang.lex") + us("lang.parse") + us("lang.lower")
        + us("engine.plan_memo") + us("engine.evaluate")
    )
    failed = wire["failed"] + counts["mismatches"]
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "shares": {
            "encode_and_gather": heavy / staged_us,
            "lang_plan_evaluate": light / staged_us,
        },
        "attempted": wire["done"] + len(reads) + counts["checked"],
        "failed": failed,
        "correct": failed == 0,
    }
