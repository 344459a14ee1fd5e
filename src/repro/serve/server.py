"""The asyncio daemon: routes, lifecycle, and the engine bridge.

Architecture (DESIGN §7): the daemon owns *no* query logic, and its loop
never waits.  One :class:`~repro.exec.QueryExecutor` does all engine
work.  A read that nothing
would make wait — its gates open, no writer, a fold under
``QueryExecutor.nowait_words`` — is answered on the loop; everything else
(writes, view DDL, EXPLAIN, and the reads that would wait) runs on a
small thread pool bridged via ``run_in_executor``.  Three things cross
the wire into the engine:

* the **deadline** (``timeout_ms``) becomes a ``QueryContext`` deadline
  checked at every operator boundary;
* **client disconnect** fires the context's ``CancelToken`` — a bridged
  read's watcher task reads the idle socket, and EOF mid-query cancels
  the engine work instead of computing an answer nobody will read (a
  read answered on the loop sees a gone client at its first write);
* the **tenant id** picks the admission gates (:mod:`.tenants`) the
  request must hold while the engine runs.

Answers stream as chunked NDJSON, encoded a block of rows at a time and
written once per 64 KiB (each write awaits ``drain()``: backpressure).
If the deadline expires or anything fails *mid-stream* the stream ends
with a final ``{"error": ...}`` line and the connection closes; clients
compare rows received against the header's ``count``.

Failures never escape a connection handler: typed errors become
structured JSON bodies (:func:`.codec.error_payload`), protocol
violations become :class:`.protocol.ProtocolError` responses, and the
fuzz suite asserts inflight gauges return to zero after every case.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core import PathAggregationQuery
from ..errors import AdmissionRejectedError, ReproError
from ..lang import try_unparse
from ..obs import MetricsRegistry
from ..resilience import CancelToken, QueryContext
from . import codec
from .codec import WireError, dumps, error_payload
from .protocol import (
    ChunkedWriter,
    Limits,
    ProtocolError,
    Request,
    read_request,
    render_response,
)
from .tenants import DEFAULT_TENANT, BadTenantError, TenantGate

__all__ = ["ServeConfig", "ReproServer", "ServerHandle", "start_in_thread"]

# Answer bytes gathered before a socket write: an answer below this is one
# write, a larger one awaits ``drain()`` once per this many bytes.
_FLUSH_BYTES = 64 * 1024


@dataclass
class ServeConfig:
    """Daemon knobs; engine knobs live on the executor it wraps."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral, read .port after start
    limits: Limits = field(default_factory=Limits)
    max_timeout_s: float = 300.0             # ceiling on client-requested budgets
    drain_s: float = 5.0                     # graceful-stop wait for inflight
    engine_threads: int = 8                  # blocking-call bridge width
    stream_check_every: int = 64             # rows per encoded block and ctx check


class _ConnState:
    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


def _route_metric(path: str) -> str:
    return path.strip("/").replace("/", "_") or "root"


class ReproServer:
    """One daemon over one executor.

    ``gate`` supplies multi-tenant admission, the only admission: the
    daemon gates *before* the engine, tenant first.  A body without
    ``timeout_ms`` gets the executor's ``default_timeout``.

    ``maintainer`` is an optional
    :class:`~repro.adaptive.ViewMaintainer`: its background loop starts
    and stops with the server, and ``GET /views`` reports its status
    alongside the materialized view catalog.
    """

    def __init__(
        self,
        executor,
        registry: MetricsRegistry | None = None,
        gate: TenantGate | None = None,
        config: ServeConfig | None = None,
        maintainer=None,
    ):
        self.executor = executor
        self.maintainer = maintainer
        self.registry = registry if registry is not None else executor.registry
        if self.registry is None:
            self.registry = MetricsRegistry()
        self.gate = gate or TenantGate()
        self.config = config or ServeConfig()
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.engine_threads, thread_name_prefix="serve-engine"
        )
        self._conns: dict[asyncio.Task, _ConnState] = {}
        self._closing = False
        self._inflight = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        if self.maintainer is not None:
            self.maintainer.start()

    async def stop(self, drain_s: float | None = None) -> None:
        """Graceful stop: refuse new work, drain inflight, then cut.

        Idle keep-alive connections are closed immediately (nothing to
        drain); busy ones get up to ``drain_s`` to finish their current
        request before their tasks are cancelled.
        """
        drain_s = self.config.drain_s if drain_s is None else drain_s
        self._closing = True
        if self.maintainer is not None:
            # Joining the maintainer thread can wait out an in-flight
            # refresh; keep that off the event loop.
            await asyncio.get_running_loop().run_in_executor(
                None, self.maintainer.stop
            )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task, state in list(self._conns.items()):
            if not state.busy:
                state.writer.close()
        pending = [t for t in self._conns if not t.done()]
        if pending:
            done, pending = await asyncio.wait(pending, timeout=drain_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._pool.shutdown(wait=False)

    # -- connection handling ------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        state = _ConnState(writer)
        self._conns[task] = state
        self.registry.gauge("serve.connections").inc()
        task.add_done_callback(self._on_connection_done)

    def _on_connection_done(self, task: asyncio.Task) -> None:
        self._conns.pop(task, None)
        self.registry.gauge("serve.connections").dec()
        with contextlib.suppress(asyncio.CancelledError):
            exc = task.exception()
            if exc is not None:  # handler swallows everything; belt+braces
                self.registry.counter("serve.internal_errors").inc()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = self._conns.get(asyncio.current_task())
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.limits)
                except ProtocolError as exc:
                    await self._send_protocol_error(writer, exc)
                    if exc.fatal:
                        break
                    continue
                if request is None:
                    break
                if state is not None:
                    state.busy = True
                try:
                    keep = await self._dispatch(request, reader, writer)
                finally:
                    if state is not None:
                        state.busy = False
                if not keep or self._closing:
                    break
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _send_protocol_error(
        self, writer: asyncio.StreamWriter, exc: ProtocolError
    ) -> None:
        self.registry.counter("serve.protocol_errors").inc()
        body = dumps(
            {"error": {"code": exc.code, "message": str(exc), "exit_code": 2}}
        ).encode()
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(
                render_response(exc.status, body, keep_alive=not exc.fatal)
            )
            await writer.drain()

    # -- dispatch -----------------------------------------------------------

    _ROUTES = {
        "/query": ("POST",),
        "/aggregate": ("POST",),
        "/explain": ("POST",),
        "/append": ("POST",),
        "/materialize": ("POST",),
        "/metrics": ("GET", "HEAD"),
        "/healthz": ("GET", "HEAD"),
        "/views": ("GET", "HEAD"),
    }

    async def _dispatch(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Answer one request; returns whether to keep the connection."""
        registry = self.registry
        registry.counter("serve.requests").inc()
        if self._closing:
            return await self._send_error(
                writer, request, 503, "shutting-down", "server is draining"
            )
        allowed = self._ROUTES.get(request.path)
        if allowed is None:
            return await self._send_error(
                writer, request, 404, "not-found", f"no route {request.path!r}"
            )
        if request.method not in allowed:
            return await self._send_error(
                writer,
                request,
                405,
                "method-not-allowed",
                f"{request.path} accepts {'/'.join(allowed)}",
                extra_headers={"Allow": ", ".join(allowed)},
            )
        registry.gauge("serve.inflight").inc()
        start = time.perf_counter()
        try:
            if request.path == "/healthz":
                keep = await self._handle_healthz(request, writer)
            elif request.path == "/metrics":
                keep = await self._handle_metrics(request, writer)
            elif request.path == "/views":
                keep = await self._handle_views(request, writer)
            elif request.path in ("/query", "/aggregate"):
                keep = await self._handle_query(request, reader, writer)
            elif request.path == "/explain":
                keep = await self._handle_explain(request, writer)
            elif request.path == "/append":
                keep = await self._handle_append(request, writer)
            else:
                keep = await self._handle_materialize(request, writer)
            return keep
        except (WireError, BadTenantError, ReproError, ValueError) as exc:
            status, body = self._classify(exc)
            return await self._send_json(writer, request, status, body)
        except (ConnectionError, OSError):
            return False
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - last-ditch guard
            registry.counter("serve.internal_errors").inc()
            status, body = error_payload(exc)
            return await self._send_json(writer, request, status, body)
        finally:
            registry.gauge("serve.inflight").dec()
            registry.histogram(
                f"serve.{_route_metric(request.path)}_seconds"
            ).observe(time.perf_counter() - start)

    def _classify(self, exc: Exception) -> tuple[int, dict]:
        if isinstance(exc, BadTenantError):
            return 400, {
                "error": {"code": "bad-tenant", "message": str(exc), "exit_code": 2}
            }
        if isinstance(exc, AdmissionRejectedError):
            self.registry.counter("serve.rejects").inc()
        status, body = error_payload(exc)
        return status, body

    # -- shared helpers -----------------------------------------------------

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        request: Request,
        status: int,
        payload: dict,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> bool:
        if status >= 400:
            self.registry.counter("serve.errors").inc()
        body = dumps(payload).encode() if isinstance(payload, dict) else payload
        keep = request.keep_alive and status < 500
        head_only = request.method == "HEAD"
        extra = dict(extra_headers or {})
        retry_after = payload.get("error", {}).get("retry_after") if isinstance(payload, dict) else None
        if status == 429 and retry_after is not None:
            extra["Retry-After"] = f"{max(retry_after, 0.0):.3f}"
        response = render_response(
            status,
            b"" if head_only else body,
            content_type=content_type,
            keep_alive=keep,
            extra_headers=extra or None,
        )
        writer.write(response)
        await writer.drain()
        self.registry.counter("serve.bytes_sent").inc(0 if head_only else len(body))
        return keep

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        request: Request,
        status: int,
        code: str,
        message: str,
        extra_headers: dict[str, str] | None = None,
    ) -> bool:
        return await self._send_json(
            writer,
            request,
            status,
            {"error": {"code": code, "message": message, "exit_code": 2}},
            extra_headers=extra_headers,
        )

    def _tenant_of(self, request: Request, payload: dict | None) -> str:
        tenant = None
        if payload is not None:
            tenant = payload.get("tenant")
        if tenant is None:
            tenant = request.headers.get("x-repro-tenant", DEFAULT_TENANT)
        try:
            return TenantGate.validate(tenant)
        except BadTenantError as exc:
            raise WireError(400, "bad-tenant", str(exc)) from None

    def _timeout_of(self, payload: dict) -> float | None:
        raw = payload.get("timeout_ms")
        if raw is None:
            return self.executor.default_timeout
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw <= 0:
            raise WireError(
                400, "bad-request", f'"timeout_ms" must be a positive number: {raw!r}'
            )
        return min(raw / 1000.0, self.config.max_timeout_s)

    async def _in_engine(self, fn):
        assert self._loop is not None
        return await self._loop.run_in_executor(self._pool, fn)

    @staticmethod
    def _watch_disconnect(
        reader: asyncio.StreamReader, token: CancelToken
    ) -> asyncio.Task:
        """EOF on the request socket while a bridged read runs → cancel.
        (A read answered on the loop arms none: nothing can interleave.)

        If the peer instead *sends* bytes early (pipelining, which this
        server does not support), the connection is marked for close by
        the caller — the stolen byte never corrupts framing because the
        connection never reads another request.
        """

        async def watch() -> None:
            data = await reader.read(1)
            if not data:
                token.cancel()

        return asyncio.ensure_future(watch())

    async def _finish_watcher(self, watcher: asyncio.Task) -> bool:
        """Reap the disconnect watcher; returns keep_alive permission."""
        if not watcher.done():
            watcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await watcher
            return True
        return False  # EOF or early bytes: either way, close

    # -- route handlers -----------------------------------------------------

    async def _handle_healthz(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        engine = self.executor.engine
        payload = {
            "status": "draining" if self._closing else "ok",
            "epoch": self.executor.epoch,
            "n_records": engine.n_records,
            "inflight": self.gate.inflight(),
            "admission": self.gate.stats(),
        }
        return await self._send_json(writer, request, 200, payload)

    async def _handle_views(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """The materialized view catalog plus adaptive-maintainer status."""
        catalog = await self._in_engine(self.executor.view_catalog)
        payload = {
            "epoch": self.executor.epoch,
            **catalog,
            "adaptive": (
                self.maintainer.status() if self.maintainer is not None else None
            ),
        }
        return await self._send_json(writer, request, 200, payload)

    async def _handle_metrics(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        if request.params.get("format") == "json":
            body = self.registry.to_json(indent=None).encode()
            ctype = "application/json"
        else:
            body = self.registry.render().encode()
            ctype = "text/plain; charset=utf-8"
        response = render_response(
            200,
            b"" if request.method == "HEAD" else body,
            content_type=ctype,
            keep_alive=request.keep_alive,
        )
        writer.write(response)
        await writer.drain()
        return request.keep_alive

    _QUERY_FIELDS = ("q", "elements", "fetch_measures", "timeout_ms", "tenant")
    _AGG_FIELDS = _QUERY_FIELDS + ("function",)

    async def _handle_query(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        is_aggregate = request.path == "/aggregate"
        payload = codec.parse_body(request.body)
        codec.check_fields(
            payload, self._AGG_FIELDS if is_aggregate else self._QUERY_FIELDS
        )
        query = codec.build_query(payload)
        if is_aggregate != isinstance(query, PathAggregationQuery):
            want = "a path aggregation" if is_aggregate else "a graph query"
            raise WireError(
                400, "bad-query", f"{request.path} wants {want}, got the other kind"
            )
        tenant = self._tenant_of(request, payload)
        fetch_measures = payload.get("fetch_measures", True)
        if not isinstance(fetch_measures, bool):
            raise WireError(400, "bad-request", '"fetch_measures" must be a boolean')
        timeout = self._timeout_of(payload)

        token = CancelToken()
        ctx = QueryContext.start(timeout=timeout, token=token)
        # Answered on the loop unless something would make it wait; else
        # bridged, watcher armed, carrying the probe's permit if it took
        # one.  The permit covers execution AND streaming (a slow reader).
        permit = self.gate.try_admit(tenant)
        try:
            result = None
            if permit is not None:
                result = self.executor.run_one(
                    query, fetch_measures=fetch_measures, ctx=ctx, wait=False
                )
            keep = request.keep_alive
            if result is not None:
                self.registry.counter("serve.loop_answers").inc()
            else:
                probed, watcher = permit, self._watch_disconnect(reader, token)

                def work():
                    held = contextlib.ExitStack()  # admit: blocking, bounded wait
                    held.enter_context(
                        self.gate.admit(tenant) if probed is None else probed
                    )
                    try:
                        result = self.executor.run_one(
                            query, fetch_measures=fetch_measures, ctx=ctx
                        )
                    except BaseException:
                        held.close()
                        raise
                    return result, held

                try:
                    result, permit = await self._in_engine(work)
                finally:
                    keep = await self._finish_watcher(watcher) and keep
                # (errors raised by work() propagate to _dispatch's classifier)
            header, blocks = codec.encode_answer(
                result, max(self.config.stream_check_every, 1)
            )
            return await self._stream_ndjson(writer, header, blocks, ctx, keep)
        finally:
            if permit is not None:
                permit.close()

    async def _stream_ndjson(
        self,
        writer: asyncio.StreamWriter,
        header: bytes,
        blocks,
        ctx: QueryContext,
        keep_alive: bool,
    ) -> bool:
        """Header line + row blocks as one chunked NDJSON response.

        Lines gather in ``pending`` and leave in one write when they pass
        ``_FLUSH_BYTES`` or the answer ends.  The context is re-checked at
        every block: a deadline that expires or a token that fires cuts the
        answer there, with a final error line, and closes the connection.
        Any other failure is reported the same way once bytes have left;
        before that it propagates, and the client gets an ordinary error
        response instead of a 200.
        """
        chunked = ChunkedWriter(writer, keep_alive=keep_alive)
        registry = self.registry
        pending, size = [header], len(header)
        try:
            for block in blocks:
                ctx.check()
                pending.append(block)
                size += len(block)
                if size >= _FLUSH_BYTES:
                    await chunked.send(b"".join(pending))
                    pending, size = [], 0
            await chunked.send(b"".join(pending), last=True)
        except (ConnectionError, OSError):
            keep_alive = False
        except Exception as exc:
            typed = isinstance(exc, ReproError)  # deadline / cancel from ctx.check()
            if not (typed or chunked.started):
                raise
            if not typed:
                registry.counter("serve.internal_errors").inc()
            registry.counter("serve.stream_truncated").inc()
            pending.append((dumps(self._classify(exc)[1]) + "\n").encode())
            with contextlib.suppress(ConnectionError, OSError):
                await chunked.send(b"".join(pending), last=True)
            keep_alive = False
        finally:
            registry.counter("serve.bytes_streamed").inc(chunked.bytes_sent)
        return keep_alive

    _EXPLAIN_FIELDS = ("q", "elements", "function", "analyze", "fmt", "tenant")

    async def _handle_explain(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        payload = codec.parse_body(request.body)
        codec.check_fields(payload, self._EXPLAIN_FIELDS)
        query = codec.build_query(payload)
        tenant = self._tenant_of(request, payload)
        analyze = payload.get("analyze", False)
        fmt = payload.get("fmt", "text")
        if not isinstance(analyze, bool):
            raise WireError(400, "bad-request", '"analyze" must be a boolean')
        if fmt not in ("text", "json"):
            raise WireError(400, "bad-request", '"fmt" must be "text" or "json"')

        def work():
            with self.gate.admit(tenant):
                return self.executor.explain(query, analyze=analyze, fmt=fmt)

        text = await self._in_engine(work)
        # The canonical spelling re-parses to the same plan, so clients
        # can round-trip what they asked for (None for non-text labels).
        canonical = try_unparse(query)
        return await self._send_json(
            writer,
            request,
            200,
            {
                "explain": text,
                "fmt": fmt,
                "epoch": self.executor.epoch,
                "query": canonical,
            },
        )

    async def _handle_append(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        payload = codec.parse_body(request.body)
        codec.check_fields(payload, ("records", "tenant"))
        records = codec.build_records(payload)
        tenant = self._tenant_of(request, payload)

        def work():
            # Writes hold a tenant admission slot too: a tenant cannot
            # sidestep its budget by hammering the write path.
            with self.gate.admit(tenant, 0):
                return self.executor.append_records(records)

        appended = await self._in_engine(work)
        self.registry.counter("serve.records_appended").inc(appended)
        return await self._send_json(
            writer,
            request,
            200,
            {"appended": appended, "epoch": self.executor.epoch},
        )

    _MATERIALIZE_FIELDS = (
        "kind", "workload", "budget", "method", "min_support",
        "function", "max_path_length", "tenant",
    )

    async def _handle_materialize(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        payload = codec.parse_body(request.body)
        codec.check_fields(payload, self._MATERIALIZE_FIELDS)
        kind = payload.get("kind")
        if kind == "drop":
            tenant = self._tenant_of(request, payload)

            def drop():
                with self.gate.admit(tenant, 0):
                    self.executor.drop_all_views()

            await self._in_engine(drop)
            return await self._send_json(
                writer, request, 200, {"dropped": True, "epoch": self.executor.epoch}
            )
        if kind not in ("graph", "aggregate"):
            raise WireError(
                400, "bad-request", '"kind" must be "graph", "aggregate", or "drop"'
            )
        raw_workload = payload.get("workload")
        if not isinstance(raw_workload, list) or not raw_workload:
            raise WireError(400, "bad-request", '"workload" must be a non-empty array')
        workload = []
        for entry in raw_workload:
            if isinstance(entry, str):
                sub = {"q": entry}
            elif isinstance(entry, list):
                sub = {"elements": entry}
            else:
                raise WireError(
                    400, "bad-request", f"workload entry must be DSL or elements: {entry!r}"
                )
            query = codec.build_query(sub)
            if kind == "aggregate" and not isinstance(query, PathAggregationQuery):
                # As the in-process call takes them: SUM unless told otherwise.
                query = codec.as_aggregation(query, payload.get("function", "sum"))
            workload.append(query)
        budget = payload.get("budget", 1)
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
            raise WireError(400, "bad-request", '"budget" must be a positive integer')
        tenant = self._tenant_of(request, payload)

        def work():
            with self.gate.admit(tenant, 0):
                if kind == "graph":
                    kwargs = {}
                    if "method" in payload:
                        kwargs["method"] = payload["method"]
                    if "min_support" in payload:
                        kwargs["min_support"] = payload["min_support"]
                    return self.executor.materialize_graph_views(
                        workload, budget, **kwargs
                    )
                kwargs = {}
                if "function" in payload:
                    kwargs["function"] = payload["function"]
                if "max_path_length" in payload:
                    kwargs["max_path_length"] = payload["max_path_length"]
                return self.executor.materialize_aggregate_views(
                    workload, budget, **kwargs
                )

        report = await self._in_engine(work)
        doc = dataclasses.asdict(report) if dataclasses.is_dataclass(report) else {}
        doc = {k: v for k, v in doc.items() if isinstance(v, (str, int, float, bool))}
        doc["epoch"] = self.executor.epoch
        return await self._send_json(writer, request, 200, doc)


# -- thread-hosted lifecycle (tests, benchmarks, CLI) -------------------------


class ServerHandle:
    """A running daemon on a background event-loop thread.

    The test client and benchmarks talk to ``handle.address`` over real
    sockets; :meth:`stop` drains and joins.  Context-manager friendly.
    """

    def __init__(self, server: ReproServer, loop: asyncio.AbstractEventLoop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.config.host, self.port)

    def stop(self, drain_s: float | None = None) -> None:
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain_s), self._loop
        )
        future.result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    executor,
    registry: MetricsRegistry | None = None,
    gate: TenantGate | None = None,
    config: ServeConfig | None = None,
    maintainer=None,
) -> ServerHandle:
    """Start a daemon on its own event-loop thread and wait until it
    accepts connections."""
    server = ReproServer(
        executor, registry=registry, gate=gate, config=config, maintainer=maintainer
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            try:
                await server.start()
            except BaseException as exc:  # surface bind errors to the caller
                failure.append(exc)
            finally:
                started.set()

        loop.run_until_complete(boot())
        if not failure:
            loop.run_forever()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    started.wait(timeout=10)
    if failure:
        thread.join(timeout=5)
        loop.close()
        raise failure[0]
    return ServerHandle(server, loop, thread)
