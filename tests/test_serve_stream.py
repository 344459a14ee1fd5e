"""The answer path's framing: one response per request, few writes,
bounded buffering.

The daemon gathers an answer's lines and writes them once per 64 KiB
(``server._FLUSH_BYTES``).  What that must not cost: a failure while
encoding still yields exactly one HTTP response (an ordinary error
response while nothing has left, a trailing error line after), a small
answer is a single write, and a client that stops reading stalls the
producer instead of growing the daemon.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import numpy as np
import pytest

from repro.core import GraphAnalyticsEngine, GraphRecord
from repro.core.engine import GraphQueryResult
from repro.exec import QueryExecutor
from repro.obs import MetricsRegistry
from repro.resilience import AdmissionController, QueryContext
from repro.serve import ServeClient, StreamTruncatedError, codec, start_in_thread
from repro.serve.server import _FLUSH_BYTES, ReproServer
from repro.serve.tenants import TenantGate
from tests.test_serve_protocol import (
    _settles_to_zero,
    parse_error_bodies,
    send_and_collect,
)


def executor_with_bad_id(n: int, bad_row: int):
    """``n`` records matching ``a -> b``; the one at ``bad_row`` has an id
    JSON cannot carry, so encoding fails exactly there."""
    engine = GraphAnalyticsEngine()
    engine.load_records(
        GraphRecord(b"raw" if i == bad_row else f"r{i:05d}", {("a", "b"): float(i)})
        for i in range(n)
    )
    return QueryExecutor(engine, jobs=1, cache_mb=0, registry=MetricsRegistry())


def post_query(handle, document: dict) -> bytes:
    """Every byte the daemon sends back for one ``POST /query``."""
    body = json.dumps(document).encode()
    head = (
        f"POST /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return send_and_collect(handle, head.encode() + body)


class TestOneResponsePerRequest:
    def test_encoding_failure_before_any_byte_is_an_ordinary_error(self):
        """200 rows are far below the flush threshold: when row 70 cannot
        be encoded nothing has been written, so the client gets one plain
        500 — not a 500 spliced into a chunked 200."""
        executor = executor_with_bad_id(200, 70)
        with start_in_thread(executor) as handle:
            raw = post_query(handle, {"q": "a -> b"})
            assert raw.count(b"HTTP/1.1 ") == 1
            assert raw.startswith(b"HTTP/1.1 500 ")
            (error,) = parse_error_bodies(raw)
            assert error["code"] == "internal" and "bytes" in error["message"]
            with ServeClient(*handle.address) as client:
                assert client.healthz()["inflight"] == 0
        executor.close()

    def test_encoding_failure_after_a_flush_ends_the_stream_with_an_error_line(self):
        n, bad_row = 6000, 5900
        executor = executor_with_bad_id(n, bad_row)
        with start_in_thread(executor) as handle:
            raw = post_query(handle, {"q": "a -> b"})
            assert len(raw) > _FLUSH_BYTES, "the answer must span more than one write"
            assert raw.count(b"HTTP/1.1 ") == 1
            assert raw.startswith(b"HTTP/1.1 200 ") and raw.endswith(b"0\r\n\r\n")
            with ServeClient(*handle.address) as client:
                with pytest.raises(StreamTruncatedError) as err:
                    client.query({"q": "a -> b"})
            assert err.value.error["code"] == "internal"
            header = json.loads(err.value.lines[0])
            assert header["count"] == n
            # Whole blocks of good rows, up to the one holding the bad id.
            block = handle.server.config.stream_check_every
            assert len(err.value.lines) - 1 == bad_row // block * block
        executor.close()


class RecordingWriter:
    """Stands in for the StreamWriter: keeps each ``write`` apart."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.drains = 0

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        self.drains += 1


def synthetic_result(n: int) -> GraphQueryResult:
    return GraphQueryResult(
        None, np.arange(n), [f"r{i:07d}" for i in range(n)],
        {("a", "b"): np.arange(n, dtype=np.float64)}, None, 1, None,
    )


def stream(result, check_every: int = 64) -> RecordingWriter:
    server = ReproServer(QueryExecutor(GraphAnalyticsEngine(), registry=MetricsRegistry()))
    writer = RecordingWriter()
    header, blocks = codec.encode_answer(result, check_every)
    ctx = QueryContext.start(timeout=None)
    keep = asyncio.run(server._stream_ndjson(writer, header, blocks, ctx, True))
    assert keep is True
    server.executor.close()
    return writer


class TestWritesPerAnswer:
    def test_answer_under_the_threshold_is_one_write(self):
        writer = stream(synthetic_result(300))
        assert len(writer.writes) == 1 and writer.drains == 1
        (data,) = writer.writes
        assert data.startswith(b"HTTP/1.1 200 OK\r\n")
        assert data.endswith(b"\n\r\n0\r\n\r\n")
        head, body = data.split(b"\r\n\r\n", 1)
        size, rest = body.split(b"\r\n", 1)
        payload = rest[: int(size, 16)]
        assert rest[len(payload):] == b"\r\n0\r\n\r\n"
        assert payload.count(b"\n") == 1 + 300  # header line + rows

    def test_large_answer_is_one_write_and_one_drain_per_threshold(self):
        writer = stream(synthetic_result(20_000))
        total = sum(map(len, writer.writes))
        assert total > 8 * _FLUSH_BYTES
        assert writer.drains == len(writer.writes)
        assert len(writer.writes) <= total // _FLUSH_BYTES + 1
        one_block = 64 * 64  # 64 rows of well under 64 bytes
        assert max(map(len, writer.writes)) < _FLUSH_BYTES + one_block


class BigAnswer:
    """Executor wrapper answering every query with ``n`` synthetic rows."""

    def __init__(self, inner, n: int):
        self._inner = inner
        self._result = synthetic_result(n)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_one(self, query, fetch_measures=True, ctx=None, **kw):
        return self._result


# Polls (2 ms apart) the write buffer must hold still to count as stalled.
_STALL_POLLS = 25


def test_stalled_reader_backpressures_then_disconnect_releases_the_permit():
    """~12 MB to a client that never reads: the daemon blocks in
    ``drain()`` holding at most one flush above the transport's high-water
    mark, and when the client goes away the permit comes back."""
    registry = MetricsRegistry()
    inner = QueryExecutor(GraphAnalyticsEngine(), registry=registry)
    gate = TenantGate(shared=AdmissionController(max_inflight=8))
    handle = start_in_thread(BigAnswer(inner, 300_000), registry=registry, gate=gate)
    try:
        body = b'{"q": "a -> b"}'
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
        sock.settimeout(10)
        sock.connect(handle.address)
        sock.sendall(
            f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        # (polls until the probe reads falsy: until a permit is held)
        assert not _settles_to_zero(lambda: gate.inflight() == 0), "never admitted"
        (state,) = handle.server._conns.values()
        transport = state.writer.transport
        _low, high = transport.get_write_buffer_limits()
        # Decide on the stall itself, not on a clock: poll until the buffer
        # sits above the high-water mark, unchanged for a run of polls...
        held = []
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not (
            len(held) >= _STALL_POLLS
            and held[-1] > high
            and held[-_STALL_POLLS:] == [held[-1]] * _STALL_POLLS
        ):
            held.append(transport.get_write_buffer_size())
            time.sleep(0.002)
        assert max(held) > high, "the stream never stalled: answer too small to test"
        # ...then it must stay put: a blocked producer adds nothing.
        stalled = held[-1]
        for _ in range(_STALL_POLLS):
            time.sleep(0.002)
            held.append(transport.get_write_buffer_size())
        assert held[-_STALL_POLLS:] == [stalled] * _STALL_POLLS, (
            "producer kept going while stalled"
        )
        assert max(held) <= high + _FLUSH_BYTES + 64 * 64
        assert gate.inflight() > 0, "the stalled stream must still hold its permit"
        sock.close()
        assert _settles_to_zero(gate.inflight, timeout=5.0) == 0, "leaked permit"
        assert (
            _settles_to_zero(lambda: registry.gauge("serve.inflight").to_dict()["value"])
            == 0
        ), "leaked serve.inflight gauge"
        with ServeClient(*handle.address) as client:
            assert client.healthz()["status"] == "ok"
    finally:
        handle.stop()
        inner.close()
