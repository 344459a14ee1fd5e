"""Protocol fuzzing: the daemon survives anything a client can send.

Hypothesis drives malformed traffic at a live daemon — truncated bodies,
binary garbage, bad JSON, oversized payloads, unknown routes/methods/
fields, invalid tenant ids — and after *every* case asserts the
invariants that make the daemon safe to leave running:

* the response (when the connection survives long enough to carry one)
  is a structured JSON error with a stable ``code``;
* the daemon never crashes: a fresh request on a fresh connection still
  answers correctly;
* no state leaks: the admission gates' inflight counts and the
  ``serve.inflight`` gauge are back to zero once the case ends.

One daemon serves the whole module — leaked permits from an early case
would poison later ones, which is exactly the point.  The truncated-body
and stalled-head cases, which wait out the daemon's read deadline, share
a second daemon whose deadline is short; the bridged-admission case
brings its own gate.  The read deadline's race with a request's last
byte is driven by hand over a fed ``StreamReader``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GraphAnalyticsEngine, GraphRecord
from repro.exec import QueryExecutor
from repro.obs import MetricsRegistry
from repro.resilience import AdmissionController
from repro.serve import ServeClient, ServeHTTPError, start_in_thread
from repro.serve.server import ReproServer, ServeConfig
from repro.serve.protocol import Limits, ProtocolError, Request, read_request
from repro.serve.tenants import TenantGate, TenantPolicy

FUZZ_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@contextmanager
def serving(gate=None, header_timeout_s=1.0):
    """A daemon over 12 records behind a governed two-stage gate."""
    engine = GraphAnalyticsEngine()
    engine.load_records(
        [
            GraphRecord(f"r{i}", {("a", "b"): float(i), ("b", "c"): 2.0})
            for i in range(12)
        ]
    )
    registry = MetricsRegistry()
    executor = QueryExecutor(engine, cache_mb=4, registry=registry)
    if gate is None:
        gate = TenantGate(
            shared=AdmissionController(max_inflight=8),
            policy=TenantPolicy(max_inflight=4, max_tenants=32),
        )
    config = ServeConfig(
        limits=Limits(max_body_bytes=64 << 10, header_timeout_s=header_timeout_s)
    )
    handle = start_in_thread(executor, registry=registry, gate=gate, config=config)
    try:
        yield handle, registry, gate
    finally:
        handle.stop()
        executor.close()


@pytest.fixture(scope="module")
def daemon():
    with serving() as served:
        yield served


@pytest.fixture(scope="module")
def quick_daemon():
    """A daemon that times a silent request out after 0.1 s, for cases
    that must wait that timeout out."""
    with serving(header_timeout_s=0.1) as served:
        yield served


def _settles_to_zero(read, timeout: float = 2.0) -> float:
    """Poll a counter until it reads 0 (the response hits the client a
    hair before the handler's finally-block bookkeeping runs)."""
    deadline = time.monotonic() + timeout
    value = read()
    while value != 0 and time.monotonic() < deadline:
        time.sleep(0.005)
        value = read()
    return value


def assert_no_leaks(handle, registry, gate):
    """The invariant every fuzz case must restore: nothing inflight, and
    the daemon still answers a well-formed query."""
    assert _settles_to_zero(gate.inflight) == 0, "leaked admission permits"
    assert (
        _settles_to_zero(
            lambda: registry.to_dict()["serve.inflight"]["value"]
        )
        == 0
    ), "leaked serve.inflight gauge"
    with ServeClient(*handle.address) as client:
        result = client.query({"q": "a -> b"})
        assert len(result.record_ids) == 12


def send_and_collect(handle, data: bytes, timeout: float = 5.0) -> bytes:
    """Ship raw bytes, read whatever comes back until the server closes
    or goes quiet."""
    out = bytearray()
    with socket.create_connection(handle.address, timeout=timeout) as sock:
        sock.sendall(data)
        sock.settimeout(timeout)
        try:
            while True:
                part = sock.recv(4096)
                if not part:
                    break
                out += part
        except socket.timeout:
            pass
    return bytes(out)


def parse_error_bodies(raw: bytes) -> list[dict]:
    """Every JSON error object in a raw response byte stream (which may
    hold several back-to-back responses on one keep-alive connection)."""
    text = raw.decode("latin-1")
    decoder = json.JSONDecoder()
    errors = []
    pos = 0
    while True:
        pos = text.find('{"error"', pos)
        if pos < 0:
            return errors
        doc, end = decoder.raw_decode(text, pos)
        errors.append(doc["error"])
        pos = end


class TestMalformedFraming:
    @FUZZ_SETTINGS
    @given(st.binary(min_size=1, max_size=256))
    def test_binary_garbage_yields_structured_error(self, daemon, data):
        handle, registry, gate = daemon
        raw = send_and_collect(handle, data + b"\r\n\r\n")
        if raw:  # server may close without a body on hopeless framing
            assert b"HTTP/1.1 " in raw
            errors = parse_error_bodies(raw)
            if errors:
                assert all("code" in e and "message" in e for e in errors)
        assert_no_leaks(handle, registry, gate)

    @settings(
        max_examples=8,  # each example waits out the server's body timeout
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(min_value=1, max_value=400))
    def test_truncated_body_yields_400(self, quick_daemon, promised):
        """A content-length promising more bytes than arrive: the read
        times out server-side and answers 400/408, never hangs."""
        handle, registry, gate = quick_daemon
        head = (
            f"POST /query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {promised}\r\n\r\n"
        ).encode()
        raw = send_and_collect(handle, head + b"{", timeout=4.0)
        errors = parse_error_bodies(raw)
        assert errors, raw[:200]
        if promised == 1:
            # The lone "{" byte satisfies the promise; the request is
            # complete but its body is not JSON.
            assert errors[0]["code"] == "bad-json"
        else:
            assert errors[0]["code"] in ("bad-request", "timeout")
        assert_no_leaks(handle, registry, gate)

    @pytest.mark.parametrize(
        "head",
        [b"GET /healthz HTTP/1.1\r\n", b"GET /healthz HTTP/1.1\r\nHost: x\r\n"],
        ids=["request-line", "one-header"],
    )
    def test_stalled_head_times_out(self, quick_daemon, head):
        """A head that stops after its request line or a header line is
        refused 408 once the request's one deadline passes, instead of
        holding the connection open."""
        handle, registry, gate = quick_daemon
        began = time.monotonic()
        raw = send_and_collect(handle, head, timeout=2.0)
        assert time.monotonic() - began < 2.0, "the stalled head was never refused"
        assert raw.startswith(b"HTTP/1.1 408 "), raw[:200]
        assert parse_error_bodies(raw)[0]["code"] == "timeout"
        assert_no_leaks(handle, registry, gate)

    def test_oversized_body_rejected_before_buffering(self, daemon):
        handle, registry, gate = daemon
        head = (
            "POST /query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {100 << 20}\r\n\r\n"
        ).encode()
        raw = send_and_collect(handle, head)
        errors = parse_error_bodies(raw)
        assert errors and errors[0]["code"] == "payload-too-large"
        assert_no_leaks(handle, registry, gate)

    def test_oversized_request_line_rejected(self, daemon):
        handle, registry, gate = daemon
        raw = send_and_collect(
            handle, b"GET /" + b"a" * 20000 + b" HTTP/1.1\r\n\r\n"
        )
        errors = parse_error_bodies(raw)
        assert errors and errors[0]["code"] == "line-too-long"
        assert_no_leaks(handle, registry, gate)

    def test_mid_request_disconnect_leaks_nothing(self, daemon):
        handle, registry, gate = daemon
        with socket.create_connection(handle.address, timeout=5) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{")
            # vanish with 49 bytes still owed
        assert_no_leaks(handle, registry, gate)


class SignallingGate(TenantGate):
    """Sets ``waiting`` when a request enters the blocking admit: the
    bridge's bounded wait."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.waiting = threading.Event()

    def admit(self, tenant, nbytes=0):
        self.waiting.set()
        return super().admit(tenant, nbytes)


def test_failed_probe_is_admitted_after_the_bridge_wait():
    """The shared gate's one slot is taken, so the loop's probe fails (its
    tenant slot given back); the read waits on the bridge, is admitted
    once the slot frees, and nothing leaks or counts as a rejection."""
    gate = SignallingGate(
        shared=AdmissionController(max_inflight=1, max_wait_s=5.0),
        policy=TenantPolicy(max_inflight=4),
    )
    with serving(gate=gate) as (handle, registry, gate):
        assert gate.shared.try_admit()
        answers = []

        def read():
            with ServeClient(*handle.address) as client:
                answers.append(client.query({"q": "a -> b"}))

        reader = threading.Thread(target=read)
        reader.start()
        assert gate.waiting.wait(5), "the read never reached the bridge"
        gate.shared.release()
        reader.join(10)
        assert len(answers[0].record_ids) == 12
        assert registry.to_dict()["serve.loop_answers"]["value"] == 0
        assert gate.stats()["shared"]["rejected"] == 0
        assert_no_leaks(handle, registry, gate)
        assert registry.to_dict()["serve.loop_answers"]["value"] == 1


def test_loop_answered_requests_create_no_tasks():
    """The daemon reads and answers a request on the loop without creating
    an asyncio task: 200 loop-answered reads over one keep-alive
    connection create none (a wait_for per read would create 400)."""
    created = []

    def factory(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    with serving() as (handle, registry, gate):
        loop = handle._loop
        loop.call_soon_threadsafe(loop.set_task_factory, factory)
        with ServeClient(*handle.address) as client:
            client.query({"q": "a -> b"})  # opens the connection: its one task
            before = len(created)
            for _ in range(200):
                assert len(client.query({"q": "a -> b"}).record_ids) == 12
        assert registry.to_dict()["serve.loop_answers"]["value"] == 201
        assert len(created) == before, f"{len(created) - before} tasks for 200 requests"


def test_client_reads_a_response_in_few_recv_calls(monkeypatch):
    """``ServeClient`` reads through one buffered reader: a loop-answered
    12-row ``/query`` takes a handful of socket reads, not one per byte
    of its head (about 120)."""
    reads = []
    with serving() as (handle, registry, gate):
        with ServeClient(*handle.address) as client:
            client.query({"q": "a -> b"})  # connect and warm
            for name in ("recv", "recv_into"):
                real = getattr(socket.socket, name)

                def counted(sock, *args, _real=real, _name=name, **kwargs):
                    if sock is client._sock:
                        reads.append(_name)
                    return _real(sock, *args, **kwargs)

                monkeypatch.setattr(socket.socket, name, counted)
            assert len(client.query({"q": "a -> b"}).record_ids) == 12
            monkeypatch.undo()
        assert registry.to_dict()["serve.loop_answers"]["value"] == 2
    assert 0 < len(reads) < 10, f"{len(reads)} socket reads for one response"


READS = {  # bytes fed before the read blocks, bytes that complete it
    "request-line": (b"", b"GET /healthz HTTP/1.1\r\n\r\n"),
    "head": (b"GET /healthz HTTP/1.1\r\n", b"Host: x\r\n\r\n"),
    "body": (b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n", b"{}"),
}


async def _complete_and_expire(before: bytes, rest: bytes, feed_first: bool):
    """Run ``read_request`` over a hand-fed reader until it blocks, then
    in one loop turn deliver the rest of the request and fire its deadline
    (in either order).  Returns what the reading task got after one more
    await of its own, and the deadline's timer."""
    loop = asyncio.get_running_loop()
    timers, call_later = [], loop.call_later

    def capture(delay, callback, *args):
        timers.append((lambda: callback(*args), call_later(3600, callback, *args)))
        return timers[-1][1]

    loop.call_later = capture  # this loop only: asyncio.run makes a new one
    reader = asyncio.StreamReader()
    reader.feed_data(before)

    async def serve():
        try:
            got = await read_request(reader, Limits(header_timeout_s=0.05))
        except ProtocolError as exc:
            got = exc
        await asyncio.sleep(0)  # a cancellation that escaped would land here
        return got

    task = asyncio.ensure_future(serve())
    await asyncio.sleep(0)
    (expire, timer), = timers
    if feed_first:
        reader.feed_data(rest)
        expire()
    else:
        expire()
        reader.feed_data(rest)
    return await task, timer


@pytest.mark.parametrize("feed_first", [True, False], ids=["fed-first", "fired-first"])
@pytest.mark.parametrize("stage", sorted(READS))
def test_timeout_in_the_turn_the_request_completes(stage, feed_first):
    """A deadline that fires in the same loop turn as the last byte of the
    request arrives either lets the request through whole or refuses it
    408; it never cancels the reading task past ``read_request``."""
    got, timer = asyncio.run(_complete_and_expire(*READS[stage], feed_first))
    if isinstance(got, ProtocolError):
        assert (got.status, got.code) == (408, "timeout")
    else:
        assert isinstance(got, Request) and got.body == (b"{}" if stage == "body" else b"")
    assert timer.cancelled()


def test_timeout_leaves_other_cancellations_alone():
    """Only the deadline's own cancel becomes a 408; any other cancel of
    the reading task (a server stop) propagates as CancelledError."""

    async def main():
        reader = asyncio.StreamReader()
        task = asyncio.ensure_future(read_request(reader, Limits(header_timeout_s=60)))
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(main())


class TestMalformedJson:
    @FUZZ_SETTINGS
    @given(
        st.text(max_size=200).filter(
            lambda s: not s.lstrip().startswith("{")
        )
    )
    def test_non_object_bodies(self, daemon, text):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            body = text.encode()
            response = client.request(
                "POST", "/query", None, headers={"Content-Length": "0"}
            )
            assert response.status == 400
            client.close()
            client.send_raw(
                (
                    f"POST /query HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            response = client.read_response()
            assert response.status == 400
            assert response.json()["error"]["code"] in ("bad-json", "bad-query")
        assert_no_leaks(handle, registry, gate)

    @FUZZ_SETTINGS
    @given(
        st.dictionaries(
            st.sampled_from(
                ["q", "elements", "function", "bogus", "timeout", "Timeout_MS"]
            ),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.text(max_size=30),
                st.lists(st.integers(), max_size=3),
            ),
            max_size=4,
        )
    )
    def test_arbitrary_json_objects(self, daemon, payload):
        """Any JSON object either answers 200 (a valid query snuck in) or
        a structured 4xx — never a 500, never a hang."""
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            response = client.request("POST", "/query", payload)
            if response.status != 200:
                assert 400 <= response.status < 500
                error = response.json()["error"]
                assert error["code"] and error["exit_code"] == 2
        assert_no_leaks(handle, registry, gate)

    @FUZZ_SETTINGS
    @given(st.sampled_from(["bogus", "Timeout_MS", "records", "kind", "x"]))
    def test_unknown_fields_named_in_error(self, daemon, field):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            response = client.request("POST", "/query", {"q": "a -> b", field: 1})
            assert response.status == 400
            error = response.json()["error"]
            assert error["code"] == "unknown-field"
            assert field in error["message"]
        assert_no_leaks(handle, registry, gate)


class TestRoutesAndTenants:
    @FUZZ_SETTINGS
    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_unknown_routes_404(self, daemon, name):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            response = client.request("POST", f"/{name}", {"q": "a -> b"})
            # Every route the daemon serves, so that a drawn name such as
            # "views" (GET-only, so 405 to a POST) is never taken for unknown.
            if f"/{name}" not in ReproServer._ROUTES:
                assert response.status == 404
                assert response.json()["error"]["code"] == "not-found"
        assert_no_leaks(handle, registry, gate)

    def test_wrong_method_405_with_allow(self, daemon):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            response = client.request("GET", "/query")
            assert response.status == 405
            assert "POST" in response.headers.get("allow", "")
            response = client.request("POST", "/healthz", {})
            assert response.status == 405
        assert_no_leaks(handle, registry, gate)

    @FUZZ_SETTINGS
    @given(
        st.one_of(
            st.just(""),
            st.just("-leading-dash"),
            st.text(alphabet="/:# \t", min_size=1, max_size=8),
            st.text(min_size=65, max_size=80),
            st.integers(),
            st.booleans(),
        )
    )
    def test_invalid_tenant_ids(self, daemon, tenant):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            response = client.request(
                "POST", "/query", {"q": "a -> b", "tenant": tenant}
            )
            assert response.status == 400
            assert response.json()["error"]["code"] == "bad-tenant"
        assert_no_leaks(handle, registry, gate)

    def test_tenant_header_also_validated(self, daemon):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            response = client.request(
                "POST",
                "/query",
                {"q": "a -> b"},
                headers={"X-Repro-Tenant": "no spaces allowed"},
            )
            assert response.status == 400
            assert response.json()["error"]["code"] == "bad-tenant"
        assert_no_leaks(handle, registry, gate)

    @FUZZ_SETTINGS
    @given(
        st.one_of(
            st.just(-1), st.just(0), st.just(False), st.text(max_size=5),
            st.lists(st.integers(), max_size=2),
        )
    )
    def test_bad_timeouts(self, daemon, value):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            response = client.request(
                "POST", "/query", {"q": "a -> b", "timeout_ms": value}
            )
            assert response.status == 400
            assert response.json()["error"]["code"] == "bad-request"
        assert_no_leaks(handle, registry, gate)


class TestErrorCodeStability:
    """The error surface is API: codes and their exit-code mirrors."""

    def test_syntax_error_code(self, daemon):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            with pytest.raises(ServeHTTPError) as err:
                client.query({"q": "a"})
            assert err.value.status == 400
            assert err.value.code == "bad-query"
            assert err.value.exit_code == 2
        assert_no_leaks(handle, registry, gate)

    def test_timeout_code_mirrors_cli_exit_3(self, daemon):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            with pytest.raises(ServeHTTPError) as err:
                client.query({"q": "a -> b", "timeout_ms": 0.0001})
            assert err.value.status == 504
            assert err.value.code == "timeout"
            assert err.value.exit_code == 3
        assert_no_leaks(handle, registry, gate)

    def test_transfer_encoding_unsupported(self, daemon):
        handle, registry, gate = daemon
        raw = send_and_collect(
            handle,
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        )
        errors = parse_error_bodies(raw)
        assert errors and errors[0]["code"] == "unsupported"
        assert_no_leaks(handle, registry, gate)

    def test_bad_records_code(self, daemon):
        handle, registry, gate = daemon
        with ServeClient(*handle.address) as client:
            response = client.request(
                "POST", "/append", {"records": [{"id": "x"}]}
            )
            assert response.status == 400
            assert response.json()["error"]["code"] == "bad-records"
        assert_no_leaks(handle, registry, gate)
