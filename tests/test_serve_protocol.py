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
cases, which wait out the daemon's read timeout, share a second daemon
whose timeout is short; the bridged-admission case brings its own gate.
"""

from __future__ import annotations

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
from repro.serve.server import ServeConfig
from repro.serve.protocol import Limits
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
    executor = QueryExecutor(engine, jobs=2, cache_mb=4, registry=registry)
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
            lambda: registry.gauge("serve.inflight").to_dict()["value"]
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
        assert registry.counter("serve.loop_answers").value == 0
        assert gate.stats()["shared"]["rejected"] == 0
        assert_no_leaks(handle, registry, gate)
        assert registry.counter("serve.loop_answers").value == 1


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
            if f"/{name}" not in (
                "/query", "/aggregate", "/explain", "/append",
                "/materialize", "/metrics", "/healthz",
            ):
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
