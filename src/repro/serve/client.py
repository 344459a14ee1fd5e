"""A minimal blocking HTTP client for the daemon — tests and benchmarks.

Deliberately not a general HTTP client: it speaks exactly the subset the
server emits (fixed-length JSON responses and chunked NDJSON streams)
over a plain socket, so the differential suite exercises the real wire —
real TCP, real chunk framing — rather than an in-process shortcut.

``ServeClient.query`` / ``aggregate`` return decoded
:class:`~repro.serve.codec.WireGraphResult` /
:class:`~repro.serve.codec.WireAggregationResult` objects whose surface
matches the library results, or raise :class:`ServeHTTPError` carrying
the structured error body.  ``raw`` methods expose status + body for the
protocol tests.
"""

from __future__ import annotations

import json
import socket

from . import codec
from .codec import WireAggregationResult, WireGraphResult, dumps

__all__ = ["ServeClient", "ServeHTTPError", "StreamTruncatedError"]


class ServeHTTPError(Exception):
    """A structured error response (any 4xx/5xx)."""

    def __init__(self, status: int, error: dict):
        self.status = status
        self.error = error or {}
        self.code = self.error.get("code", "unknown")
        self.exit_code = self.error.get("exit_code")
        super().__init__(f"HTTP {status} {self.code}: {self.error.get('message', '')}")


class StreamTruncatedError(ServeHTTPError):
    """A 200 stream that ended with an error line instead of completing."""

    def __init__(self, error: dict, lines: list[str]):
        super().__init__(200, error)
        self.lines = lines


class _Response:
    def __init__(self, status: int, headers: dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> dict:
        return json.loads(self.body)


class ServeClient:
    """One keep-alive connection to a running daemon."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._reader = None  # one buffered reader over _sock

    # -- plumbing -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._reader = self._sock.makefile("rb")
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._reader.close()
                self._sock.close()
            finally:
                self._sock = self._reader = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def send_raw(self, data: bytes) -> None:
        """Ship arbitrary bytes — the fuzz suite's entry point."""
        self._connect().sendall(data)

    def _read_line(self) -> bytes:
        line = self._reader.readline()
        if not line.endswith(b"\r\n"):
            raise ConnectionError("connection closed mid-response")
        return line[:-2]

    def _read_exact(self, n: int) -> bytes:
        data = self._reader.read(n)
        if len(data) < n:
            raise ConnectionError("connection closed mid-body")
        return data

    def read_response(self) -> _Response:
        """Parse one response (fixed-length or chunked) off the socket."""
        self._connect()
        status_line = self._read_line()
        parts = status_line.decode("latin-1").split(" ", 2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = self._read_line()
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body = bytearray()
            while True:
                size = int(self._read_line(), 16)
                if size == 0:
                    self._read_line()  # trailing CRLF after last chunk
                    break
                body += self._read_exact(size)
                self._read_line()  # chunk-terminating CRLF
            payload = bytes(body)
        else:
            payload = self._read_exact(int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            self.close()
        return _Response(status, headers, payload)

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> _Response:
        body = dumps(payload).encode() if payload is not None else b""
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        if body:
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        # One request at a time per connection; reconnect transparently if
        # the server closed the previous keep-alive cycle.
        try:
            self.send_raw(head + body)
            return self.read_response()
        except (ConnectionError, BrokenPipeError):
            self.close()
            self.send_raw(head + body)
            return self.read_response()

    # -- typed surface ------------------------------------------------------

    @staticmethod
    def _lines_of(response: _Response) -> list[str]:
        text = response.body.decode("utf-8")
        return [line for line in text.split("\n") if line]

    @classmethod
    def _check_stream(cls, response: _Response) -> list[str]:
        lines = cls._lines_of(response)
        if response.status != 200:
            raise ServeHTTPError(response.status, response.json().get("error", {}))
        if lines:
            last = json.loads(lines[-1])
            if isinstance(last, dict) and "error" in last:
                raise StreamTruncatedError(last["error"], lines[:-1])
        return lines

    def query(self, payload: dict, **kw) -> WireGraphResult:
        response = self.request("POST", "/query", payload, **kw)
        return codec.decode_graph_payload(self._check_stream(response))

    def aggregate(self, payload: dict, **kw) -> WireAggregationResult:
        response = self.request("POST", "/aggregate", payload, **kw)
        return codec.decode_agg_payload(self._check_stream(response))

    def _json_or_raise(self, response: _Response) -> dict:
        doc = response.json()
        if response.status != 200:
            raise ServeHTTPError(response.status, doc.get("error", {}))
        return doc

    def explain(self, payload: dict, **kw) -> dict:
        return self._json_or_raise(self.request("POST", "/explain", payload, **kw))

    def append(self, records: list[dict], **kw) -> dict:
        return self._json_or_raise(
            self.request("POST", "/append", {"records": records}, **kw)
        )

    def materialize(self, payload: dict, **kw) -> dict:
        return self._json_or_raise(
            self.request("POST", "/materialize", payload, **kw)
        )

    def healthz(self) -> dict:
        return self._json_or_raise(self.request("GET", "/healthz"))

    def views(self) -> dict:
        return self._json_or_raise(self.request("GET", "/views"))

    def metrics(self) -> dict:
        return self._json_or_raise(self.request("GET", "/metrics?format=json"))
