"""A minimal HTTP/1.1 layer over asyncio streams.

The daemon speaks plain JSON-on-HTTP so ``curl`` works out of the box,
but the repo bakes in no web framework — this module is the whole wire
protocol: a hand-rolled request parser with hard limits on every
dimension an untrusted peer controls (request-line length, header count
and size, body size), and a chunked-transfer writer used to stream
answer sets as NDJSON without knowing their length up front.

Parsing failures raise :class:`ProtocolError` carrying the HTTP status
and a stable machine-readable ``code``; the server turns them into
structured JSON error responses.  The parser never raises anything else
on malformed input — the protocol fuzz suite holds it to that.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from urllib.parse import unquote

__all__ = [
    "HTTP_REASONS",
    "Limits",
    "ProtocolError",
    "Request",
    "read_request",
    "render_response",
    "ChunkedWriter",
]

HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    499: "Client Closed Request",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_METHODS = ("GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH")


class ProtocolError(Exception):
    """A request the HTTP layer itself must refuse.

    ``status`` is the HTTP status to answer with; ``code`` is the stable
    error code the JSON body carries.  ``fatal`` marks violations after
    which the connection's framing can no longer be trusted (a torn body,
    an oversized line) — the server closes instead of keeping alive.
    """

    def __init__(self, status: int, code: str, message: str, fatal: bool = True):
        super().__init__(message)
        self.status = status
        self.code = code
        self.fatal = fatal


@dataclass
class Limits:
    """Hard ceilings on what one request may ask the parser to hold."""

    max_line_bytes: int = 8192        # request line or one header line
    max_headers: int = 64
    max_body_bytes: int = 8 << 20     # JSON request bodies; not responses
    header_timeout_s: float = 30.0    # idle keep-alive connections reaped


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str                       # raw request target, e.g. /query?x=1
    path: str                         # target without the query string
    params: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)  # lower-cased keys
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    """One CRLF-terminated line, or a ProtocolError when it exceeds
    ``limit`` (readuntil's own limit would raise LimitOverrunError with
    half-consumed state, so bound it explicitly)."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError from None  # clean close between requests
        raise ProtocolError(400, "bad-request", "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(431, "line-too-long", "request line exceeds limit") from None
    if len(line) > limit:
        raise ProtocolError(431, "line-too-long", "request line exceeds limit")
    return line.rstrip(b"\r\n")


def _parse_target(target: str) -> tuple[str, dict[str, str]]:
    path, _, query = target.partition("?")
    params: dict[str, str] = {}
    if query:
        for pair in query.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            params[unquote(key)] = unquote(value)
    return unquote(path), params


async def read_request(
    reader: asyncio.StreamReader, limits: Limits
) -> Request | None:
    """Parse one request from the stream; None on clean EOF.

    Raises :class:`ProtocolError` for anything malformed — never a bare
    UnicodeDecodeError/ValueError — and enforces every :class:`Limits`
    ceiling before buffering the offending bytes.
    """
    try:
        raw = await asyncio.wait_for(
            _read_line(reader, limits.max_line_bytes), limits.header_timeout_s
        )
    except EOFError:
        return None
    except asyncio.TimeoutError:
        raise ProtocolError(408, "timeout", "idle connection timed out") from None
    if not raw:
        # Tolerate a stray blank line between keep-alive requests.
        raw = await _read_line(reader, limits.max_line_bytes)
        if not raw:
            raise ProtocolError(400, "bad-request", "empty request line")
    try:
        line = raw.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError(400, "bad-request", "non-ASCII request line") from None
    parts = line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise ProtocolError(400, "bad-request", f"malformed request line: {line!r}")
    method, target, _version = parts
    if method not in _METHODS:
        raise ProtocolError(400, "bad-request", f"unknown method {method!r}")

    headers: dict[str, str] = {}
    while True:
        line_bytes = await _read_line(reader, limits.max_line_bytes)
        if not line_bytes:
            break
        if len(headers) >= limits.max_headers:
            raise ProtocolError(431, "too-many-headers", "header count exceeds limit")
        try:
            text = line_bytes.decode("latin-1")
        except UnicodeDecodeError:  # latin-1 cannot fail; defensive only
            raise ProtocolError(400, "bad-request", "undecodable header") from None
        name, sep, value = text.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(400, "bad-header", f"malformed header line: {text!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "transfer-encoding" in headers:
        raise ProtocolError(
            501, "unsupported", "chunked request bodies are not supported"
        )
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError(400, "bad-header", "non-numeric content-length") from None
        if length < 0:
            raise ProtocolError(400, "bad-header", "negative content-length")
        if length > limits.max_body_bytes:
            raise ProtocolError(
                413,
                "payload-too-large",
                f"body of {length} bytes exceeds the {limits.max_body_bytes}-byte limit",
            )
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), limits.header_timeout_s
            )
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "bad-request", "truncated request body") from None
        except asyncio.TimeoutError:
            raise ProtocolError(408, "timeout", "request body timed out") from None
    path, params = _parse_target(target)
    return Request(
        method=method,
        target=target,
        path=path,
        params=params,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """A complete fixed-length HTTP/1.1 response as bytes."""
    reason = HTTP_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


class ChunkedWriter:
    """Stream a response body of unknown length via chunked encoding.

    Every :meth:`send` is one chunk, one ``write`` and one ``drain()`` —
    so a slow client back-pressures the producer instead of buffering the
    whole answer.  The status line and headers ride in front of the first
    chunk and the terminal chunk behind the ``last`` one: a body sent in
    one call is one write.  ``started`` says whether any byte has left;
    ``bytes_sent`` counts payload bytes for the metrics layer.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        status: int = 200,
        content_type: str = "application/x-ndjson",
        keep_alive: bool = True,
    ):
        self._writer = writer
        self.bytes_sent = 0
        self.started = False
        self._head = (
            f"HTTP/1.1 {status} {HTTP_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("ascii")

    async def send(self, payload: bytes, last: bool = False) -> None:
        frame = b"%x\r\n%b\r\n" % (len(payload), payload) if payload else b""
        self._writer.write(self._head + frame + (b"0\r\n\r\n" if last else b""))
        self._head = b""
        self.started = True
        await self._writer.drain()
        self.bytes_sent += len(payload)
