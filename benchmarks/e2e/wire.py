"""The harness's side of the socket: write request bytes, read to the
last response byte, stop the clock, and only then look at the answer.

Not the program's own ``ServeClient``: that one decodes JSON inside the
call, and the benchmark must not time its own decoding nor depend on the
code it measures.  Only chunk framing is parsed while the clock runs —
there is no other way to know where a chunked body ends.
"""

from __future__ import annotations

import json
import socket
import time

__all__ = ["Connection", "Response", "http_request", "check_read", "check_append"]


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return head.encode("ascii") + b"\r\n" + body


class Response:
    __slots__ = ("status", "body", "ns")

    def __init__(self, status: int, body: bytes, ns: int):
        self.status = status
        self.body = body     # de-chunked payload; empty on a torn stream
        self.ns = ns         # request bytes written -> last body byte read


class Connection:
    """One keep-alive connection."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fill(self) -> None:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("daemon closed the connection mid-response")
        self._buf += data

    def _line(self) -> bytes:
        while True:
            end = self._buf.find(b"\r\n")
            if end >= 0:
                line = bytes(self._buf[:end])
                del self._buf[: end + 2]
                return line
            self._fill()

    def _exact(self, n: int) -> bytes:
        while len(self._buf) < n:
            self._fill()
        data = bytes(self._buf[:n])
        del self._buf[:n]
        return data

    def send(self, raw: bytes) -> Response:
        """One request/response exchange, timed."""
        started = time.perf_counter_ns()
        self.sock.sendall(raw)
        status = int(self._line().split(b" ", 2)[1])
        length = None
        chunked = False
        while True:
            header = self._line()
            if not header:
                break
            name, _, value = header.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"transfer-encoding":
                chunked = value.strip().lower() == b"chunked"
        if chunked:
            parts = []
            while True:
                size = int(self._line(), 16)
                if size == 0:
                    self._line()
                    break
                parts.append(self._exact(size))
                self._exact(2)
            ns = time.perf_counter_ns() - started
            return Response(status, b"".join(parts), ns)
        body = self._exact(length or 0)
        return Response(status, body, time.perf_counter_ns() - started)

    def get_json(self, path: str) -> dict:
        response = self.send(http_request("GET", path))
        if response.status != 200:
            raise ConnectionError(f"GET {path} answered {response.status}")
        return json.loads(response.body)

    def post_json(self, path: str, document: dict) -> dict:
        response = self.send(http_request("POST", path, json.dumps(document).encode()))
        if response.status != 200:
            raise ConnectionError(
                f"POST {path} answered {response.status}: {response.body[:200]!r}"
            )
        return json.loads(response.body)


def check_read(response: Response, last_epoch: int) -> tuple[bool, int]:
    """A streamed answer is good when it is a 200 whose header's ``count``
    equals the row lines that followed (a truncated stream ends in an
    error line and miscounts) and whose epoch did not go backwards.
    Returns ``(ok, epoch)``."""
    if response.status != 200 or not response.body.endswith(b"\n"):
        return False, last_epoch
    head, _, rest = response.body.partition(b"\n")
    try:
        header = json.loads(head)
        count, epoch = header["count"], header["epoch"]
    except (ValueError, KeyError, TypeError):
        return False, last_epoch
    last_line = rest[rest.rfind(b"\n", 0, -1) + 1:]
    if rest.count(b"\n") != count or last_line.startswith(b'{"error"'):
        return False, last_epoch
    return epoch >= last_epoch, max(epoch, last_epoch)


def check_append(response: Response, n_records: int, last_epoch: int) -> tuple[bool, int]:
    if response.status != 200:
        return False, last_epoch
    try:
        answer = json.loads(response.body)
        appended, epoch = answer["appended"], answer["epoch"]
    except (ValueError, KeyError, TypeError):
        return False, last_epoch
    return appended == n_records and epoch > last_epoch, max(epoch, last_epoch)
