"""Structured per-query tracing.

The paper's evaluation argues entirely from *where time goes* — bitmap
ANDs vs joins, view hits vs base-column fallbacks, measure fetches vs the
rest of the query (Figures 3–8).  This module provides the measurement
substrate for those breakdowns: a :class:`Tracer` produces one
:class:`QueryTrace` per executed query, a tree of :class:`Span` objects
covering the rewrite, bitmap-conjunction, measure-materialization, and
aggregation stages, each carrying monotonic timings and counters (bitmaps
ANDed, bytes touched, rows matched, a cache hit or miss per
conjunction).

Tracing is strictly observational: span bodies run the exact same code
with or without a tracer installed, so enabling it can never change a
query answer (asserted by the hypothesis suite in
``tests/test_trace.py``).  Spans nest via a thread-local stack, so the
concurrent executor's worker threads each build their own well-formed
trace trees against one shared tracer.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

__all__ = ["Span", "QueryTrace", "Tracer"]


@dataclass
class Span:
    """One timed stage of a query, with counters and nested children.

    ``counters`` holds numeric tallies (``rows_matched``, ``bytes_touched``
    …); ``meta`` holds identifying strings (the conjunction part's kind and
    token, the view name).  Timings are monotonic nanoseconds from the
    tracer's clock.
    """

    name: str
    start_ns: int
    end_ns: int | None = None
    counters: dict[str, float] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        """Span duration; 0 while the span is still open."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def add(self, counter: str, n: float = 1) -> None:
        """Increment one counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """JSON-ready representation (deterministically key-ordered)."""
        out: dict = {"name": self.name}
        if self.meta:
            out["meta"] = {k: self.meta[k] for k in sorted(self.meta)}
        if self.counters:
            out["counters"] = {k: self.counters[k] for k in sorted(self.counters)}
        out["start_ns"] = self.start_ns
        out["duration_ns"] = self.duration_ns
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def render(self, indent: int = 0, include_timings: bool = True) -> str:
        """Human-readable tree, one line per span."""
        parts = [f"{'  ' * indent}{self.name}"]
        for key in sorted(self.meta):
            parts.append(f"{key}={self.meta[key]}")
        for key in sorted(self.counters):
            value = self.counters[key]
            shown = int(value) if float(value).is_integer() else value
            parts.append(f"{key}={shown}")
        if include_timings:
            parts.append(f"[{self.duration_ns / 1e6:.3f} ms]")
        lines = [" ".join(parts)]
        for child in self.children:
            lines.append(child.render(indent + 1, include_timings))
        return "\n".join(lines)


@dataclass
class QueryTrace:
    """A completed root span plus the query it measured."""

    query: str
    root: Span
    epoch: int | None = None

    def to_dict(self) -> dict:
        return {"query": self.query, "epoch": self.epoch, "root": self.root.to_dict()}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self, include_timings: bool = True) -> str:
        head = f"TRACE {self.query}"
        if self.epoch is not None:
            head += f" (epoch {self.epoch})"
        return head + "\n" + self.root.render(1, include_timings)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Span] = []


class _OpenSpan:
    """:meth:`Tracer.span`'s context manager: entering starts the span on
    this thread's stack, leaving ends it and publishes a root span."""

    __slots__ = ("_tracer", "_name", "_meta", "_span", "_stack")

    def __init__(self, tracer: "Tracer", name: str, meta: dict):
        self._tracer = tracer
        self._name = name
        self._meta = meta

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = self._stack = tracer._state.stack
        span = self._span = Span(name=self._name, start_ns=tracer._clock())
        for key, value in self._meta.items():
            span.meta[key] = str(value)
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return span

    def __exit__(self, *exc_info) -> None:
        stack = self._stack
        stack.pop()
        span = self._span
        span.end_ns = self._tracer._clock()
        if not stack:
            self._tracer._publish(span)


class Tracer:
    """Collects per-query span trees.

    Install on an engine with :meth:`GraphAnalyticsEngine.use_tracer`;
    every subsequent :meth:`query`/:meth:`aggregate` call appends one
    :class:`QueryTrace` to :attr:`traces`.  Span stacks are thread-local
    (each executor worker nests its own spans); the finished-trace list is
    lock-protected so concurrent workers can publish into one tracer.

    ``clock`` is injectable for deterministic tests; it must be monotonic
    and return nanoseconds.
    """

    def __init__(self, clock=time.perf_counter_ns, max_traces: int = 10_000):
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self._clock = clock
        self._max_traces = max_traces
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self.traces: list[QueryTrace] = []

    # -- span construction ----------------------------------------------------

    def span(self, name: str, **meta: str) -> "_OpenSpan":
        """Open a nested span; a root span becomes a :class:`QueryTrace`.

        Root spans may carry ``query=...`` / ``epoch=...`` metadata, which
        is lifted onto the trace.
        """
        return _OpenSpan(self, name, meta)

    def add(self, counter: str, n: float = 1) -> None:
        """Increment a counter on the current (innermost open) span."""
        stack = self._state.stack
        if stack:
            stack[-1].add(counter, n)

    @property
    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._state.stack
        return stack[-1] if stack else None

    def _publish(self, root: Span) -> None:
        epoch_meta = root.meta.get("epoch")
        trace = QueryTrace(
            query=root.meta.get("query", root.name),
            root=root,
            epoch=int(epoch_meta) if epoch_meta is not None else None,
        )
        with self._lock:
            self.traces.append(trace)
            if len(self.traces) > self._max_traces:
                del self.traces[: len(self.traces) - self._max_traces]

    # -- access ---------------------------------------------------------------

    @property
    def last(self) -> QueryTrace | None:
        with self._lock:
            return self.traces[-1] if self.traces else None

    def drain(self) -> list[QueryTrace]:
        """Return all collected traces and clear the buffer."""
        with self._lock:
            out = self.traces
            self.traces = []
        return out

    def clear(self) -> None:
        with self._lock:
            self.traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.traces)
