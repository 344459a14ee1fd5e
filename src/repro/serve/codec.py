"""JSON wire codec: queries, answers, and errors as stable documents.

The daemon's contract is that a decoded wire answer is *bit-identical*
to the in-process result — the over-the-wire differential suite holds it
to the same RowStore oracle as the library.  Two details make that
exact:

* **Floats** ride through ``repr``-based JSON (Python's ``json`` emits
  the shortest round-tripping decimal for a double), and the three
  non-JSON values are escaped as the strings ``"NaN"`` /
  ``"Infinity"`` / ``"-Infinity"`` — the engine uses NaN for "record
  lacks this measure", so the sentinel must survive the wire.
* **Node labels** keep their Python type: JSON distinguishes ``2093``
  from ``"2093"``, and elements travel as two-item ``[u, v]`` arrays, so
  decoded queries and answers hash and compare equal to the originals.

Streamed answers are NDJSON: one header object (count, epoch, element /
path schema, degraded report), then one row object per matching record —
rendered a block of rows at a time, column by column, never one
``json.dumps`` per row (:func:`encode_answer`).
Errors map the typed hierarchy onto stable machine codes and HTTP
statuses; ``exit_code`` mirrors the CLI so scripted clients can branch
identically on either surface.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from ..core import GraphQuery, GraphRecord, PathAggregationQuery
from ..core.aggregates import FUNCTIONS
from ..core.engine import PathAggregationResult
from ..core.paths import Path
from ..core.query import QueryExpr
from ..lang import parse_statement
from ..errors import (
    AdmissionRejectedError,
    CircuitOpenError,
    IngestError,
    QueryCancelledError,
    QuerySyntaxError,
    QueryTimeoutError,
    ReproError,
    ShardExecutionError,
    exit_code_for,
)
from ..resilience import DegradedReport, SkippedShard

__all__ = [
    "WireError",
    "build_query",
    "build_records",
    "encode_answer",
    "encode_blocks",
    "encode_graph_header",
    "encode_agg_header",
    "iter_graph_rows",
    "iter_agg_rows",
    "decode_graph_payload",
    "decode_agg_payload",
    "error_payload",
    "WireGraphResult",
    "WireAggregationResult",
]


class WireError(ReproError):
    """A request body the handlers must refuse; carries the HTTP status
    and stable error code for the structured response."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


# -- float escaping -----------------------------------------------------------

# The ``repr`` of the three non-JSON doubles, and the strings they travel as.
_NONFINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}
_SPECIALS = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _dec_float(value) -> float:
    if isinstance(value, str):
        return _SPECIALS[value]
    return float(value)


class _RowText(str):
    """One answer row already rendered as JSON; :func:`dumps` passes it on."""

    __slots__ = ()


_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def dumps(obj) -> str:
    """Compact deterministic JSON (no whitespace, keys as given).

    ``allow_nan=False`` is deliberate: any non-finite float must have
    been escaped already; leaking a bare NaN would emit JavaScript-style
    ``NaN`` that strict parsers reject.
    """
    return obj if type(obj) is _RowText else _encode(obj)


# -- queries ------------------------------------------------------------------


def _element(item) -> tuple:
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 2
        or not all(isinstance(n, (str, int)) for n in item)
    ):
        raise WireError(
            400, "bad-query", f"element must be a [u, v] pair of labels: {item!r}"
        )
    return tuple(item)


def build_query(payload: dict) -> QueryExpr | PathAggregationQuery:
    """A servable query object from a request document.

    Two spellings: ``{"q": "<DSL text>"}`` (anything the CLI accepts,
    including boolean combinators and ``SUM A -> B`` aggregations) or the
    structural form ``{"elements": [[u, v], ...]}``, optionally with
    ``"function"`` for a path aggregation.  The structural form keeps
    node-label types exact, which DSL text cannot (it reads every label
    as a string).
    """
    if not isinstance(payload, dict):
        raise WireError(400, "bad-query", "request body must be a JSON object")
    text = payload.get("q")
    if text is not None:
        if not isinstance(text, str):
            raise WireError(400, "bad-query", '"q" must be a DSL string')
        try:
            # repro.lang auto-detects aggregations (a leading bare word
            # naming a registered aggregate function).
            return parse_statement(text)
        except QuerySyntaxError as exc:
            raise WireError(400, "bad-query", str(exc)) from None
    elements = payload.get("elements")
    if elements is None:
        raise WireError(400, "bad-query", 'request needs "q" or "elements"')
    if not isinstance(elements, list) or not elements:
        raise WireError(400, "bad-query", '"elements" must be a non-empty array')
    try:
        query = GraphQuery([_element(e) for e in elements])
    except (TypeError, ValueError) as exc:
        raise WireError(400, "bad-query", str(exc)) from None
    function = payload.get("function")
    return query if function is None else as_aggregation(query, function)


def as_aggregation(query: QueryExpr, function) -> PathAggregationQuery:
    """``query`` aggregated by ``function``, or a 400 when either is not one
    an aggregation can take."""
    if not isinstance(function, str) or function.lower() not in FUNCTIONS:
        raise WireError(
            400, "bad-query", f"unknown aggregate function: {function!r}"
        )
    if not isinstance(query, GraphQuery):
        raise WireError(400, "bad-query", "an aggregation needs one path query")
    return PathAggregationQuery(query, function.lower())


def build_records(payload: dict) -> list[GraphRecord]:
    """Graph records for ``/append``: ``{"records": [{"id": ...,
    "measures": [[u, v, value], ...]}, ...]}``."""
    if not isinstance(payload, dict) or not isinstance(payload.get("records"), list):
        raise WireError(400, "bad-records", 'body needs a "records" array')
    records = []
    for item in payload["records"]:
        if not isinstance(item, dict) or "id" not in item:
            raise WireError(400, "bad-records", f"record needs an id: {item!r}")
        measures = item.get("measures")
        if not isinstance(measures, list) or not measures:
            raise WireError(
                400, "bad-records", f"record {item['id']!r} needs measures"
            )
        cells = {}
        for entry in measures:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise WireError(
                    400, "bad-records", f"measure must be [u, v, value]: {entry!r}"
                )
            u, v, value = entry
            try:
                cells[_element((u, v))] = _dec_float(value)
            except (KeyError, TypeError, ValueError):
                raise WireError(
                    400, "bad-records", f"bad measure value: {entry!r}"
                ) from None
        try:
            records.append(GraphRecord(item["id"], cells))
        except (TypeError, ValueError) as exc:
            raise WireError(400, "bad-records", str(exc)) from None
    if not records:
        raise WireError(400, "bad-records", "no records to append")
    return records


# -- answers ------------------------------------------------------------------


def _encode_degraded(report) -> dict | None:
    if report is None:
        return None
    return {
        "skipped": [
            {"shard": s.shard, "start": s.start, "stop": s.stop, "error": s.error}
            for s in report.skipped
        ],
        "n_records_skipped": report.n_records_skipped,
    }


def _decode_degraded(payload) -> DegradedReport | None:
    if payload is None:
        return None
    return DegradedReport(
        skipped=tuple(
            SkippedShard(
                shard=s["shard"], start=s["start"], stop=s["stop"], error=s["error"]
            )
            for s in payload["skipped"]
        )
    )


def _schema(result) -> tuple[dict, list, str]:
    """``(header, columns, row key)`` of an answer.  The schema order —
    ``elements`` / ``paths``, which every row array follows — is computed
    once, so the header and the rows cannot disagree."""
    if isinstance(result, PathAggregationResult):
        paths = sorted(result.path_values.keys(), key=repr)
        header = {
            "kind": "aggregate",
            "count": len(result),
            "epoch": result.epoch,
            "function": result.query.function,
            "paths": [
                {"nodes": list(p.nodes), "open_start": p.open_start, "open_end": p.open_end}
                for p in paths
            ],
            "degraded": _encode_degraded(result.degraded),
        }
        return header, [result.path_values[p] for p in paths], "v"
    elements = sorted(result.measures.keys(), key=repr)
    header = {
        "kind": "graph",
        "count": len(result),
        "epoch": result.epoch,
        "elements": [list(e) for e in elements],
        "degraded": _encode_degraded(result.degraded),
    }
    return header, [result.measures[e] for e in elements], "m"


def _row_blocks(record_ids, columns, key: str, block_rows: int) -> Iterator[list[str]]:
    """Row objects ``{"id":…,"<key>":[…]}`` as JSON text, ``block_rows`` at
    a time, rendered column-wise.  A finite double is written by its
    ``repr`` (what ``json`` itself emits); the non-finite cells
    are found with one ``np.isfinite`` per column and patched to their
    string escapes.  ``str`` ids go through json's own escaper, ``int``
    ids are their ``repr``, anything else (bools, tuples — which travel as
    arrays) goes through :func:`dumps`."""
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    odd = [~np.isfinite(column) for column in columns]
    odd = [mask if mask.any() else None for mask in odd]  # None: nothing to patch
    row = '{"id":%s,"' + key + '":[' + ",".join(["%s"] * len(columns)) + "]}"
    for lo in range(0, len(record_ids), block_rows):
        hi = lo + block_rows
        cells = [
            [
                _quote(i) if type(i) is str else repr(i) if type(i) is int else dumps(i)
                for i in record_ids[lo:hi]
            ]
        ]
        for column, mask in zip(columns, odd):
            text = list(map(repr, column[lo:hi].tolist()))
            if mask is not None:
                for i in np.flatnonzero(mask[lo:hi]).tolist():
                    text[i] = _NONFINITE[text[i]]
            cells.append(text)
        yield [row % row_cells for row_cells in zip(*cells)]


def encode_blocks(record_ids, columns, key: str, block_rows: int) -> Iterator[bytes]:
    """The row lines of an answer as wire bytes, one block per item."""
    for block in _row_blocks(record_ids, columns, key, block_rows):
        yield ("\n".join(block) + "\n").encode()


def encode_answer(result, block_rows: int) -> tuple[bytes, Iterator[bytes]]:
    """``(header line, row blocks)`` of a graph or aggregation answer."""
    header, columns, key = _schema(result)
    return (
        (dumps(header) + "\n").encode(),
        encode_blocks(result.record_ids, columns, key, block_rows),
    )


def encode_graph_header(result) -> dict:
    """The NDJSON header line, as a document."""
    return _schema(result)[0]


def iter_graph_rows(result) -> Iterator[str]:
    """The rows one at a time, as text :func:`dumps` returns untouched
    (blocks of the daemon's default 64 rows underneath)."""
    _, columns, key = _schema(result)
    blocks = _row_blocks(result.record_ids, columns, key, 64)
    return chain.from_iterable(map(_RowText, block) for block in blocks)


encode_agg_header = encode_graph_header
iter_agg_rows = iter_graph_rows


class WireGraphResult:
    """Decoded graph answer: the same read surface as
    :class:`~repro.core.engine.GraphQueryResult` (record_ids, measures,
    epoch, degraded, len)."""

    def __init__(self, header: dict, rows: list[dict]):
        self.epoch = header["epoch"]
        self.degraded = _decode_degraded(header.get("degraded"))
        self.count = header["count"]
        elements = [tuple(e) for e in header["elements"]]
        self.record_ids = [row["id"] for row in rows]
        self.measures = {
            element: np.array(
                [_dec_float(row["m"][j]) for row in rows], dtype=np.float64
            )
            for j, element in enumerate(elements)
        }

    def __len__(self) -> int:
        return self.count


class WireAggregationResult:
    """Decoded aggregation answer mirroring
    :class:`~repro.core.engine.PathAggregationResult`."""

    def __init__(self, header: dict, rows: list[dict]):
        self.epoch = header["epoch"]
        self.degraded = _decode_degraded(header.get("degraded"))
        self.count = header["count"]
        self.function = header.get("function")
        paths = [
            Path(p["nodes"], open_start=p["open_start"], open_end=p["open_end"])
            for p in header["paths"]
        ]
        self.record_ids = [row["id"] for row in rows]
        self.path_values = {
            path: np.array(
                [_dec_float(row["v"][j]) for row in rows], dtype=np.float64
            )
            for j, path in enumerate(paths)
        }

    def __len__(self) -> int:
        return self.count


def decode_graph_payload(lines: list[str]) -> WireGraphResult:
    header, *rows = [json.loads(line) for line in lines]
    return WireGraphResult(header, rows)


def decode_agg_payload(lines: list[str]) -> WireAggregationResult:
    header, *rows = [json.loads(line) for line in lines]
    return WireAggregationResult(header, rows)


# -- errors -------------------------------------------------------------------

# (HTTP status, stable code) per failure class, most specific first.  The
# codes — like the CLI exit codes they ride alongside — are API surface:
# changing one breaks clients, so additions only.
_ERROR_TABLE: tuple[tuple[type, int, str], ...] = (
    (QueryTimeoutError, 504, "timeout"),
    (QueryCancelledError, 499, "cancelled"),
    (AdmissionRejectedError, 429, "admission-rejected"),
    (CircuitOpenError, 503, "circuit-open"),
    (ShardExecutionError, 502, "shard-failed"),
    (QuerySyntaxError, 400, "bad-query"),
    (IngestError, 400, "bad-records"),
    (ReproError, 500, "internal"),
)


def error_payload(exc: Exception) -> tuple[int, dict]:
    """``(http_status, body)`` for any failure the handlers surface.

    The body is ``{"error": {"code", "message", "exit_code", ...}}``;
    ``exit_code`` mirrors :func:`repro.errors.exit_code_for`, so a script
    driving the HTTP surface and one driving the CLI branch identically.
    """
    if isinstance(exc, WireError):
        status, code = exc.status, exc.code
    else:
        for klass, status, code in _ERROR_TABLE:
            if isinstance(exc, klass):
                break
        else:
            status, code = 500, "internal"
    detail: dict = {
        "code": code,
        "message": str(exc) or type(exc).__name__,
        "exit_code": exit_code_for(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        detail["retry_after"] = retry_after
    if isinstance(exc, ShardExecutionError):
        detail["shard"] = exc.shard
        detail["record_range"] = [exc.start, exc.stop]
    return status, {"error": detail}


def parse_body(body: bytes) -> dict:
    """The request body as a JSON object, or a typed refusal."""
    if not body:
        raise WireError(400, "bad-json", "empty request body")
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WireError(400, "bad-json", f"request body is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise WireError(400, "bad-json", "request body must be a JSON object")
    return payload


def check_fields(payload: dict, allowed: Iterable[str]) -> None:
    """Refuse unknown fields: typos ('timeout' for 'timeout_ms') must fail
    loudly, not silently serve with the default."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise WireError(
            400, "unknown-field", f"unknown field(s): {', '.join(map(repr, unknown))}"
        )
