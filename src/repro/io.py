"""Record interchange formats: JSON-lines and CSV triplets.

Real deployments ingest graph records from application logs; two common
encodings are supported:

* **JSONL** — one record per line:
  ``{"id": "r1", "measures": [["A","D",3.0], ["D","D",1.5]], "metadata": {...}}``
  (a two-element self pair ``["D","D",…]`` is node D's own measure);
* **CSV triplets** — the row-store's natural dump, one measure per row:
  ``recid,source,target,value`` with an optional header.

Both directions round-trip exactly (modulo float formatting in CSV).

Ingestion is **fault tolerant**: both readers take an error ``policy`` —

* ``"strict"`` (default) — raise :class:`~repro.errors.IngestError` on the
  first bad line, with the file name and line number in the message;
* ``"skip"`` — silently drop bad lines and keep streaming good records;
* ``"collect"`` — drop bad lines but record each one (location, reason,
  snippet) into a :class:`QuarantineReport`, so a bulk load over a dirty
  log finishes and reports exactly what it left behind.

Measure values must be finite; NaN/inf are rejected as ingest errors
(NaN is the storage layer's NULL marker, so letting one in would silently
corrupt containment semantics).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from .core.record import GraphRecord
from .errors import IngestError

__all__ = [
    "POLICIES",
    "QuarantineEntry",
    "QuarantineReport",
    "write_jsonl",
    "read_jsonl",
    "write_csv_triplets",
    "read_csv_triplets",
]

POLICIES = ("strict", "skip", "collect")


@dataclass(frozen=True)
class QuarantineEntry:
    """One rejected input line: where it was, why, and what it looked like."""

    source: str
    line_no: int
    reason: str
    snippet: str

    def __str__(self) -> str:
        return f"{self.source}:{self.line_no}: {self.reason}"


@dataclass
class QuarantineReport:
    """Accumulates the lines an ingest run rejected under ``collect``."""

    entries: list[QuarantineEntry] = field(default_factory=list)

    def add(self, source: str, line_no: int, reason: str, snippet: str = "") -> None:
        self.entries.append(QuarantineEntry(source, line_no, reason, snippet[:200]))

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[QuarantineEntry]:
        return iter(self.entries)

    def summary(self) -> str:
        if not self.entries:
            return "no lines quarantined"
        lines = [f"{len(self.entries)} line(s) quarantined:"]
        lines.extend(f"  {entry}" for entry in self.entries)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "source": e.source,
                    "line": e.line_no,
                    "reason": e.reason,
                    "snippet": e.snippet,
                }
                for e in self.entries
            ],
            indent=2,
        )


class _ErrorPolicy:
    """Shared strict/skip/collect dispatch for the streaming readers."""

    def __init__(self, policy: str, report: QuarantineReport | None, source: str):
        if policy not in POLICIES:
            raise ValueError(f"unknown error policy {policy!r}; choose from {POLICIES}")
        self.policy = policy
        self.source = source
        self.report = report if report is not None else QuarantineReport()

    def reject(self, line_no: int, reason: str, snippet: str = "") -> None:
        """Handle one bad line: raise under strict, else quarantine/skip."""
        if self.policy == "strict":
            raise IngestError(f"{self.source}:{line_no}: {reason}")
        if self.policy == "collect":
            self.report.add(self.source, line_no, reason, snippet)


def _checked_value(raw: object) -> float:
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise IngestError(f"measure value is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise IngestError(f"measure value must be finite, got {value!r}")
    return value


def _record_to_dict(record: GraphRecord) -> dict:
    measures = [[u, v, value] for (u, v), value in sorted(
        record.measures().items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1]))
    )]
    out = {"id": record.record_id, "measures": measures}
    if record.metadata:
        out["metadata"] = record.metadata
    return out


def _record_from_dict(payload: object) -> GraphRecord:
    if not isinstance(payload, dict):
        raise IngestError(f"record must be a JSON object, got {type(payload).__name__}")
    try:
        record_id = payload["id"]
        raw = payload["measures"]
    except KeyError as exc:
        raise IngestError(f"record object missing field {exc}") from None
    if not isinstance(raw, list):
        raise IngestError(f"measures must be a list, got {type(raw).__name__}")
    metadata = payload.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise IngestError(f"metadata must be an object, got {type(metadata).__name__}")
    measures = {}
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise IngestError(
                f"measure entry must have 3 elements [u, v, value]: {entry!r}"
            )
        u, v, value = entry
        measures[(u, v)] = _checked_value(value)
    if not measures:
        raise IngestError("record has no measures")
    return GraphRecord(record_id, measures, metadata)


def write_jsonl(records: Iterable[GraphRecord], path: str | FsPath) -> int:
    """Write records as JSON-lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(_record_to_dict(record)) + "\n")
            count += 1
    return count


def read_jsonl(
    path: str | FsPath,
    policy: str = "strict",
    report: QuarantineReport | None = None,
) -> Iterator[GraphRecord]:
    """Stream records from a JSON-lines file.

    ``policy`` selects the error behavior (see the module docstring); with
    ``"collect"``, pass a :class:`QuarantineReport` to receive one entry
    per rejected line.
    """
    handler = _ErrorPolicy(policy, report, str(path))
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                handler.reject(line_no, f"invalid JSON: {exc}", line)
                continue
            try:
                yield _record_from_dict(payload)
            except IngestError as exc:
                handler.reject(line_no, str(exc), line)


def write_csv_triplets(
    records: Iterable[GraphRecord], path: str | FsPath, header: bool = True
) -> int:
    """Write records as (recid, source, target, value) rows."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(["recid", "source", "target", "value"])
        for record in records:
            for (u, v), value in sorted(
                record.measures().items(),
                key=lambda kv: (repr(kv[0][0]), repr(kv[0][1])),
            ):
                writer.writerow([record.record_id, u, v, value])
            count += 1
    return count


def read_csv_triplets(
    path: str | FsPath,
    policy: str = "strict",
    report: QuarantineReport | None = None,
) -> Iterator[GraphRecord]:
    """Stream records from a triplet CSV.

    Rows for one record must be contiguous (as :func:`write_csv_triplets`
    produces them); an optional ``recid,source,target,value`` header is
    skipped automatically.  ``policy`` selects the per-row error behavior;
    a record whose rows were all rejected is dropped entirely.
    """
    handler = _ErrorPolicy(policy, report, str(path))
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        current_id = None
        measures: dict = {}

        def _flush() -> GraphRecord | None:
            nonlocal measures
            done, measures = (current_id, measures), {}
            if done[0] is not None and done[1]:
                return GraphRecord(done[0], done[1])
            return None

        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if row_no == 1 and row[:4] == ["recid", "source", "target", "value"]:
                continue
            if len(row) != 4:
                handler.reject(
                    row_no, f"expected 4 columns, got {len(row)}", ",".join(row)
                )
                continue
            recid, u, v, raw_value = row
            try:
                value = _checked_value(raw_value)
            except IngestError as exc:
                handler.reject(row_no, str(exc), ",".join(row))
                continue
            if recid != current_id:
                record = _flush()
                if record is not None:
                    yield record
                current_id = recid
            measures[(u, v)] = value
        record = _flush()
        if record is not None:
            yield record
