"""Typed error hierarchy for the whole stack.

Every failure the library can surface to a caller derives from
:class:`ReproError`, so applications (and the CLI) can catch one base class
instead of fishing ``KeyError``/``ValueError`` out of internals:

* :class:`PersistenceError` — anything wrong with an on-disk relation
  directory;

  * :class:`ManifestError` — the manifest (or another metadata file) is
    missing required fields, has an unsupported format version, or is not
    valid JSON;
  * :class:`CorruptionError` — a data file failed an integrity check:
    wrong size (torn write), CRC32 mismatch (bit rot), unreadable ``.npy``
    payload, or internally inconsistent arrays;

* :class:`IngestError` — a record source (JSONL / CSV / checkpointed bulk
  load) contains data that cannot be ingested under the active error
  policy;
* :class:`QuerySyntaxError` — the query-language parser rejected a query
  string (defined here, re-exported by :mod:`repro.lang`);
* :class:`PathJoinError` — two paths cannot be joined (defined here,
  re-exported by :mod:`repro.core.paths`);
* :class:`ResilienceError` — the serving-resilience layer refused or cut
  short a query, or its fold failed (:mod:`repro.resilience`);

  * :class:`QueryTimeoutError` — the query's deadline expired before it
    finished (raised cooperatively at operator boundaries);
  * :class:`QueryCancelledError` — the query's cancel token fired;
  * :class:`AdmissionRejectedError` — the admission controller refused the
    query (inflight cap or rate exhausted within the bounded wait);
    carries ``retry_after`` as a backoff hint;
  * :class:`ShardExecutionError` — a query's conjunction fold failed
    (carries ``shard`` and the ``start``/``stop`` record range it would
    have answered for: ``0`` and ``[0, n)``, since a query folds every
    record in one call).

``IngestError``, ``QuerySyntaxError`` and ``PathJoinError`` also subclass
``ValueError`` so existing ``except ValueError`` callers keep working.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PersistenceError",
    "ManifestError",
    "CorruptionError",
    "IngestError",
    "QuerySyntaxError",
    "PathJoinError",
    "ResilienceError",
    "QueryTimeoutError",
    "QueryCancelledError",
    "AdmissionRejectedError",
    "ShardExecutionError",
    "EXIT_ERROR",
    "EXIT_TIMEOUT",
    "EXIT_ADMISSION",
    "EXIT_SHARD",
    "exit_code_for",
]

# Exit codes: 0 ok, 2 usage/data error (argparse convention), then one code
# per resilience failure class so scripts can branch without parsing stderr.
# Shared by the CLI and the HTTP daemon (error bodies carry ``exit_code``),
# so the two surfaces stay in lockstep.
EXIT_ERROR = 2
EXIT_TIMEOUT = 3
EXIT_ADMISSION = 4
EXIT_SHARD = 5


def exit_code_for(exc: Exception) -> int:
    """The process exit code for a failure, per the table above.

    Cancellation shares the timeout code: both mean "the deadline/caller
    cut this query short", and clients retry them identically.
    """
    if isinstance(exc, (QueryTimeoutError, QueryCancelledError)):
        return EXIT_TIMEOUT
    if isinstance(exc, AdmissionRejectedError):
        return EXIT_ADMISSION
    if isinstance(exc, ShardExecutionError):
        return EXIT_SHARD
    return EXIT_ERROR


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class PersistenceError(ReproError):
    """A persisted relation directory cannot be written or read."""


class ManifestError(PersistenceError):
    """A manifest / metadata file is missing, malformed, or unsupported."""


class CorruptionError(PersistenceError):
    """A data file failed an integrity check (size, CRC32, or contents)."""


class IngestError(ReproError, ValueError):
    """A record source contains data that cannot be ingested."""


class QuerySyntaxError(ReproError, ValueError):
    """A query string could not be parsed (or lowered to a query object).

    Raised by the :mod:`repro.lang` front-end.  ``position`` is the
    0-based character offset of the offending token in the source text
    (None when the error has no single location); ``source`` is the text
    being parsed, kept so renderers can point a caret at the offset; and
    ``line`` is an optional 1-based workload-file line number attached by
    batch consumers.  :func:`repro.lang.render_syntax_error` turns all of
    that into the caret-annotated message the CLI prints.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        source: str | None = None,
        line: int | None = None,
    ):
        super().__init__(message)
        self.position = position
        self.source = source
        self.line = line


class PathJoinError(ReproError, ValueError):
    """Two paths cannot be path-joined (no shared endpoint)."""


class ResilienceError(ReproError):
    """The serving-resilience layer refused or cut short a query
    (deadline, cancellation, admission), or its fold failed."""


class QueryTimeoutError(ResilienceError):
    """The query's deadline expired before it finished.

    Raised cooperatively: operators check the deadline at every
    conjunction-fold step and measure gather, so a query with a deadline
    of D seconds stops within one operator step past D.
    """

    def __init__(self, message: str = "query deadline exceeded", budget: float | None = None):
        super().__init__(message)
        #: The deadline's original time budget in seconds, when known.
        self.budget = budget


class QueryCancelledError(ResilienceError):
    """The query's cancel token fired before it finished."""


class AdmissionRejectedError(ResilienceError):
    """The admission controller refused the query.

    The inflight-query cap or the token bucket stayed exhausted for
    the whole bounded wait.  ``retry_after`` (seconds, possibly 0.0) is the
    controller's backoff hint (the daemon sends it as ``Retry-After``).
    """

    def __init__(self, message: str = "admission rejected", retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class ShardExecutionError(ResilienceError):
    """A query's conjunction fold failed.

    ``shard``/``start``/``stop`` name the record range the fold would
    have answered for: range 0, records ``[0, n)``, since a query folds
    every record in one call.
    """

    def __init__(
        self,
        message: str,
        shard: int = -1,
        start: int = 0,
        stop: int = 0,
    ):
        super().__init__(message)
        self.shard = shard
        self.start = start
        self.stop = stop

