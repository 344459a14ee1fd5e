"""Concurrent query serving: whole-answer bitmap cache + batch executor.

The serving layer on top of the paper's engine: :class:`BitmapCache`
memoizes each query's structural answer (keyed on its canonical covered
edge-set plus the engine's state epoch), and :class:`QueryExecutor` fans
query batches/streams out over a thread pool, in submission order, with
reader/writer isolation against concurrent appends and view changes.
In process mode the executor also parallelizes a large query's
conjunction across record ranges on worker processes (merges preserve
record order).

Serving governance lives in :mod:`repro.resilience` and plugs in here:
the executor accepts per-query deadlines/cancel tokens, an optional
:class:`~repro.resilience.AdmissionController`, and a
:class:`~repro.resilience.ResiliencePolicy` for the process runner's
range retry, circuit breaking, and ``partial_ok`` degraded execution.
"""

from .cache import BitmapCache, CacheStats
from .executor import EXEC_MODES, QueryExecutor
from .procpool import (
    ProcessShardPool,
    StaleGenerationError,
    WorkerCrashedError,
    WorkerTaskError,
)

__all__ = [
    "BitmapCache",
    "CacheStats",
    "QueryExecutor",
    "EXEC_MODES",
    "ProcessShardPool",
    "WorkerCrashedError",
    "WorkerTaskError",
    "StaleGenerationError",
]
