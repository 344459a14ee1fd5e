"""Query serving: whole-answer bitmap cache + executor.

The serving layer on top of the paper's engine: :class:`BitmapCache`
memoizes each query's structural answer (keyed on its canonical covered
edge-set plus the engine's state epoch), and :class:`QueryExecutor`
answers queries and batches, a batch in submission order on the calling
thread, with reader/writer isolation against concurrent appends and view
changes.

Serving governance lives in :mod:`repro.resilience`: the executor
accepts per-query deadlines and cancel tokens; admission is the daemon's
(:mod:`repro.serve.tenants`).
"""

from .cache import BitmapCache, CacheStats
from .executor import QueryExecutor

__all__ = ["BitmapCache", "CacheStats", "QueryExecutor"]
