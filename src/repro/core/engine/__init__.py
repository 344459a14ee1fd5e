"""The graph-analytics engine: the paper's full stack behind one facade.

Split into four layers (the facade keeps the original module's public
surface, so ``from repro.core.engine import GraphAnalyticsEngine`` and
previously saved engine directories keep working):

* :mod:`.planner` — query → :class:`PhysicalPlan`, the serializable IR
  shared by execution, EXPLAIN, and tracing;
* :mod:`.operators` — physical operators (bitmap fetch, conjunction
  fold) over one record range of the master relation, and the per-query
  range cut;
* :mod:`.interpreter` — the one read path: executes a plan against a
  per-query environment snapshot, folding the ranges the installed
  :class:`ShardRunner` picks;
* :mod:`.facade` — :class:`GraphAnalyticsEngine` itself: ingest,
  persistence, view materialization, and result assembly over the one
  master relation.
"""

from .facade import (
    GraphAnalyticsEngine,
    GraphQueryResult,
    MaterializationReport,
    PathAggregationResult,
)
from .interpreter import INLINE, ShardRunner
from .operators import ShardTask, range_tasks
from .planner import PhysicalPlan, Planner

__all__ = [
    "GraphAnalyticsEngine",
    "GraphQueryResult",
    "PathAggregationResult",
    "MaterializationReport",
    "PhysicalPlan",
    "Planner",
    "ShardRunner",
    "INLINE",
    "ShardTask",
    "range_tasks",
]
