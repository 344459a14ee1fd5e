"""The graph-analytics engine: the paper's full stack behind one facade.

Split into three layers (the facade keeps the original module's public
surface, so ``from repro.core.engine import GraphAnalyticsEngine`` and
previously saved engine directories keep working):

* :mod:`.planner` — query → :class:`PhysicalPlan`, the IR shared by
  execution, EXPLAIN (which builds its dict from it on demand), and
  tracing;
* :mod:`.interpreter` — the one read path: executes a plan against a
  per-query environment snapshot, folding every record in one storage
  call, traced or not;
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
from .planner import PhysicalPlan, Planner

__all__ = [
    "GraphAnalyticsEngine",
    "GraphQueryResult",
    "PathAggregationResult",
    "MaterializationReport",
    "PhysicalPlan",
    "Planner",
]
