"""The paper's primary contribution: graph records and queries over a
columnar master relation, bitmap evaluation, and materialized graph views.
"""

from .aggregates import AggregateFunction, get_function, register_function
from .candidates import (
    apriori_candidates,
    candidate_aggregate_paths,
    closed_candidates,
    filter_superseded,
    interesting_nodes,
    intersection_closure_candidates,
)
from .catalog import EdgeCatalog
from .hierarchy import NodeHierarchy, rollup_record, rollup_records
from .engine import (
    GraphAnalyticsEngine,
    GraphQueryResult,
    MaterializationReport,
    PathAggregationResult,
    PhysicalPlan,
)
from .paths import Path, PathJoinError, enumerate_paths, maximal_paths
from .query import And, AndNot, GraphQuery, Or, PathAggregationQuery, QueryExpr
from .record import Edge, GraphRecord, flatten_walk
from .regions import Region, paths_through_region, queries_through_region
from .rewrite import (
    AggregationPlan,
    GraphQueryPlan,
    PathPlan,
    PathSegment,
    plan_aggregation,
    plan_graph_query,
    tile_path,
)
from .setcover import SelectionResult, greedy_cover_query, greedy_select_views
from .sqlgen import render_aggregation, render_graph_query
from .views import AggregateGraphView, GraphView, graph_view_supersedes

__all__ = [
    "AggregateFunction",
    "get_function",
    "register_function",
    "apriori_candidates",
    "candidate_aggregate_paths",
    "closed_candidates",
    "filter_superseded",
    "interesting_nodes",
    "intersection_closure_candidates",
    "EdgeCatalog",
    "NodeHierarchy",
    "rollup_record",
    "rollup_records",
    "Region",
    "paths_through_region",
    "queries_through_region",
    "GraphAnalyticsEngine",
    "GraphQueryResult",
    "MaterializationReport",
    "PathAggregationResult",
    "PhysicalPlan",
    "Path",
    "PathJoinError",
    "enumerate_paths",
    "maximal_paths",
    "And",
    "AndNot",
    "GraphQuery",
    "Or",
    "PathAggregationQuery",
    "QueryExpr",
    "Edge",
    "GraphRecord",
    "flatten_walk",
    "AggregationPlan",
    "GraphQueryPlan",
    "PathPlan",
    "PathSegment",
    "plan_aggregation",
    "plan_graph_query",
    "tile_path",
    "SelectionResult",
    "greedy_cover_query",
    "greedy_select_views",
    "render_aggregation",
    "render_graph_query",
    "AggregateGraphView",
    "GraphView",
    "graph_view_supersedes",
]
