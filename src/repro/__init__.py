"""repro — graph analytics on massive collections of small graphs.

A production-quality reproduction of Bleco & Kotidis, *Graph Analytics on
Massive Collections of Small Graphs* (EDBT 2014): a columnar storage model
for collections of small, named-node graph records; bitmap-index query
evaluation; and a materialized graph-view framework (selection + rewriting)
that expedites graph and path-aggregation queries.

Quickstart::

    from repro import GraphAnalyticsEngine, GraphRecord, GraphQuery

    engine = GraphAnalyticsEngine()
    engine.load_records([
        GraphRecord("r1", {("A", "D"): 3.0, ("D", "E"): 1.5}),
        GraphRecord("r2", {("A", "D"): 2.0, ("D", "F"): 4.0}),
    ])
    result = engine.query(GraphQuery.from_node_chain("A", "D", "E"))
    assert result.record_ids == ["r1"]
"""

from .core import (
    AggregateGraphView,
    And,
    AndNot,
    EdgeCatalog,
    GraphAnalyticsEngine,
    GraphQuery,
    GraphQueryResult,
    GraphRecord,
    GraphView,
    MaterializationReport,
    Or,
    Path,
    PathAggregationQuery,
    PathAggregationResult,
    PathJoinError,
    get_function,
    register_function,
)
from .columnstore import Bitmap, IOStats, MasterRelation
from .exec import BitmapCache, CacheStats, QueryExecutor
from .adaptive import ViewMaintainer, WorkloadWindow
from .lang import (
    QuerySyntaxError,
    canonical,
    parse_aggregation,
    parse_query,
    parse_statement,
    try_unparse,
    unparse,
)
from .errors import (
    AdmissionRejectedError,
    CorruptionError,
    IngestError,
    ManifestError,
    PersistenceError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ResilienceError,
    ShardExecutionError,
)
from .resilience import AdmissionController, CancelToken, Deadline, QueryContext
from .io import (
    QuarantineEntry,
    QuarantineReport,
    read_csv_triplets,
    read_jsonl,
    write_csv_triplets,
    write_jsonl,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateGraphView",
    "And",
    "AndNot",
    "Bitmap",
    "ViewMaintainer",
    "WorkloadWindow",
    "BitmapCache",
    "CacheStats",
    "QueryExecutor",
    "AdmissionController",
    "AdmissionRejectedError",
    "CancelToken",
    "Deadline",
    "QueryCancelledError",
    "QueryContext",
    "QueryTimeoutError",
    "ResilienceError",
    "ShardExecutionError",
    "CorruptionError",
    "IngestError",
    "ManifestError",
    "PersistenceError",
    "QuarantineEntry",
    "QuarantineReport",
    "QuerySyntaxError",
    "ReproError",
    "canonical",
    "parse_aggregation",
    "parse_query",
    "parse_statement",
    "try_unparse",
    "unparse",
    "read_csv_triplets",
    "read_jsonl",
    "write_csv_triplets",
    "write_jsonl",
    "EdgeCatalog",
    "GraphAnalyticsEngine",
    "GraphQuery",
    "GraphQueryResult",
    "GraphRecord",
    "GraphView",
    "IOStats",
    "MasterRelation",
    "MaterializationReport",
    "Or",
    "Path",
    "PathAggregationQuery",
    "PathAggregationResult",
    "PathJoinError",
    "get_function",
    "register_function",
    "__version__",
]
