"""Column-oriented storage substrate (the paper's MonetDB substitute).

Packed bitmaps, NULL-suppressed rank-indexed measure columns, the vertically
partitioned master relation, horizontal record-range sharding behind the
:class:`StorageBackend` seam, I/O cost accounting in the paper's
cost-model units, and ``.npy``-per-column persistence (one layout for
plain and sharded relations, the cuts recorded in its manifest).
"""

from .backend import StorageBackend
from .bitmap import Bitmap, popcount_words
from .column import MeasureColumn
from .iostats import IOStats, IOStatsCollector
from .persistence import (
    RelationBitmapReader,
    load_relation,
    relation_disk_usage,
    save_relation,
    storage_generation,
)
from .sharded import ShardedTable
from .table import MasterRelation, and_refs

__all__ = [
    "Bitmap",
    "MeasureColumn",
    "IOStats",
    "IOStatsCollector",
    "MasterRelation",
    "ShardedTable",
    "StorageBackend",
    "and_refs",
    "popcount_words",
    "save_relation",
    "load_relation",
    "relation_disk_usage",
    "RelationBitmapReader",
    "storage_generation",
]
