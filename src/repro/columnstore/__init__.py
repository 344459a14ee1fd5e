"""Column-oriented storage substrate (the paper's MonetDB substitute).

Packed bitmaps, NULL-suppressed rank-indexed measure columns, the vertically
partitioned master relation, horizontal record-range sharding behind the
:class:`StorageBackend` seam, I/O cost accounting in the paper's
cost-model units, and ``.npy``-per-column persistence (plain and
per-shard layouts).
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
)
from .sharded import (
    BitmapAttachment,
    ShardedTable,
    is_sharded_dir,
    load_sharded,
    save_sharded,
    storage_generation,
)
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
    "save_sharded",
    "load_sharded",
    "is_sharded_dir",
    "BitmapAttachment",
    "storage_generation",
]
