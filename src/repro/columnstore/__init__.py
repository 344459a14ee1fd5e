"""Column-oriented storage substrate (the paper's MonetDB substitute).

Packed bitmaps, NULL-suppressed rank-indexed measure columns, the vertically
partitioned master relation (folded over any record range, holding no
horizontal cut), I/O cost accounting in the paper's cost-model units, and
``.npy``-per-column persistence.
"""

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
from .table import MasterRelation, and_refs

__all__ = [
    "Bitmap",
    "MeasureColumn",
    "IOStats",
    "IOStatsCollector",
    "MasterRelation",
    "and_refs",
    "popcount_words",
    "save_relation",
    "load_relation",
    "relation_disk_usage",
    "RelationBitmapReader",
    "storage_generation",
]
