"""The adapted SNT-index: FM-index partitions + extended temporal forest."""

from .compaction import CompactionReport, compact_index_dir
from .index import BuildStats, SNTIndex
from .partition import IndexPartition, build_partition
from .persistence import FORMAT_VERSION, load_index, read_meta, save_index
from .procedures import TravelTimeResult, count_matches, get_travel_times
from .reader import EdgeStats, IndexReader
from .sharded import (
    SHARDED_FORMAT_VERSION,
    ShardedSNTIndex,
    ShardStats,
    load_any_index,
    load_sharded_index,
    read_any_meta,
    read_sharded_meta,
    save_sharded_index,
)

__all__ = [
    "SNTIndex",
    "BuildStats",
    "IndexPartition",
    "build_partition",
    "FORMAT_VERSION",
    "save_index",
    "load_index",
    "read_meta",
    "TravelTimeResult",
    "get_travel_times",
    "count_matches",
    "IndexReader",
    "EdgeStats",
    "ShardedSNTIndex",
    "ShardStats",
    "SHARDED_FORMAT_VERSION",
    "save_sharded_index",
    "load_sharded_index",
    "read_sharded_meta",
    "read_any_meta",
    "load_any_index",
    "CompactionReport",
    "compact_index_dir",
]
