"""Cache layer: the sub-query cache and the cross-process store behind it."""

from .cache import CacheStats, LRUCache, SectionStats, SubQueryCache
from .cachetier import (
    CacheBackend,
    SharedCacheTier,
    SharedTierStats,
    SqliteCacheStore,
    resolve_cache_backend,
)

__all__ = [
    "SubQueryCache",
    "LRUCache",
    "CacheStats",
    "SectionStats",
    "CacheBackend",
    "SharedCacheTier",
    "SharedTierStats",
    "SqliteCacheStore",
    "resolve_cache_backend",
]
