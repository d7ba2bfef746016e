"""Cache layer: the shared sub-query cache and its cross-process tier."""

from .cache import CacheStats, LRUCache, SectionStats, SubQueryCache
from .cachetier import (
    CacheBackend,
    SharedCacheTier,
    SharedTierStats,
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
    "resolve_cache_backend",
]
