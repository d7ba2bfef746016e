"""Cache layer: the in-process sub-query cache."""

from .cache import CacheStats, LRUCache, SectionStats, SubQueryCache

__all__ = [
    "SubQueryCache",
    "LRUCache",
    "CacheStats",
    "SectionStats",
]
