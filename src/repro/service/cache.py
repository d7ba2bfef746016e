"""The sub-query cache of the batched travel-time service.

A trip query decomposes into sub-queries, and real workloads repeat
sub-paths heavily: commuters share arterials, and a repeated trip repeats
every one of its sub-queries.  The engine's per-trip
:class:`~repro.core.engine.PerTripCache` already shares the FM-index
backward search between the estimator and retrieval of one trip;
:class:`SubQueryCache` shares work *across* trips, in four thread-safe,
LRU-bounded sections:

* **ranges** — ``path -> [(w, st, ed), ...]`` from ``getISARange``
  (Procedure 2).  A pure function of the immutable index, so sharing is
  unconditionally safe.
* **results** — full sub-query retrieval outcomes
  (:class:`repro.sntindex.procedures.TravelTimeResult`), keyed by every
  input that influences Procedure 5: path, interval, user filter, beta,
  and the excluded trajectory ids.
* **histograms** — ``createHistogram`` output per (result key, bucket
  width), so a warm hit skips the bucketing pass as well.
* **trips** — whole :class:`~repro.core.engine.TripQueryResult` answers,
  keyed by everything that shapes one (the request with its estimator
  resolved, plus the planner policy), so a repeated trip costs one probe
  instead of a re-plan, a walk over its cached sub-queries and a
  convolution.

It is the one cross-query cache class: it lives in the memory of the
process that holds the index, like the index itself.

Cached values are treated as immutable: value arrays are marked
read-only before insertion, and callers must not mutate what they get
back.  The engine only ever reads them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, is_count

__all__ = ["LRUCache", "SectionStats", "CacheStats", "SubQueryCache"]

#: The cache's sections, in reporting order.
SECTIONS = ("ranges", "results", "histograms", "trips")


@dataclass(frozen=True)
class SectionStats:
    """Hit/miss counters of one cache section."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_size: Optional[int]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class CacheStats:
    """Aggregated statistics of a :class:`SubQueryCache`."""

    ranges: SectionStats
    results: SectionStats
    histograms: SectionStats
    trips: SectionStats

    def summary(self) -> str:
        parts = []
        for name in SECTIONS:
            section: SectionStats = getattr(self, name)
            parts.append(
                f"{name}: {section.hits} hits / {section.misses} misses "
                f"({section.hit_rate:.0%}), {section.size} entries"
            )
        return "; ".join(parts)


class LRUCache:
    """Thread-safe least-recently-used mapping with hit/miss counters.

    ``max_entries=None`` disables eviction (unbounded); any other bound
    must be an ``int`` of at least 1 (:func:`repro.errors.is_count`), or
    :class:`~repro.errors.ConfigurationError` is raised.  ``get``
    returns ``None`` on a miss, so ``None`` itself must not be stored as
    a value (the service caches never do).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and not is_count(max_entries):
            raise ConfigurationError(
                "max_entries must be a positive integer or None "
                f"(unbounded); got {max_entries!r}"
            )
        self._max = max_entries
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if value is None:
            raise ValueError("LRUCache cannot store None values")
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if self._max is not None:
                while len(self._data) > self._max:
                    self._data.popitem(last=False)
                    self._evictions += 1

    @property
    def max_entries(self) -> Optional[int]:
        """The configured entry bound (``None`` = unbounded); immutable
        after construction, so readable without the lock."""
        return self._max

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> SectionStats:
        with self._lock:
            return SectionStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                max_size=self._max,
            )


class SubQueryCache:
    """Cross-query cache shared by all trips of a session.

    The cache the engine's staged pipeline consumes (a per-trip
    :class:`~repro.core.engine.PerTripCache` answers the scalar subset
    of its methods when a session has none).  All sections are
    thread-safe and LRU-bounded, so a long-running service has a fixed
    memory ceiling.

    Parameters
    ----------
    max_ranges, max_results, max_histograms:
        Per-section entry bounds (``None`` = unbounded).  A ranges entry
        is a handful of triples; a result entry holds a travel-time
        array, so ``max_results`` is the knob that dominates memory.  It
        bounds the trips section too: a memoised trip shares the arrays
        its sub-query results already hold, and once served over HTTP
        also keeps its wire text (about the size of those arrays).
    """

    def __init__(
        self,
        max_ranges: Optional[int] = 65_536,
        max_results: Optional[int] = 65_536,
        max_histograms: Optional[int] = 65_536,
    ) -> None:
        self._sections: Dict[str, LRUCache] = {
            "ranges": LRUCache(max_ranges),
            "results": LRUCache(max_results),
            "histograms": LRUCache(max_histograms),
            "trips": LRUCache(max_results),
        }
        self._bind_lock = threading.Lock()
        self._bound_to: Optional[Tuple[Any, Any]] = None
        # The index epoch the sections were computed against; guarded by
        # the bind lock.
        self._epoch = 0

    def bind_index(self, index: Any, network: Any = None) -> None:
        """Pin the cache to one (index, network) pair; reject any other.

        Cache keys identify the *query*, not the data it was answered
        from: a cache serving two indexes would return another index's
        histograms, and cached fallback results embed the network's
        ``estimateTT`` values, so the network matters too.  Engines call
        this before using the cache; sharing a cache is only legal
        across engines/services over the same index and network objects.

        The binding is permanent — ``clear()`` empties the sections but
        does not unbind, because an in-flight trip could repopulate the
        cache with old-index entries after the clear.  To serve other
        data, build a new cache (they are cheap).
        """
        with self._bind_lock:
            if self._bound_to is None:
                self._bound_to = (index, network)
                self._epoch = int(getattr(index, "epoch", 0))
            elif (
                self._bound_to[0] is not index
                or self._bound_to[1] is not network
            ):
                raise ValueError(
                    f"{type(self).__name__} is already bound to a "
                    "different index/network; cached answers would be "
                    "wrong — use one cache per (index, network) pair"
                )

    def sync_epoch(self, index: Any) -> None:
        """Drop entries cached against an earlier state of ``index``.

        Appendable readers (the sharded index) bump their ``epoch`` on
        every mutation.  The engine calls this at the start of each trip;
        on a change every section is cleared, because appended
        trajectories can extend any cached ISA range, retrieval result,
        histogram or trip.  The clear happens *before* the new epoch is
        published, all under the bind lock, so a concurrent trip cannot
        observe the new epoch while stale entries are still readable.
        Appends must still be quiesced against in-flight trips — a trip
        racing the append could re-insert pre-append entries after the
        clear (the same contract as mutating the index under concurrent
        readers at all).
        """
        epoch = int(getattr(index, "epoch", 0))
        with self._bind_lock:
            if epoch != self._epoch:
                self.clear()
                self._epoch = epoch

    # -- ranges ( path -> [(w, st, ed), ...] ) ------------------------- #

    def get_ranges(
        self, path: Tuple[int, ...]
    ) -> Optional[List[Tuple[int, int, int]]]:
        return self._sections["ranges"].get(path)

    def put_ranges(
        self, path: Tuple[int, ...], ranges: List[Tuple[int, int, int]]
    ) -> None:
        self._sections["ranges"].put(path, ranges)

    # -- retrieval results --------------------------------------------- #

    def get_result(self, key: Hashable) -> Any:
        return self._sections["results"].get(key)

    def put_result(self, key: Hashable, result: Any) -> None:
        result.values.setflags(write=False)
        self._sections["results"].put(key, result)

    def get_results_many(
        self, keys: Sequence[Hashable]
    ) -> Dict[Hashable, Any]:
        """Bulk :meth:`get_result`: the found subset of ``keys``.

        Used by the deduplicating batch executor so one probe serves
        every demand of a round.
        """
        lookup = self._sections["results"].get
        found: Dict[Hashable, Any] = {}
        for key in keys:
            value = lookup(key)
            if value is not None:
                found[key] = value
        return found

    def put_results_many(
        self, items: Sequence[Tuple[Hashable, Any]]
    ) -> None:
        """Bulk counterpart of :meth:`put_result`."""
        put = self._sections["results"].put
        for key, result in items:
            result.values.setflags(write=False)
            put(key, result)

    # -- histograms ----------------------------------------------------- #

    def get_histogram(self, key: Hashable) -> Any:
        return self._sections["histograms"].get(key)

    def put_histogram(self, key: Hashable, histogram: Any) -> None:
        self._sections["histograms"].put(key, histogram)

    # -- whole-trip answers --------------------------------------------- #

    def get_trip(self, key: Hashable) -> Any:
        return self._sections["trips"].get(key)

    def put_trip(self, key: Hashable, result: Any) -> None:
        self._sections["trips"].put(key, result)

    # -- bookkeeping ----------------------------------------------------- #

    def clear(self) -> None:
        """Empty all sections.  The index/network binding stays: racing
        an in-flight trip could otherwise leave old-index entries in a
        cache that then rebinds elsewhere."""
        for section in self._sections.values():
            section.clear()

    def close(self) -> None:
        """Release resources: the sections empty."""
        self.clear()

    def stats(self) -> CacheStats:
        """Per-section statistics."""
        return CacheStats(
            **{name: lru.stats() for name, lru in self._sections.items()}
        )
