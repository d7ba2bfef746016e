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

It is the one cache class the engine ever holds: private to a process
on its own, and — given a store, which is all
:class:`~repro.service.cachetier.SharedCacheTier` adds — the in-process
layer in front of a file several processes share.  Binding, epoch
invalidation and promotion exist here once, for both.

Cached values are treated as immutable: value arrays are marked
read-only before insertion, and callers must not mutate what they get
back.  The engine only ever reads them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # cachetier imports this module; the store is duck-typed
    from .cachetier import SqliteCacheStore

__all__ = ["LRUCache", "SectionStats", "CacheStats", "SubQueryCache"]

#: The cache's sections, in reporting order.
SECTIONS = ("ranges", "results", "histograms", "trips")

#: ``(epoch, lineage)`` — the index state entries were computed against.
Stamp = Tuple[int, str]


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

    ``max_entries=None`` disables eviction (unbounded).  ``get`` returns
    ``None`` on a miss, so ``None`` itself must not be stored as a value
    (the service caches never do).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive or None")
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
        """The configured entry bound (``None`` = unbounded).

        Immutable after construction, so readable without the lock —
        e.g. by a forked child whose inherited lock may be held."""
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

    The implementation of :class:`~repro.service.cachetier.CacheBackend`,
    the protocol the engine's staged pipeline consumes.  All sections
    are thread-safe and LRU-bounded, so a long-running service has a
    fixed memory ceiling.

    Parameters
    ----------
    max_ranges, max_results, max_histograms:
        Per-section entry bounds (``None`` = unbounded).  A ranges entry
        is a handful of triples; a result entry holds a travel-time
        array, so ``max_results`` is the knob that dominates memory.  It
        bounds the trips section too: a memoised trip shares the arrays
        its sub-query results already hold, and once served over HTTP
        also keeps its wire text (about the size of those arrays).
    store:
        Optional :class:`~repro.service.cachetier.SqliteCacheStore`
        behind the sections.  Reads check the in-process section first,
        then the store (promoting what it holds); writes go to both.
        Without one, nothing below touches more than the four LRUs.
    """

    def __init__(
        self,
        max_ranges: Optional[int] = 65_536,
        max_results: Optional[int] = 65_536,
        max_histograms: Optional[int] = 65_536,
        *,
        store: Optional["SqliteCacheStore"] = None,
    ) -> None:
        self._sections: Dict[str, LRUCache] = {
            "ranges": LRUCache(max_ranges),
            "results": LRUCache(max_results),
            "histograms": LRUCache(max_histograms),
            "trips": LRUCache(max_results),
        }
        self.store = store
        self._bind_lock = threading.Lock()
        self._bound_to: Optional[Tuple[Any, Any]] = None
        # What the sections (and, with a store, every row read or
        # written) were computed against: the index's epoch number plus,
        # with a store only, its mutation lineage.  Guarded by the bind
        # lock, as is the per-section count of store rows promoted.
        self._stamp: Stamp = (0, "")
        self._store_hits = dict.fromkeys(SECTIONS, 0)

    def _stamp_of(self, index: Any) -> Stamp:
        # In-process the epoch number is enough: no lineage is computed.
        store = self.store
        lineage = "" if store is None else store.lineage(index)
        return (int(getattr(index, "epoch", 0)), lineage)

    def bind_index(self, index: Any, network: Any = None) -> None:
        """Pin the cache to one (index, network) pair; reject any other.

        Cache keys identify the *query*, not the data it was answered
        from: a cache serving two indexes would return another index's
        histograms, and cached fallback results embed the network's
        ``estimateTT`` values, so the network matters too.  Engines call
        this before using the cache; sharing a cache is only legal
        across engines/services over the same index and network objects.
        (A store additionally pins its *file* to the pair's fingerprint.)

        The binding is permanent — ``clear()`` empties the sections but
        does not unbind, because an in-flight trip could repopulate the
        cache with old-index entries after the clear.  To serve other
        data, build a new cache (they are cheap).
        """
        with self._bind_lock:
            if self._bound_to is None:
                if self.store is not None:
                    self.store.bind(index, network)
                self._bound_to = (index, network)
                self._stamp = self._stamp_of(index)
            elif (
                self._bound_to[0] is not index
                or self._bound_to[1] is not network
            ):
                raise ValueError(
                    f"{type(self).__name__} is already bound to a "
                    "different index/network; cached answers would be "
                    "wrong — use one cache per (index, network) pair"
                )

    def spawn_for_worker(self) -> "SubQueryCache":
        """The :class:`~repro.service.cachetier.CacheBackend` fork hook:
        a fresh, unbound cache with this cache's per-section bounds.

        A forked worker must not touch the parent's cache (its locks
        may have been snapshotted held), but its replacement should
        honour the memory ceiling the caller configured here.
        """
        return SubQueryCache(
            max_ranges=self._sections["ranges"].max_entries,
            max_results=self._sections["results"].max_entries,
            max_histograms=self._sections["histograms"].max_entries,
        )

    def sync_epoch(self, index: Any) -> None:
        """Drop entries cached against an earlier state of ``index``.

        Appendable readers (the sharded index) bump their ``epoch`` on
        every mutation.  The engine calls this at the start of each trip;
        on a change every section is cleared, because appended
        trajectories can extend any cached ISA range, retrieval result,
        histogram or trip.  The clear happens *before* the new stamp is
        published, all under the bind lock, so a concurrent trip cannot
        observe the new epoch while stale entries are still readable.
        Appends must still be quiesced against in-flight trips — a trip
        racing the append could re-insert pre-append entries after the
        clear (the same contract as mutating the index under concurrent
        readers at all).

        With a store, every store read and write carries the stamp, so
        rows written before an append are never served after it in *any*
        process; the call also collects the rows this handle's history
        superseded, and the every-trip no-change case is its TTL hook.
        """
        stamp = self._stamp_of(index)
        with self._bind_lock:
            if stamp == self._stamp:
                if self.store is not None:
                    self.store.expire()
                return
            self._empty_sections()
            if self.store is not None:
                self.store.supersede(self._stamp, stamp)
            self._stamp = stamp

    # -- the one probe path and the one write path ---------------------- #

    def _get(self, section: str, key: Hashable) -> Any:
        # A section hit is one LRU lookup and takes no lock but the
        # section's own — in particular none shared with SQLite I/O.
        value = self._sections[section].get(key)
        if value is None and self.store is not None:
            return self._fetch(section, (key,)).get(key)
        return value

    def _fetch(
        self, section: str, keys: Sequence[Hashable]
    ) -> Dict[Hashable, Any]:
        """Store fall-through for section misses: one read, promoted."""
        assert self.store is not None
        stamp = self._stamp
        rows = self.store.get_many(section, keys, stamp)
        if not rows:
            return rows
        # Promote under the bind lock, re-checking the stamp: a
        # concurrent sync_epoch may have emptied the sections *after*
        # the store read matched the old stamp — inserting then would
        # resurrect a pre-append entry at the new epoch.  On a lost race
        # the rows are a miss and the caller recomputes.
        with self._bind_lock:
            if self._stamp != stamp:
                return {}
            put = self._sections[section].put
            for key, value in rows.items():
                put(key, value)
            self._store_hits[section] += len(rows)
        return rows

    def _put(
        self, section: str, items: Sequence[Tuple[Hashable, Any]]
    ) -> None:
        put = self._sections[section].put
        for key, value in items:
            put(key, value)
        if self.store is not None:
            self.store.put_many(section, items, self._stamp)

    # -- ranges ( path -> [(w, st, ed), ...] ) ------------------------- #

    def get_ranges(
        self, path: Tuple[int, ...]
    ) -> Optional[List[Tuple[int, int, int]]]:
        return self._get("ranges", path)

    def put_ranges(
        self, path: Tuple[int, ...], ranges: List[Tuple[int, int, int]]
    ) -> None:
        self._put("ranges", ((path, ranges),))

    # -- retrieval results --------------------------------------------- #

    def get_result(self, key: Hashable) -> Any:
        return self._get("results", key)

    def put_result(self, key: Hashable, result: Any) -> None:
        result.values.setflags(write=False)
        self._put("results", ((key, result),))

    def get_results_many(
        self, keys: Sequence[Hashable]
    ) -> Dict[Hashable, Any]:
        """Bulk :meth:`get_result`: the found subset of ``keys``.

        Used by the deduplicating batch executor so one probe serves
        every demand of a round: a loop over the LRU, then — with a
        store — a single store read for everything the loop missed.
        """
        lookup = self._sections["results"].get
        found: Dict[Hashable, Any] = {}
        missing: List[Hashable] = []
        for key in keys:
            value = lookup(key)
            if value is None:
                missing.append(key)
            else:
                found[key] = value
        if missing and self.store is not None:
            found.update(self._fetch("results", missing))
        return found

    def put_results_many(
        self, items: Sequence[Tuple[Hashable, Any]]
    ) -> None:
        """Bulk counterpart of :meth:`put_result` (one store write)."""
        for _, result in items:
            result.values.setflags(write=False)
        self._put("results", items)

    # -- histograms ----------------------------------------------------- #

    def get_histogram(self, key: Hashable) -> Any:
        return self._get("histograms", key)

    def put_histogram(self, key: Hashable, histogram: Any) -> None:
        self._put("histograms", ((key, histogram),))

    # -- whole-trip answers --------------------------------------------- #

    def get_trip(self, key: Hashable) -> Any:
        return self._get("trips", key)

    def put_trip(self, key: Hashable, result: Any) -> None:
        self._put("trips", ((key, result),))

    # -- bookkeeping ----------------------------------------------------- #

    def _empty_sections(self) -> None:
        for section in self._sections.values():
            section.clear()

    def clear(self) -> None:
        """Empty all sections and, with a store, this configuration's
        rows in it.  The index/network binding stays: racing an
        in-flight trip could otherwise leave old-index entries in a
        cache that then rebinds elsewhere."""
        self._empty_sections()
        if self.store is not None:
            self.store.clear()

    def close(self) -> None:
        """Release resources: the sections empty; a store closes its
        connection but *keeps its rows* — warming other processes and
        the next session is the point of it."""
        self._empty_sections()
        if self.store is not None:
            self.store.close()

    def stats(self) -> CacheStats:
        """Per-section statistics.  ``hits`` counts section and store
        hits together and a miss is a probe neither answered; ``size``,
        ``max_size`` and ``evictions`` describe the in-process sections
        (the store's side is in ``SharedCacheTier.tier_stats()``)."""
        with self._bind_lock:
            promoted = dict(self._store_hits)
        sections: Dict[str, SectionStats] = {}
        for name, lru in self._sections.items():
            own, n = lru.stats(), promoted[name]
            # Every section miss went on to be a store hit or a miss.
            sections[name] = replace(
                own, hits=own.hits + n, misses=own.misses - n
            )
        return CacheStats(**sections)
