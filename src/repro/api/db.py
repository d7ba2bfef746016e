"""The :class:`TravelTimeDB` session facade and :func:`open_db`.

One entry point for every workload over one index::

    import repro

    db = repro.open_db("world/index", network="world/network.json")
    result = db.query(repro.TripRequest(path=(1, 2, 3), interval=...))
    for result in db.stream(requests):      # order-preserving, bounded
        ...

A session owns the index reader (monolithic :class:`~repro.SNTIndex` or
sharded :class:`~repro.ShardedSNTIndex`, loaded transparently via
``load_any_index`` when a path is given), the road network, one
:class:`~repro.api.EngineConfig`, and the shared cross-query
:class:`~repro.service.SubQueryCache`.  All three batch surfaces —
:meth:`TravelTimeDB.query`, :meth:`~TravelTimeDB.query_many`, and the
streaming generator :meth:`~TravelTimeDB.stream` — answer bit-identically
to sequential Procedure 6; all three are
:meth:`~repro.core.engine.QueryEngine.run_batch` on the calling thread,
over one request, one batch, or one ``window``-sized chunk at a time.
"""

from __future__ import annotations

from itertools import islice
from os import PathLike
from pathlib import Path
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from ..core.engine import QueryEngine, TripQueryResult
from ..core.exec import DedupStats
from ..errors import ConfigurationError, is_count
from ..network.graph import RoadNetwork
from ..network.io import load_network
from ..service.cache import CacheStats, SubQueryCache
from ..sntindex.reader import IndexReader
from ..sntindex.sharded import load_any_index
from .config import EngineConfig
from .request import TripRequest

__all__ = ["TravelTimeDB", "open_db"]

PathSource = Union[str, PathLike]


class TravelTimeDB:
    """A query session over one travel-time index.

    Build via :func:`open_db` (or directly from an in-memory reader).
    The session is cheap to keep open: the index is immutable, the cache
    is LRU-bounded, and every public method is safe to call from
    multiple threads (the engine is stateless per call and the cache is
    locked) — the serving tier runs its rounds that way.

    Usable as a context manager; closing releases the session's own
    cache (see :meth:`close`).

    ``cache`` selects the cross-query cache: ``"default"`` builds a
    :class:`SubQueryCache` with its default bounds; ``None`` disables
    cross-query caching (every trip uses a per-trip cache); or pass a
    pre-configured :class:`SubQueryCache` to control the bounds or
    share one cache between sessions *over the same index and network*
    — the cache binds permanently to the first (index, network) pair it
    serves and rejects any other.
    """

    def __init__(
        self,
        index: IndexReader,
        network: Optional[RoadNetwork],
        config: Optional[EngineConfig] = None,
        cache: Union[SubQueryCache, None, str] = "default",
    ) -> None:
        if network is None:
            # Fail fast with the typed error surface: partitioners and
            # the estimateTT fallback need the network, and a session
            # without one would only crash (opaquely) on its first query.
            raise ConfigurationError(
                "a TravelTimeDB session requires the road network the "
                "index was built over — pass network=RoadNetwork or a "
                "path to its network.json"
            )
        self._config = config if config is not None else EngineConfig()
        # A cache object the caller passed in may be shared with other
        # sessions over the same index; only a session-built cache is
        # closed on close().
        self._owns_cache = cache == "default"
        if cache == "default":
            cache = SubQueryCache()
        elif isinstance(cache, str):
            raise ConfigurationError(
                "cache must be a SubQueryCache, None, or 'default'; "
                f"got {cache!r}"
            )
        self._engine = QueryEngine(
            index, cast(RoadNetwork, network), self._config, cache=cache
        )
        #: Dedup accounting of the most recent :meth:`query_many` batch
        #: (or whole :meth:`stream`): how many sub-queries it planned
        #: (memoised and duplicate trips' included), how many were
        #: unique, and how many scans the deduplication absorbed.  All
        #: zero before the first batch.
        self.last_dedup_stats = DedupStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def index(self) -> IndexReader:
        return cast(IndexReader, self._engine.index)

    @property
    def network(self) -> Optional[RoadNetwork]:
        return cast(Optional[RoadNetwork], self._engine.network)

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def engine(self) -> QueryEngine:
        """The underlying engine (advanced use; prefer the db methods)."""
        return self._engine

    def cache_stats(self) -> Optional[CacheStats]:
        """Shared-cache statistics, or ``None`` when caching is off."""
        cache = self._engine.cache
        return cache.stats() if cache is not None else None

    def clear_cache(self) -> None:
        if self._engine.cache is not None:
            self._engine.cache.clear()

    def __enter__(self) -> "TravelTimeDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release session resources.

        Closes the session's own cache, which empties it.  A
        caller-provided cache is left untouched — other sessions may
        still be serving warm hits from it.  Use :meth:`clear_cache` to
        empty one explicitly.
        """
        if self._owns_cache and self._engine.cache is not None:
            self._engine.cache.close()

    def __repr__(self) -> str:
        return (
            f"TravelTimeDB(index={type(self.index).__name__}, "
            f"partitioner={self._config.partitioner!r}, "
            f"cache={'off' if self._engine.cache is None else 'memory'!r})"
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, request: TripRequest) -> TripQueryResult:
        """Answer one :class:`TripRequest` through the shared cache.

        With a cache a repeated trip — same request, same config, same
        index epoch — costs one probe of the cache's ``trips`` section:
        nothing is planned, fetched or convolved, and the result (a
        fresh object sharing the memoised histogram and outcomes)
        reports ``n_index_scans == 0`` and every demand of the trip as
        a cache hit.  ``cache=None`` sessions never
        consult the memo.  The same holds for every trip of
        :meth:`query_many` and :meth:`stream`.
        """
        # The engine guards the request type itself, on every surface.
        return cast(TripQueryResult, self._engine.query(request))

    def query_many(
        self, requests: Sequence[TripRequest]
    ) -> List[TripQueryResult]:
        """Answer a batch of independent requests, in submission order.

        The batch is one :meth:`~repro.core.engine.QueryEngine.run_batch`
        on the calling thread: identical requests are answered once and
        identical sub-queries scanned once, bit-identical to a
        :meth:`query` loop (accounting in :attr:`last_dedup_stats`).
        """
        results, _ = self.query_many_with_stats(requests)
        return results

    def query_many_with_stats(
        self, requests: Sequence[TripRequest]
    ) -> Tuple[List[TripQueryResult], DedupStats]:
        """:meth:`query_many`, also returning this batch's dedup stats.

        :attr:`last_dedup_stats` is last-writer-wins, so a caller
        running *concurrent* batches over one session — the HTTP
        serving tier's collection rounds — must take the accounting
        from the return value, where it cannot be clobbered by another
        batch.
        """
        results, stats = self._engine.run_batch(list(requests))
        self.last_dedup_stats = stats
        return results, stats

    def stream(
        self,
        requests: Iterable[TripRequest],
        window: int = 4,
    ) -> Iterator[TripQueryResult]:
        """Answer a request stream, yielding results in request order.

        An order-preserving generator over an *iterable* of requests,
        consumed lazily in chunks of ``window`` requests: each chunk is
        one :meth:`query_many` batch (its identical sub-queries scanned
        once), so a million-request stream is answered with at most
        ``window`` requests and results materialised at a time.

        :attr:`last_dedup_stats` aggregates over the whole stream — the
        chunks are a scheduling detail, and per-chunk numbers would
        misreport a long stream as its final ``window`` requests.
        """
        if not is_count(window):
            raise ConfigurationError(
                f"window must be a positive integer; got {window!r}"
            )
        return self._stream(requests, window)

    def _stream(
        self, requests: Iterable[TripRequest], window: int
    ) -> Iterator[TripQueryResult]:
        total = self.last_dedup_stats = DedupStats()
        iterator = iter(requests)
        while True:
            chunk = list(islice(iterator, window))
            if not chunk:
                return
            results, chunk_stats = self._engine.run_batch(chunk)
            total.absorb(chunk_stats)
            self.last_dedup_stats = total
            yield from results


def open_db(
    path_or_index: Union[PathSource, IndexReader, None] = None,
    network: Union[RoadNetwork, PathSource, None] = None,
    config: Optional[EngineConfig] = None,
    cache: Union[SubQueryCache, None, str] = "default",
) -> TravelTimeDB:
    """Open a travel-time query session — the one public entry point.

    Parameters
    ----------
    path_or_index:
        A saved index directory (monolithic ``meta.json`` layout or
        sharded ``manifest.json`` layout, auto-detected) or an
        in-memory :class:`IndexReader`.  Omitting it is a
        :class:`ConfigurationError`.
    network:
        The road network the index was built over — a
        :class:`RoadNetwork` or a path to its ``network.json``.  When a
        network is given and the index is loaded from disk, the
        manifest's alphabet size is validated *before* any partition
        payload is opened.
    config:
        An :class:`EngineConfig`; ``None`` uses defaults.
    cache:
        As for :class:`TravelTimeDB`: ``"default"`` builds a
        :class:`SubQueryCache` with its default bounds, ``None``
        disables cross-query caching, or pass a :class:`SubQueryCache`
        directly.
    """
    if path_or_index is None:
        raise ConfigurationError(
            "open_db needs an index: pass path_or_index (a saved index "
            "directory or an IndexReader)"
        )
    if network is None:
        # Fail before load_any_index touches disk: opening a large
        # sharded index only to reject the session would waste time.
        raise ConfigurationError(
            "open_db requires the road network the index was built over "
            "— pass network=RoadNetwork or a path to its network.json"
        )
    loaded_network: RoadNetwork
    if isinstance(network, RoadNetwork):
        loaded_network = network
    else:
        loaded_network = cast(RoadNetwork, load_network(Path(network)))

    index: IndexReader
    if isinstance(path_or_index, (str, PathLike)):
        index = cast(
            IndexReader,
            load_any_index(
                path_or_index,
                expected_alphabet_size=getattr(
                    loaded_network, "alphabet_size", None
                ),
            ),
        )
    else:
        index = path_or_index
    return TravelTimeDB(index, loaded_network, config=config, cache=cache)
