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
to sequential Procedure 6; they differ only in scheduling.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from itertools import islice
from os import PathLike
from pathlib import Path
from typing import (
    Any,
    Deque,
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
from ..errors import ConfigurationError, RequestValidationError
from ..network.graph import RoadNetwork
from ..network.io import load_network
from ..service.cache import CacheStats
from ..service.cachetier import (
    CacheBackend,
    SharedCacheTier,
    SharedTierStats,
    resolve_cache_backend,
)
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
    locked).

    Usable as a context manager; closing releases the session's own
    cache backend (see :meth:`close`).

    ``cache`` selects the cross-query cache: ``"default"`` resolves the
    backend from ``config`` (the ``config.cache`` spec — in-process
    :class:`SubQueryCache`, cross-process
    :class:`~repro.service.cachetier.SharedCacheTier`, or none);
    ``None`` disables cross-query caching (every trip
    uses a per-trip cache); or pass a pre-configured backend to control
    the bounds or share one cache between sessions *over the same index
    and network* — the cache binds permanently to the first
    (index, network) pair it serves and rejects any other.
    """

    def __init__(
        self,
        index: IndexReader,
        network: Optional[RoadNetwork],
        config: Optional[EngineConfig] = None,
        cache: Union[CacheBackend, None, str] = "default",
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
            cache = resolve_cache_backend(self._config, index)
        elif isinstance(cache, str):
            raise ConfigurationError(
                f"cache must be a cache backend (SubQueryCache / "
                f"SharedCacheTier), None, or 'default'; got {cache!r}"
            )
        self._engine = QueryEngine(
            index, cast(RoadNetwork, network), self._config, cache=cache
        )
        #: Dedup accounting of the most recent batch (or whole stream)
        #: answered through the deduplicating executor: how many
        #: sub-queries it planned (memoised and duplicate trips'
        #: included), how many were unique, and how many scans the
        #: deduplication absorbed.  ``None`` before the first
        #: such batch, or after one that ran without dedup.
        self.last_dedup_stats: Optional[DedupStats] = None

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

    def tier_stats(self) -> Optional[SharedTierStats]:
        """Where the cross-process tier's hits came from (L1 / shared
        store), or ``None`` when the session's cache is not a
        :class:`~repro.service.cachetier.SharedCacheTier`."""
        cache = self._engine.cache
        if isinstance(cache, SharedCacheTier):
            return cache.tier_stats()
        return None

    def clear_cache(self) -> None:
        if self._engine.cache is not None:
            self._engine.cache.clear()

    def __enter__(self) -> "TravelTimeDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release session resources.

        Closes the session's own cache backend: an in-process
        :class:`SubQueryCache` empties, a cross-process
        :class:`~repro.service.cachetier.SharedCacheTier` releases its
        store connection but *keeps its entries* (warming later
        sessions is the point of the tier).  A caller-provided backend
        is left untouched — other sessions may still be serving warm
        hits from it.  Use :meth:`clear_cache` to empty one explicitly.
        """
        if self._owns_cache and self._engine.cache is not None:
            self._engine.cache.close()

    def __repr__(self) -> str:
        return (
            f"TravelTimeDB(index={type(self.index).__name__}, "
            f"partitioner={self._config.partitioner!r}, "
            f"n_workers={self._config.n_workers})"
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, request: TripRequest) -> TripQueryResult:
        """Answer one :class:`TripRequest` through the shared cache.

        With a cache backend a repeated trip — same request, same
        config, same index epoch — costs one probe of the backend's
        ``trips`` section: nothing is planned, fetched or convolved,
        and the result (a fresh object sharing the memoised histogram
        and outcomes) reports ``n_index_scans == 0`` and every demand
        of the trip as a cache hit.  ``cache=None`` sessions never
        consult the memo.  The same holds for every trip of
        :meth:`query_many` and :meth:`stream`.
        """
        # engine.query guards the request type itself.
        return cast(TripQueryResult, self._engine.query(request))

    def query_many(
        self,
        requests: Sequence[TripRequest],
        n_workers: Optional[int] = None,
        use_processes: bool = False,
    ) -> List[TripQueryResult]:
        """Answer a batch of independent requests.

        Results come back in submission order regardless of worker count
        or execution mode.  With ``config.dedup_subqueries`` the batch
        runs through the deduplicating staged executor (identical
        requests answered once, identical sub-queries scanned once;
        accounting in :attr:`last_dedup_stats`).  ``use_processes`` fans out over
        forked worker processes instead (Linux/macOS; see
        :meth:`repro.core.engine.QueryEngine.run_forked` for the
        quiescing contract).
        """
        results, _ = self.query_many_with_stats(
            requests, n_workers=n_workers, use_processes=use_processes
        )
        return results

    def query_many_with_stats(
        self,
        requests: Sequence[TripRequest],
        n_workers: Optional[int] = None,
        use_processes: bool = False,
    ) -> Tuple[List[TripQueryResult], Optional[DedupStats]]:
        """:meth:`query_many`, also returning this batch's dedup stats.

        :attr:`last_dedup_stats` is last-writer-wins, so a caller
        running *concurrent* batches over one session — the HTTP
        serving tier's collection rounds — must take the accounting
        from the return value, where it cannot be clobbered by another
        batch.  ``None`` when the batch did not run through the
        deduplicating executor (``config.dedup_subqueries`` off, or
        process fan-out).
        """
        results, stats = self._run_batch(
            list(requests), self._workers(n_workers), use_processes
        )
        self.last_dedup_stats = stats
        return results, stats

    def stream(
        self,
        requests: Iterable[TripRequest],
        n_workers: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[TripQueryResult]:
        """Answer a request stream, yielding results in request order.

        An order-preserving generator over an *iterable* of requests:
        at most ``window`` requests (default ``4 x n_workers``) are
        in flight at once, so a million-request batch is answered with
        bounded memory — results are yielded as the worker fan-out
        completes them, never materialised as a list, and the input
        iterable is consumed lazily as capacity frees up.

        With ``n_workers=1`` execution stays on the calling thread
        (fully lazy: one request is answered per ``next()``).

        With ``config.dedup_subqueries`` the stream is answered in
        ``window``-sized chunks through the deduplicating batch
        executor: each chunk's sub-queries are collected, identical
        tasks are scanned once, and results still come back in request
        order with at most ``window`` requests materialised.
        """
        workers = self._workers(n_workers)
        if window is None:
            window = workers * 4
        if window < 1:
            raise ConfigurationError("window must be positive")
        if self._config.dedup_subqueries:
            # window=1 degenerates to per-request chunks — no cross-trip
            # dedup to find, but the stats stay coherent per stream.
            return self._stream_dedup(requests, workers, window)
        if workers == 1:
            return (self._engine.query(request) for request in requests)
        return self._fan_out(requests, workers, window)

    def _workers(self, n_workers: Optional[int]) -> int:
        workers = self._config.n_workers if n_workers is None else n_workers
        if workers < 1:
            raise ConfigurationError("n_workers must be positive")
        return workers

    def _run_batch(
        self,
        requests: List[TripRequest],
        workers: int,
        use_processes: bool = False,
    ) -> Tuple[List[TripQueryResult], Optional[DedupStats]]:
        """Pick the executor for one materialised batch and run it.

        The one place the session chooses among the engine's three
        executors; results come back in submission order from all of
        them, with the batch's dedup accounting when the deduplicating
        executor ran.
        """
        for request in requests:
            self._check_request(request)
        workers = min(workers, max(1, len(requests)))
        if use_processes and workers > 1:
            # Fork fan-out ships whole trips to workers; cross-trip dedup
            # would need cross-process demand collection — the shared
            # cache tier already covers that ground.
            return self._engine.run_forked(requests, workers), None
        if self._config.dedup_subqueries:
            return self._engine.run_batch(requests, n_workers=workers)
        # Without dedup every trip is a batch of its own
        # (``engine.query`` is ``run_batch([r])``), so no two trips of
        # the batch ever share a round.
        if workers == 1:
            return [self._engine.query(r) for r in requests], None
        return list(self._fan_out(requests, workers, len(requests))), None

    def _stream_dedup(
        self,
        requests: Iterable[TripRequest],
        workers: int,
        window: int,
    ) -> Iterator[TripQueryResult]:
        """Chunked dedup streaming: one executor batch per window.

        :attr:`last_dedup_stats` aggregates over the whole stream — the
        chunks are a scheduling detail, and per-chunk numbers would
        misreport a long stream as its final ``window`` requests.
        """
        total = DedupStats()
        iterator = iter(requests)
        while True:
            chunk = list(islice(iterator, window))
            if not chunk:
                return
            results, chunk_stats = self._run_batch(chunk, workers)
            if chunk_stats is not None:
                total.absorb(chunk_stats)
                self.last_dedup_stats = total
            yield from results

    def _fan_out(
        self,
        requests: Iterable[TripRequest],
        workers: int,
        window: int,
    ) -> Iterator[TripQueryResult]:
        """Whole trips on a thread pool, at most ``window`` in flight,
        yielded in request order.

        Trip execution touches no engine state and the shared cache is
        locked, so one engine serves every worker (the index is
        immutable during a batch, numpy kernels release the GIL).
        """
        answer = self._engine.query  # guards the request type itself
        iterator = iter(requests)
        pool: Executor = ThreadPoolExecutor(max_workers=workers)
        try:
            pending: Deque["Future[TripQueryResult]"] = deque()
            for request in islice(iterator, window):
                pending.append(pool.submit(answer, request))
            while pending:
                result = pending.popleft().result()
                # Refill before yielding so the pool stays saturated
                # while the consumer processes this result.
                for request in islice(iterator, 1):
                    pending.append(pool.submit(answer, request))
                yield result
        finally:
            # On early generator close, drop unconsumed work quickly.
            pool.shutdown(wait=True, cancel_futures=True)

    def _check_request(self, request: TripRequest) -> None:
        if not isinstance(request, TripRequest):
            # A malformed *request* is client input, not a session
            # misconfiguration — keep the documented error taxonomy
            # (RequestValidationError -> e.g. HTTP 400 at a front end).
            raise RequestValidationError(
                "expected a TripRequest; got "
                f"{type(request).__name__} — legacy StrictPathQuery "
                "callers should use TripRequest.from_spq(...)"
            )


def open_db(
    path_or_index: Union[PathSource, IndexReader, None] = None,
    network: Union[RoadNetwork, PathSource, None] = None,
    config: Optional[EngineConfig] = None,
    cache: Union[CacheBackend, None, str] = "default",
) -> TravelTimeDB:
    """Open a travel-time query session — the one public entry point.

    Parameters
    ----------
    path_or_index:
        A saved index directory (monolithic ``meta.json`` layout or
        sharded ``manifest.json`` layout, auto-detected), a shard-store
        URI (``file:...`` or ``object://...``, see
        :mod:`repro.sntindex.store`), or an in-memory
        :class:`IndexReader`.  ``None`` falls back to
        ``config.store``; omitting both is a
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
        As for :class:`TravelTimeDB`: ``"default"`` resolves the
        backend from ``config`` (its ``cache`` spec can select the
        cross-process shared tier), ``None`` disables cross-query
        caching, or pass a backend (:class:`SubQueryCache` /
        :class:`~repro.service.cachetier.SharedCacheTier`) directly.
    """
    if path_or_index is None:
        # The config can carry the index location (EngineConfig.store)
        # so deployments name it once; an explicit argument wins.
        if config is None or config.store is None:
            raise ConfigurationError(
                "open_db needs an index: pass path_or_index (a "
                "directory, store URI, or IndexReader) or set "
                "EngineConfig.store"
            )
        path_or_index = config.store
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
        # Pass strings through untouched: a store URI such as
        # ``object://...`` must reach as_store() un-mangled (Path()
        # collapses the double slash).
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
