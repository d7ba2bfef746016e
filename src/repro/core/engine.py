"""The travel-time query engine: ``tripQuery`` (paper Procedure 6).

Pipeline per query (Figure 2), run as an explicit staged pipeline:

1. **plan** (:mod:`repro.core.plan`) — the Query Partitioner splits the
   trip path into sub-queries using a ``pi`` method, the optional
   Cardinality Estimator pre-emptively relaxes doomed sub-queries via
   the Sub-query Splitter (``sigma``), later sub-queries' periodic
   intervals are adapted with shift-and-enlarge (Dai et al.), and a
   sub-query whose whole widen ladder failed is split or stripped of
   its filters (Procedure 1);
2. **fetch** (:mod:`repro.core.exec`) — each planned sub-query is
   answered, widen ladder included, from the cache backend or by one
   SNT-index call (``getTravelTimes`` at its own width, then every wider
   rung counted from one scan of the widest);
3. **combine** — the Histogram Builder turns each travel-time set into a
   histogram and convolves them into the answer for the full path.

The engine itself is a thin driver over those stages, and there is one
driver: :meth:`run_batch` drives any number of trip machines
(:class:`~repro.core.exec.TripMachine`) through the deduplicating
:class:`~repro.core.exec.BatchExecutor`; :meth:`query` is a batch of
one, and :meth:`run_forked` runs :meth:`query` in forked worker
processes.

A trip answer is a pure function of the request, the planner policy and
the index epoch, so with a shared cache backend :meth:`run_batch`
memoises whole trips in its ``trips`` section: a repeated trip is one
probe (:meth:`QueryEngine.trip_key`, :meth:`TripQueryResult.replayed`)
and none of the three stages runs.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

import numpy as np

from ..errors import QueryError, RequestValidationError
from ..forkpool import fork_map
from ..histogram.histogram import Histogram
from ..network.graph import RoadNetwork
from ..sntindex.reader import IndexReader
from .estimator import CardinalityEstimator
from .exec import (
    BatchExecutor,
    DedupStats,
    SubQueryOutcome,
    TripMachine,
    convolve_histograms,
    prefetch_ranges_many,
)
from .plan import PlanPolicy
from .spq import StrictPathQuery

if TYPE_CHECKING:  # the api layer sits above core; runtime imports are lazy
    from ..api.config import EngineConfig
    from ..api.request import TripRequest
    from ..service.cachetier import CacheBackend

__all__ = [
    "SubQueryOutcome",
    "TripQueryResult",
    "QueryEngine",
    "PerTripCache",
]

class PerTripCache:
    """Default sub-query cache: one FM-index backward search per distinct
    sub-path per trip (the estimator, the retrieval and every rung of the
    widen ladder share it), discarded when the trip completes.

    Not a :class:`~repro.service.cachetier.CacheBackend`: it has the four
    scalar probe/store methods a :class:`~repro.core.exec.TripMachine`
    calls (4 of the protocol's 16) and that is all a per-trip object is
    ever asked — retrieval results, the trip memo and the lifecycle
    hooks are only reached on an engine's shared cache (the ``cache is
    not None`` branches of the batch executor and of
    :meth:`QueryEngine.run_batch`).  It caches ranges only: histograms
    are never shared, because within one trip a sub-query is retrieved
    at most once per interval.  Every fetch demand therefore reaches
    the index, and is accounted as one ``n_index_scans``.
    """

    __slots__ = ("_ranges",)

    def __init__(self):
        self._ranges: dict = {}

    def get_ranges(self, path):
        return self._ranges.get(path)

    def put_ranges(self, path, ranges):
        self._ranges[path] = ranges

    def get_histogram(self, key):
        return None

    def put_histogram(self, key, histogram):
        pass


@dataclass
class TripQueryResult:
    """Answer for a full trip path."""

    histogram: Histogram
    outcomes: List[SubQueryOutcome]
    #: Fetch demands the index answered.  A demand is one sub-query
    #: *with its widen ladder*: however many rungs the walk tried, it is
    #: one index call and one count here (split halves and dropped
    #: filters are new demands).
    n_index_scans: int
    #: Sub-queries skipped by the cardinality estimator before any scan.
    n_estimator_skips: int
    #: Wall-clock seconds until this trip's answer was ready.  Under the
    #: deduplicating batch executor this is completion latency relative
    #: to the *batch* start (trips wait on shared rounds), so summing it
    #: across a batch overcounts the batch's actual work.
    elapsed_s: float
    #: Fetch demands a shared cache answered without the index — every
    #: rung the walk needed was cached; always 0 with the default
    #: per-trip cache.  A demand is a scan or a hit, never both, so
    #: ``n_index_scans + n_cache_hits`` is the trip's demand count under
    #: every batch size, cache and reader — also when the cache's trip memo
    #: answered the whole trip in one probe: every demand of the
    #: memoised trip then counts as a hit (:meth:`replayed`), as a warm
    #: sequential pass would have.  Under concurrent fan-out two
    #: threads missing the same key simultaneously may each scan it once
    #: (answers are still identical; work is over-counted, never missed).
    n_cache_hits: int = 0
    #: The :class:`repro.api.TripRequest` this result answers, when the
    #: query entered through the typed API (``None`` on legacy paths).
    request: Optional["TripRequest"] = None
    #: :meth:`to_json`'s encoded histogram + outcomes, beside the objects
    #: it encodes; shared by every :meth:`replayed` copy, so a memoised
    #: trip is encoded once and the text goes when the memo entry does.
    _wire: Dict[str, Any] = field(
        default_factory=dict, compare=False, repr=False
    )

    def replayed(
        self, request: Optional["TripRequest"], elapsed_s: float
    ) -> "TripQueryResult":
        """This answer as a later, identical request receives it from
        the trip memo (or from its in-batch twin).

        A fresh result that shares the immutable histogram and outcomes
        but owns its ``outcomes`` list, ``request`` and ``elapsed_s``,
        accounted as a sequential pass over a warm sub-query cache would
        have been: no index scan, every demand a cache hit, the same
        estimator skips — so ``n_index_scans + n_cache_hits`` is still
        the trip's demand count.
        """
        return TripQueryResult(
            histogram=self.histogram,
            outcomes=list(self.outcomes),
            n_index_scans=0,
            n_estimator_skips=self.n_estimator_skips,
            elapsed_s=elapsed_s,
            n_cache_hits=self.n_index_scans + self.n_cache_hits,
            request=request,
            _wire=self._wire,
        )

    @property
    def estimated_mean(self) -> float:
        """Sum of sub-query means — the paper's point estimate."""
        return float(sum(o.mean for o in self.outcomes))

    # ------------------------------------------------------------------ #
    # Wire form (external cache / HTTP tier contract)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible wire form, inverse of :meth:`from_dict`.

        Carries everything a remote consumer (or an external cache tier)
        needs to reconstruct the answer: the convolved histogram, the
        per-sub-query outcomes (query, raw travel times, histogram), the
        accounting counters, and the originating request's wire form.
        """
        return {**self._answer_dict(), **self._accounting_dict()}

    def _answer_dict(self) -> Dict[str, Any]:
        from ..api.request import _interval_to_dict

        def outcome_payload(outcome: SubQueryOutcome) -> Dict[str, Any]:
            return {
                "path": list(outcome.query.path),
                "interval": _interval_to_dict(outcome.query.interval),
                "user": outcome.query.user,
                "beta": outcome.query.beta,
                "shift_applied": outcome.query.shift_applied,
                "values": np.asarray(
                    outcome.values, dtype=np.float64
                ).tolist(),
                "histogram": outcome.histogram.to_wire(),
                "from_fallback": outcome.from_fallback,
            }

        return {
            "histogram": self.histogram.to_wire(),
            "outcomes": [outcome_payload(o) for o in self.outcomes],
        }

    def _accounting_dict(self) -> Dict[str, Any]:
        return {
            "n_index_scans": self.n_index_scans,
            "n_estimator_skips": self.n_estimator_skips,
            "elapsed_s": self.elapsed_s,
            "n_cache_hits": self.n_cache_hits,
            "request": self.request.to_dict() if self.request else None,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, character for character, with
        the histogram and outcomes encoded once per answer: every
        :meth:`replayed` copy splices the same text and renders only its
        own counters, ``elapsed_s`` and ``request``."""
        answer = (self.histogram, *self.outcomes)
        encoded, text = self._wire.get("answer", ((), ""))
        # Compared by identity: a copy owns its ``outcomes`` list.
        if [id(part) for part in encoded] != [id(part) for part in answer]:
            text = json.dumps(self._answer_dict())[:-1]
            self._wire["answer"] = (answer, text)
        return text + ", " + json.dumps(self._accounting_dict())[1:]

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TripQueryResult":
        """Reconstruct a result from its wire form."""
        from ..api.request import TripRequest, _interval_from_dict

        outcomes = [
            SubQueryOutcome(
                query=StrictPathQuery(
                    path=tuple(o["path"]),
                    interval=_interval_from_dict(o["interval"]),
                    user=o.get("user"),
                    beta=o.get("beta"),
                    shift_applied=bool(o.get("shift_applied", False)),
                ),
                values=np.asarray(o["values"], dtype=np.float64),
                histogram=Histogram.from_wire(o["histogram"]),
                from_fallback=bool(o["from_fallback"]),
            )
            for o in payload["outcomes"]
        ]
        request = payload.get("request")
        return cls(
            histogram=Histogram.from_wire(payload["histogram"]),
            outcomes=outcomes,
            n_index_scans=int(payload["n_index_scans"]),
            n_estimator_skips=int(payload["n_estimator_skips"]),
            elapsed_s=float(payload["elapsed_s"]),
            n_cache_hits=int(payload.get("n_cache_hits", 0)),
            request=(
                TripRequest.from_dict(request) if request is not None else None
            ),
        )

    @property
    def final_subpaths(self) -> List[Tuple[int, ...]]:
        return [o.query.path for o in self.outcomes]

    @property
    def mean_subpath_length(self) -> float:
        """Average final sub-query path length (Figure 7)."""
        lengths = [o.path_length for o in self.outcomes]
        return float(np.mean(lengths)) if lengths else 0.0


#: A forked worker's private engine: a copy of the inherited one whose
#: cache came from ``spawn_for_worker`` (called in the child, lock-free).
#: The parent's backend must not be touched from a fork — its locks may
#: have been snapshotted mid-critical-section by a concurrently running
#: thread batch, and a child blocking on an inherited locked lock hangs
#: forever.  An in-process SubQueryCache spawns a fresh empty cache with
#: the same LRU bounds (cross-trip sharing within the worker's chunk
#: only); a SharedCacheTier spawns a new handle onto the same
#: cross-process store, so workers warm each other and later processes.
_WORKER_ENGINE: Optional["QueryEngine"] = None


def _answer_forked(
    payload: Tuple["QueryEngine", "TripRequest"]
) -> TripQueryResult:
    """Fork-side worker: answer one request of an inherited batch."""
    global _WORKER_ENGINE
    engine, request = payload
    if engine.cache is not None:
        if _WORKER_ENGINE is None:
            _WORKER_ENGINE = copy.copy(engine)
            _WORKER_ENGINE.cache = engine.cache.spawn_for_worker()
            _WORKER_ENGINE.cache.bind_index(engine.index, engine.network)
        engine = _WORKER_ENGINE
    return engine.query(request)


class QueryEngine:
    """Answers trip requests over any :class:`IndexReader`.

    The engine never touches index internals: spatial lookups, estimator
    statistics, and retrieval all go through the reader protocol, so the
    monolithic :class:`repro.sntindex.SNTIndex` and the time-sliced
    :class:`repro.sntindex.ShardedSNTIndex` answer identically here.

    One driver, bit-identical to sequential Procedure 6:
    :meth:`run_batch` drives a batch's trip machines through the
    deduplicating :class:`~repro.core.exec.BatchExecutor` on the calling
    thread, :meth:`query` is ``run_batch([request])``, and
    :meth:`run_forked` ships whole trips to forked worker processes.
    """

    def __init__(
        self,
        index: IndexReader,
        network: RoadNetwork,
        config: Optional["EngineConfig"] = None,
        *,
        estimator: Optional[CardinalityEstimator] = None,
        cache: Optional["CacheBackend"] = None,
    ):
        """
        Parameters
        ----------
        index, network:
            The index reader (monolithic or sharded SNT-index) and its
            road network.
        config:
            An :class:`repro.api.EngineConfig`; ``None`` uses defaults.
        estimator:
            Optional :class:`CardinalityEstimator` instance used as the
            engine default.  When omitted and ``config.estimator_mode``
            is set, one is built from the mode.  A request's own
            ``estimator`` mode always overrides the engine default.
        cache:
            Optional :class:`~repro.service.cachetier.CacheBackend`
            shared across trips (e.g. :class:`repro.service.SubQueryCache`).
            ``None`` gives every trip a fresh :class:`PerTripCache`.  A
            shared cache must be thread-safe when the engine is used
            from multiple threads.
        """
        if config is None:
            from ..api.config import EngineConfig  # api sits above core

            config = EngineConfig()
        if not hasattr(config, "partitioner"):
            raise TypeError(
                f"config must be an EngineConfig; got "
                f"{type(config).__name__} — pass "
                "config=repro.EngineConfig(...)"
            )
        # A mismatched pair answers silently wrong: edges beyond the
        # index's alphabet get empty ISA ranges and fall through to the
        # other network's estimateTT fallback.
        network_alphabet = getattr(network, "alphabet_size", None)
        if network_alphabet is not None and network_alphabet != index.alphabet_size:
            raise QueryError(
                f"index alphabet size {index.alphabet_size} does not match "
                f"the network's {network_alphabet}; index and network must "
                "come from the same world"
            )
        self.index = index
        self.network = network
        self.config = config
        #: The planner's config snapshot; shared by every trip machine.
        self.policy = PlanPolicy.from_config(config)
        #: Estimators built per requested mode, shared across trips.  A
        #: CardinalityEstimator is stateless after construction, so one
        #: instance per mode serves concurrent threads; the dict itself
        #: is only mutated under the GIL (worst case two threads build
        #: the same mode once each — identical objects, last write wins).
        self._estimators: Dict[str, CardinalityEstimator] = {}
        if estimator is None and config.estimator_mode is not None:
            estimator = self._resolve_estimator(config.estimator_mode)
        self.estimator = estimator
        self.cache = cache
        if cache is not None:
            # Pin the shared cache to this index and network for good:
            # keys carry no data identity — and cached fallback results
            # embed the network's ``estimateTT`` — so cross-data sharing
            # must be rejected.
            cache.bind_index(index, network)

    def _synced_cache(self) -> Optional["CacheBackend"]:
        """The shared cache at the reader's current epoch (``None``
        without one): appendable readers bump their epoch on mutation,
        and the cache drops entries cached against the earlier state."""
        if self.cache is not None:
            self.cache.sync_epoch(self.index)
        return self.cache

    def _resolve_estimator(
        self, mode
    ) -> Optional[CardinalityEstimator]:
        """Map a per-request estimator mode to an estimator instance.

        ``None`` inherits the engine default; the ``"none"`` mode
        (``EstimatorMode.NONE``) explicitly disables the pre-check; any
        other mode is built once and shared across trips.
        """
        if mode is None:
            return self.estimator
        value = str(getattr(mode, "value", mode))
        if value == "none":
            return None
        built = self._estimators.get(value)
        if built is None:
            built = CardinalityEstimator(
                self.index,
                mode=value,
                user_selectivity=self.config.user_selectivity,
            )
            self._estimators[value] = built
        return built

    def trip_key(
        self,
        request: "TripRequest",
        estimator: Optional[CardinalityEstimator],
    ) -> Hashable:
        """Identity of one trip answer in the cache backend's ``trips``
        section: every request field that shapes the answer, the
        *resolved* estimator (so ``estimator=None`` and the engine
        default's explicit mode share an entry) and the planner policy
        (``beta_policy`` by callable identity), so sessions that share
        a cache but plan differently never serve each other.  The first
        five fields are a :class:`~repro.core.plan.SubQueryTask` key's,
        in the wire form's order."""
        return (
            request.path,
            request.interval,
            request.user,
            request.exclude_ids,
            request.beta,
            None
            if estimator is None
            else (estimator.mode, estimator.user_selectivity),
            self.policy,
        )

    # ------------------------------------------------------------------ #
    # Executors
    # ------------------------------------------------------------------ #

    def query(self, request: "TripRequest") -> TripQueryResult:
        """Answer one :class:`repro.api.TripRequest`: Procedure 6 as a
        staged pipeline — plan, fetch, combine — on the calling thread.

        A batch of one through :meth:`run_batch`, the engine's only
        driver: the same trip memo probe, machine, fetch rounds and
        accounting, with nothing else in the batch to share a walk with.
        The request's estimator mode overrides the engine default, and
        the result carries the request as a back-reference.
        """
        return self.run_batch([request])[0][0]

    def run_batch(
        self,
        requests: Sequence["TripRequest"],
        n_workers: int = 1,
    ) -> Tuple[List[TripQueryResult], DedupStats]:
        """Answer a batch with cross-trip sub-query deduplication.

        All trips plan against the engine's shared cache backend (a
        ``None`` engine cache means per-trip caches and in-batch dedup
        only), and the :class:`~repro.core.exec.BatchExecutor` answers
        each unique planned sub-query — its whole widen ladder — once
        per round, bit-identical to the sequential per-trip loop,
        including the per-trip re-planning (split, drop filters) when a
        shared walk comes back empty.  Returns the results in submission
        order plus the batch's dedup accounting.

        Whole trips are deduplicated first: every request is probed in
        the shared cache's trip memo, identical requests inside the
        batch are folded onto one machine, and only the distinct misses
        are planned, prefetched and run (then memoised).  The replayed
        trips are accounted as a sequential pass would have them — see
        :meth:`TripQueryResult.replayed` and
        :class:`~repro.core.exec.DedupStats`.  A shared cache returns
        bit-identical histograms — cached retrievals re-enter the
        procedure at the exact point the index scan would have, so only
        the split between ``n_index_scans`` and ``n_cache_hits``
        differs.
        """
        # Identical requests are one trip: group them under their first
        # occurrence (a pure function of the batch, shared cache or not).
        estimators: List[Optional[CardinalityEstimator]] = []
        twins: Dict[Hashable, List[int]] = {}
        for position, request in enumerate(requests):
            if not hasattr(request, "to_spq"):
                # The exact migration mistake the typed API invites:
                # passing a legacy StrictPathQuery.  Keep it typed.
                raise RequestValidationError(
                    f"QueryEngine expects a TripRequest; got "
                    f"{type(request).__name__} — wrap legacy queries "
                    "with TripRequest.from_spq(...)"
                )
            estimators.append(self._resolve_estimator(request.estimator))
            key = self.trip_key(request, estimators[position])
            twins.setdefault(key, []).append(position)
        shared = self._synced_cache()
        started = time.perf_counter()
        executor = BatchExecutor(
            self.index,
            self.network,
            cache=shared,
            n_workers=n_workers,
        )
        results: List[Optional[TripQueryResult]] = [None] * len(requests)
        # Machines are built (and their clocks started) together, so in
        # batch mode a result's ``elapsed_s`` is its completion latency
        # relative to the batch start — the serving-side metric — not
        # the trip's solo service time; timing is explicitly outside
        # the bit-identity contract.
        missed: List[Hashable] = []
        copies: List[int] = []
        machines: List[TripMachine] = []
        for key, positions in twins.items():
            memo = shared.get_trip(key) if shared is not None else None
            if memo is not None:
                executor.stats.note_memoised(
                    len(positions), memo.n_index_scans + memo.n_cache_hits
                )
                elapsed_s = time.perf_counter() - started
                for position in positions:
                    results[position] = memo.replayed(
                        requests[position], elapsed_s
                    )
                continue
            first = positions[0]
            missed.append(key)
            copies.append(len(positions))
            machines.append(
                TripMachine(
                    self.policy,
                    self.index,
                    self.network,
                    shared if shared is not None else PerTripCache(),
                    estimators[first],
                    requests[first].to_spq(),
                    requests[first].exclude_ids,
                )
            )
        # The whole batch's planned sub-queries resolve through one
        # batched backward search (the levelwise frontier descent needs
        # batch-of-trips scale to pay off).
        prefetch_ranges_many(self.index, machines)
        answered = executor.run(machines, copies)
        for key, result in zip(missed, answered):
            first, *rest = twins[key]
            result.request = requests[first]
            results[first] = result
            # Later twins read the first one's just-settled answers: all
            # hits, like a trip the memo replays.
            for position in rest:
                results[position] = result.replayed(
                    requests[position], result.elapsed_s
                )
            if shared is not None:
                shared.put_trip(key, result.replayed(None, result.elapsed_s))
        return cast(List[TripQueryResult], results), executor.stats

    def run_forked(
        self, requests: Sequence["TripRequest"], workers: int
    ) -> List[TripQueryResult]:
        """Process fan-out: forked workers each answer whole trips
        against their copy-on-write view of the index — with a sharded
        index every worker scans only the shards its trips route to, so
        a batch's shard work spreads across real cores instead of GIL
        slices.  Results come back in submission order.

        The engine and requests travel to the workers via fork
        copy-on-write (locks and numpy payloads never cross a pickle on
        the way in); ``TripQueryResult`` payloads come back.  No pickled
        fallback exists — the engine holds cache locks — so on platforms
        without ``fork`` this raises ``RuntimeError``; use thread
        fan-out there.

        Process mode must be quiesced: only one process-mode batch per
        process (a concurrent second one raises ``RuntimeError``), and
        no thread-mode batch should run on the same index concurrently —
        forking can snapshot another thread mid-critical-section,
        leaving a child waiting on a lock that is never released.
        Each worker gets its own cache (see ``_WORKER_ENGINE``), so
        cross-trip sharing happens per worker.  Side-effect statistics
        accumulate in the children and die with the pool: after a
        process-mode batch, parent-side ``cache_stats()`` and a sharded
        index's ``shard_stats()`` do not reflect that batch's work (the
        ``TripQueryResult`` scan/hit counters are returned as usual).
        """
        results = fork_map(
            _answer_forked,
            [(self, request) for request in requests],
            workers,
            chunksize=max(1, len(requests) // (workers * 4)),
        )
        # The back-reference crossed a pickle; restore the caller's own
        # request objects.
        for request, result in zip(requests, results):
            result.request = request
        return results

    def _convolve(self, histograms: List[Histogram]) -> Histogram:
        """Combine stage over this engine's bucket width
        (:func:`repro.core.exec.convolve_histograms`)."""
        return convolve_histograms(histograms, self.policy.bucket_width_s)
