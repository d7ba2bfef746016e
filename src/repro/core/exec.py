"""Query execution: the fetch and combine stages of Procedure 6.

:mod:`repro.core.plan` decides *what to ask the index*; this module asks
it.  Three pieces:

* :class:`TripMachine` — one trip's Procedure 6 state, advanced step by
  step.  ``advance()`` runs the planner (partition queue, shift-and-
  enlarge, estimator pre-check, relaxation) until the trip either needs
  an index fetch — returning a :class:`FetchDemand` — or completes.
  ``resume(result, from_scan)`` feeds the fetch answer back in and
  continues.  The machine performs no index retrieval itself, which is
  what lets one driver answer a trip sequentially and another answer a
  whole batch with cross-trip deduplication, bit-identically.
* :func:`execute_fetch` — the fetch stage for one demand: probe the
  cache backend, scan the :class:`IndexReader` on a miss, store the
  answer.  Exactly the PR-1 cache discipline, so a machine driven
  through it produces the same ``n_index_scans``/``n_cache_hits``
  accounting as the historical monolithic loop.
* :class:`BatchExecutor` — the round-based batch driver: collect the
  pending demands of every in-flight trip, deduplicate identical
  :class:`~repro.core.plan.SubQueryTask` keys, answer each unique task
  once (bulk cache probe, then one index scan per unique miss — grouped
  per edge and per shard by ``get_travel_times_many``), and
  fan each answer out to every owning trip.  Owners that did not pay
  the scan account a cache hit, exactly as they would have in a
  sequential pass over a shared cache, so ``scans + hits`` stays
  invariant and histograms stay byte-identical.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..errors import QueryError
from ..histogram.histogram import Histogram
from .plan import (
    PlanPolicy,
    SubQueryKey,
    SubQueryTask,
    apply_shift_enlarge,
    canonical_exclude,
    expand_relaxation,
    make_split_fn,
    plan_trip,
    wants_shift_enlarge,
)
from .spq import StrictPathQuery

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..network.graph import RoadNetwork
    from ..sntindex.reader import IndexReader
    from .engine import SubQueryOutcome, TripQueryResult

__all__ = [
    "FetchDemand",
    "TripMachine",
    "DedupStats",
    "BatchExecutor",
    "execute_fetch",
    "prefetch_ranges_many",
    "convolve_histograms",
]

#: Ranges list returned by ``IndexReader.isa_ranges``.
IsaRanges = List[Tuple[int, int, int]]


@dataclass(frozen=True, slots=True)
class FetchDemand:
    """One suspended trip's request to the fetch stage.

    ``ranges`` is the ISA backward search the planner already performed
    (shared with the estimator pre-check); the scan reuses it instead of
    recomputing.
    """

    task: SubQueryTask
    ranges: IsaRanges

    @property
    def key(self) -> SubQueryKey:
        return self.task.key


def convolve_histograms(
    histograms: Sequence[Histogram], bucket_width_s: float
) -> Histogram:
    """Combine stage: convolve sub-query histograms into the answer.

    Each factor is normalised to unit mass first; convolving dozens of
    raw count histograms would overflow float64 (the product of the
    totals), and the normalised convolution describes the same
    distribution.
    """
    if not histograms:
        return Histogram(bucket_width_s, 0, np.zeros(0))
    result = histograms[0].scaled_to_unit_mass()
    for histogram in histograms[1:]:
        result = result * histogram.scaled_to_unit_mass()
    return result


class TripMachine:
    """One trip's Procedure 6 state, advanced step by step.

    The machine owns the work queue of sub-queries, the completed
    outcomes, the shift-and-enlarge accumulators, and the relaxation
    budget.  It touches the index only for planner reads (ISA ranges,
    estimator statistics, ``sigma_L`` count probes) — retrieval is
    always demanded from a driver, so execution strategy (sequential vs
    deduplicated batch) never changes what the machine computes.
    """

    __slots__ = (
        "policy",
        "cache",
        "_index",
        "_network",
        "_estimator",
        "_exclude",
        "_queue",
        "_split_fn",
        "_outcomes",
        "_shift_s",
        "_enlarge_s",
        "_relaxations",
        "_pending",
        "_started",
        "n_scans",
        "n_skips",
        "n_hits",
        "result",
    )

    def __init__(
        self,
        policy: PlanPolicy,
        index: "IndexReader",
        network: "RoadNetwork",
        cache: Any,
        estimator: Any,
        query: StrictPathQuery,
        exclude_ids: Sequence[int],
        prefetch: bool = True,
    ) -> None:
        self.policy = policy
        self.cache = cache
        self._index = index
        self._network = network
        self._estimator = estimator
        self._exclude = canonical_exclude(exclude_ids)
        self._split_fn = make_split_fn(policy, index, self._exclude)
        self._queue: Deque[StrictPathQuery] = deque(
            plan_trip(policy, query, network)
        )
        self._outcomes: List["SubQueryOutcome"] = []
        self._shift_s = 0.0  # S_i: sum of earlier histogram minima
        self._enlarge_s = 0.0  # R_i: sum of earlier histogram ranges
        self._relaxations = 0
        self._pending: Optional[FetchDemand] = None
        self._started = time.perf_counter()
        self.n_scans = 0
        self.n_skips = 0
        self.n_hits = 0
        self.result: Optional["TripQueryResult"] = None
        if prefetch:
            self._prefetch_ranges()

    def _pending_prefetch(self) -> List[Sequence[int]]:
        """Planned sub-query paths whose ISA ranges are not cached yet
        (deduplicated, in queue order)."""
        pending: List[Sequence[int]] = []
        seen: Set[Tuple[int, ...]] = set()
        for sub in self._queue:
            key = tuple(sub.path)
            if key in seen or self.cache.get_ranges(sub.path) is not None:
                continue
            seen.add(key)
            pending.append(sub.path)
        return pending

    def _prefetch_ranges(self) -> None:
        """Warm the range cache for the whole planned queue in one batch.

        The planned sub-queries' ISA ranges are resolved together up
        front by the batched backward search (``isa_ranges_many``)
        instead of one ``isa_ranges`` call per :meth:`advance` step —
        same ranges (the batched search is bit-identical), fetched
        through one amortised descent.  Served through the cache, so
        dedup/statistics behave as if each lookup happened at its usual
        point.
        """
        pending = self._pending_prefetch()
        if len(pending) < 2:  # nothing to amortise
            return
        found = self._index.isa_ranges_many(pending)
        for path, ranges in zip(pending, found):
            self.cache.put_ranges(path, ranges)

    def advance(self) -> Optional[FetchDemand]:
        """Plan until the next fetch is needed, or finish the trip.

        Returns the demand to answer (feed it back via :meth:`resume`),
        or ``None`` when the trip completed — :attr:`result` is then set.
        """
        if self._pending is not None:
            raise QueryError(
                "TripMachine.advance called with an unanswered fetch "
                "demand pending"
            )
        policy = self.policy
        while self._queue:
            sub = self._queue.popleft()
            ranges = self.cache.get_ranges(sub.path)
            if ranges is None:
                ranges = self._index.isa_ranges(sub.path)
                self.cache.put_ranges(sub.path, ranges)

            # Shift-and-enlarge (Procedure 6 line 4), once per chain.
            if wants_shift_enlarge(policy, sub, bool(self._outcomes)):
                sub = apply_shift_enlarge(sub, self._shift_s, self._enlarge_s)

            # Cardinality estimator pre-check (Section 4.4).
            if (
                self._estimator is not None
                and sub.beta is not None
                and self._estimator.estimate(sub, isa_ranges=ranges)
                < sub.beta
            ):
                self.n_skips += 1
                self._relax(sub)
                continue

            self._pending = FetchDemand(
                SubQueryTask(sub, self._exclude), ranges
            )
            return self._pending
        self._finish()
        return None

    def resume(self, result: Any, from_scan: bool) -> Optional[FetchDemand]:
        """Feed the pending demand's retrieval result back in.

        ``from_scan`` says who paid for it: ``True`` accounts an index
        scan, ``False`` a cache hit (including a deduplicated fan-out,
        which is a hit against the batch's own just-scanned answer).
        Continues planning and returns the next demand, or ``None`` when
        the trip completed.
        """
        if self._pending is None:
            raise QueryError(
                "TripMachine.resume called without a pending fetch demand"
            )
        demand, self._pending = self._pending, None
        sub = demand.task.query
        if from_scan:
            self.n_scans += 1
        else:
            self.n_hits += 1

        if result.is_empty:
            self._relax(sub)
            return self.advance()

        histogram_key = (demand.key, self.policy.bucket_width_s)
        histogram = self.cache.get_histogram(histogram_key)
        if histogram is None:
            histogram = Histogram.from_values(
                result.values, self.policy.bucket_width_s
            )
            self.cache.put_histogram(histogram_key, histogram)
        from .engine import SubQueryOutcome

        self._outcomes.append(
            SubQueryOutcome(
                query=sub,
                values=result.values,
                histogram=histogram,
                from_fallback=result.from_fallback,
            )
        )
        self._shift_s += histogram.min_value
        self._enlarge_s += histogram.value_range
        return self.advance()

    def _relax(self, sub: StrictPathQuery) -> None:
        """Replace a failing sub-query with its relaxation (Procedure 1)."""
        self._relaxations += 1
        if self._relaxations > self.policy.max_relaxations:
            raise QueryError("relaxation limit exceeded")
        self._queue.extendleft(
            reversed(
                expand_relaxation(
                    self.policy, sub, self._index.t_max, self._split_fn
                )
            )
        )

    def _finish(self) -> None:
        from .engine import TripQueryResult

        self.result = TripQueryResult(
            histogram=convolve_histograms(
                [o.histogram for o in self._outcomes],
                self.policy.bucket_width_s,
            ),
            outcomes=self._outcomes,
            n_index_scans=self.n_scans,
            n_estimator_skips=self.n_skips,
            elapsed_s=time.perf_counter() - self._started,
            n_cache_hits=self.n_hits,
        )


def prefetch_ranges_many(
    index: "IndexReader", machines: Sequence[TripMachine]
) -> None:
    """Pool the per-trip range prefetch across a whole batch of trips.

    Every machine's planned-but-uncached sub-query paths are merged
    (first owner's order, unique across the batch) and resolved with
    **one** ``isa_ranges_many`` call, then fanned back into each owning
    machine's cache.  A batch of trips yields hundreds of sub-paths —
    deep into the regime where the levelwise frontier descent beats the
    scalar walk — where a single trip's queue (~10 paths) sits below
    the bulk crossover.  Pure cache warming with bit-identical ranges,
    so results and dedup statistics are unchanged; machines must have
    been built with ``prefetch=False`` (otherwise they already warmed
    their caches solo, and this finds nothing left to pool).
    """
    order: List[Sequence[int]] = []
    owners: Dict[Tuple[int, ...], List[TripMachine]] = {}
    for machine in machines:
        for path in machine._pending_prefetch():
            key = tuple(path)
            holders = owners.get(key)
            if holders is None:
                owners[key] = [machine]
                order.append(path)
            else:
                holders.append(machine)
    if len(order) < 2:  # nothing to amortise
        return
    for path, ranges in zip(order, index.isa_ranges_many(order)):
        for machine in owners[tuple(path)]:
            machine.cache.put_ranges(path, ranges)


def execute_fetch(
    index: "IndexReader",
    network: "RoadNetwork",
    cache: Any,
    demand: FetchDemand,
) -> Tuple[Any, bool]:
    """Fetch stage for one demand: cache probe, then scan-and-store.

    Returns ``(result, from_scan)`` — exactly the PR-1 discipline: a hit
    is indistinguishable from a scan bar the accounting, and a scanned
    answer is stored before anyone consumes it.
    """
    key = demand.key
    result = cache.get_result(key)
    if result is not None:
        return result, False
    result = index.get_travel_times(
        demand.task.query,
        fallback_tt=network.estimate_tt,
        exclude_ids=demand.task.exclude_ids,
        isa_ranges=demand.ranges,
    )
    cache.put_result(key, result)
    return result, True


def _scan_demands(
    index: "IndexReader",
    network: "RoadNetwork",
    demands: Sequence[FetchDemand],
    n_workers: int,
) -> List[Any]:
    """Scan stage over unique demands, in demand order.

    ``get_travel_times_many`` answers the whole set in one call — the
    monolithic index groups queries by first/last edge so each edge's
    interval selection and probe join run once per round, and the
    sharded router additionally walks each shard's columns contiguously.
    Thread fan-out is safe because every demand is a distinct key and
    index reads are immutable during a batch.
    """
    items = [
        (demand.task.query, demand.task.exclude_ids, demand.ranges)
        for demand in demands
    ]
    if n_workers > 1 and len(items) > 1:
        # Contiguous slices, one grouped call per worker: per-shard
        # locality within each slice, real fan-out across slices
        # (router reads are immutable; its counters are locked).
        width = min(n_workers, len(items))
        step = -(-len(items) // width)  # ceil division
        slices = [
            items[start : start + step]
            for start in range(0, len(items), step)
        ]
        with ThreadPoolExecutor(max_workers=len(slices)) as pool:
            parts = list(
                pool.map(
                    lambda chunk: list(
                        index.get_travel_times_many(
                            chunk, fallback_tt=network.estimate_tt
                        )
                    ),
                    slices,
                )
            )
        return [result for part in parts for result in part]
    return list(
        index.get_travel_times_many(items, fallback_tt=network.estimate_tt)
    )


@dataclass
class DedupStats:
    """Per-batch accounting of the deduplicating executor."""

    #: Trips answered by the batch.
    n_trips: int = 0
    #: Fetch demands planned across all trips (including relaxation
    #: retries).
    planned_subqueries: int = 0
    #: Distinct sub-query keys the batch actually had to answer.
    unique_subqueries: int = 0
    #: Demands answered straight from the shared cache backend.
    cache_hits: int = 0
    #: Index scans executed (one per unique cache-missing key).
    n_index_scans: int = 0
    #: Executor rounds (batch-wide plan/fetch/combine iterations).
    n_rounds: int = 0

    @property
    def scans_saved(self) -> int:
        """Scans a per-trip loop would have issued that dedup absorbed."""
        return self.planned_subqueries - self.cache_hits - self.n_index_scans

    def absorb(self, other: "DedupStats") -> None:
        """Fold another batch's accounting in (streaming window chunks
        report one aggregate per stream, not per chunk)."""
        self.n_trips += other.n_trips
        self.planned_subqueries += other.planned_subqueries
        self.unique_subqueries += other.unique_subqueries
        self.cache_hits += other.cache_hits
        self.n_index_scans += other.n_index_scans
        self.n_rounds += other.n_rounds

    def summary(self) -> str:
        return (
            f"{self.planned_subqueries} sub-queries planned over "
            f"{self.n_trips} trips, {self.unique_subqueries} unique, "
            f"{self.n_index_scans} scanned, {self.cache_hits} cache hits, "
            f"{self.scans_saved} scans saved by dedup"
        )


class BatchExecutor:
    """Answers a batch of trips with cross-trip sub-query deduplication.

    Each round: every in-flight trip plans up to its next fetch demand;
    demands with identical keys are grouped; each unique key is answered
    once — bulk cache probe first, then one index scan per miss — and
    the answer fans out to every owner.  The first owner (in submission
    order) of a scanned key accounts the scan; every other owner
    accounts a cache hit, exactly what a sequential pass over a shared
    cache would have produced.  Relaxation re-planning stays per-trip:
    an owner resuming with an empty shared answer expands its own
    ladder and re-demands in the next round.

    ``cache`` may be ``None`` (no shared backend): deduplication then
    happens only within a round's demand set, and nothing is stored.
    """

    def __init__(
        self,
        index: "IndexReader",
        network: "RoadNetwork",
        cache: Any = None,
        n_workers: int = 1,
    ) -> None:
        self.index = index
        self.network = network
        self.cache = cache
        self.n_workers = max(1, int(n_workers))
        self.stats = DedupStats()

    def run(
        self, machines: Sequence[TripMachine]
    ) -> List["TripQueryResult"]:
        """Drive the machines to completion; results in submission order."""
        self.stats.n_trips += len(machines)
        pending: List[Tuple[TripMachine, FetchDemand]] = []
        for machine in machines:
            demand = machine.advance()
            if demand is not None:
                pending.append((machine, demand))

        while pending:
            self.stats.n_rounds += 1
            self.stats.planned_subqueries += len(pending)

            # Group demands by key, preserving submission order (both of
            # the unique keys and of each key's owners).
            groups: Dict[SubQueryKey, List[Tuple[TripMachine, FetchDemand]]]
            groups = {}
            for machine, demand in pending:
                groups.setdefault(demand.key, []).append((machine, demand))
            unique_keys = list(groups)
            self.stats.unique_subqueries += len(unique_keys)

            found: Dict[SubQueryKey, Any] = (
                self.cache.get_results_many(unique_keys)
                if self.cache is not None
                else {}
            )
            self.stats.cache_hits += sum(
                len(groups[key]) for key in found
            )
            missing = [key for key in unique_keys if key not in found]
            scan_demands = [groups[key][0][1] for key in missing]
            scanned = _scan_demands(
                self.index, self.network, scan_demands, self.n_workers
            )
            self.stats.n_index_scans += len(scanned)
            if self.cache is not None and scanned:
                self.cache.put_results_many(list(zip(missing, scanned)))
            answers = dict(found)
            answers.update(zip(missing, scanned))
            scanned_keys = set(missing)

            # Fan out, in submission order; the first owner of a scanned
            # key pays the scan, later owners account hits.
            next_pending: List[Tuple[TripMachine, FetchDemand]] = []
            for machine, demand in pending:
                key = demand.key
                from_scan = key in scanned_keys
                if from_scan:
                    scanned_keys.discard(key)
                follow_up = machine.resume(answers[key], from_scan)
                if follow_up is not None:
                    next_pending.append((machine, follow_up))
            pending = next_pending

        results: List["TripQueryResult"] = []
        for machine in machines:
            assert machine.result is not None
            results.append(machine.result)
        return results
