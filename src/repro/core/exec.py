"""Query execution: the fetch and combine stages of Procedure 6.

:mod:`repro.core.plan` decides *what to ask the index*; this module asks
it.  Three pieces:

* :class:`TripMachine` — one trip's Procedure 6 state, advanced step by
  step.  ``advance()`` runs the planner (partition queue, shift-and-
  enlarge, estimator pre-check, relaxation) until the trip either needs
  an index fetch — returning a :class:`FetchDemand` — or completes.
  ``resume(rung, result, from_scan)`` feeds the fetch answer back in and
  continues.  The machine performs no index retrieval itself: the
  driver decides how demands reach the index.
* :class:`FetchDemand` — one sub-query *and its widen ladder*: the
  demanded rung plus, built only when that rung fails, the wider rungs
  Procedure 1 would step through.  The fetch stage resolves the whole
  walk and answers ``(rung, result)``; the machine never re-plans a
  widening.
* :class:`BatchExecutor` — the one driver, for a batch of any size (a
  single query is a batch of one): each round it collects the pending
  demands of every in-flight trip, deduplicates identical walks,
  answers each unique walk once (bulk cache probes rung by rung, then
  one :meth:`IndexReader.walk_ladder_many` call for the round's misses
  — walked per shard on a sharded reader), stores every rung a scan
  settled under its own key, and fans each answer out to every owning
  trip.  A demand is accounted once — an index scan for the first
  owner of a scanned walk, a cache hit for every other owner and for a
  walk the cache answered whole — exactly as a sequential pass over a
  shared cache would, so ``n_index_scans + n_cache_hits`` is the same
  under every cache and reader and histograms stay byte-identical.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
import numpy.typing as npt

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
from .splitting import widen_rungs
from .spq import StrictPathQuery

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..network.graph import RoadNetwork
    from ..sntindex.reader import IndexReader
    from .engine import TripQueryResult

__all__ = [
    "FetchDemand",
    "SubQueryOutcome",
    "TripMachine",
    "DedupStats",
    "BatchExecutor",
    "prefetch_ranges_many",
    "convolve_histograms",
]

#: Ranges list returned by ``IndexReader.isa_ranges``.
IsaRanges = List[Tuple[int, int, int]]


def _admits(
    estimator: Any, query: StrictPathQuery, ranges: IsaRanges
) -> bool:
    """The cardinality estimator's pre-check (Section 4.4): whether a
    sub-query is worth a retrieval at all."""
    return (
        estimator is None
        or query.beta is None
        or estimator.estimate(query, isa_ranges=ranges) >= query.beta
    )


class FetchDemand:
    """One suspended trip's request to the fetch stage: a sub-query and
    the widen ladder above it.

    ``task`` is the rung the trip needs now; :meth:`tasks` adds the
    wider rungs Procedure 1 would step through if it fails — the same
    Stage-1 rule, iterated from ``task``'s interval, keeping only the
    rungs the trip's estimator admits.  They are built on first use:
    most demands succeed on ``task`` and never pay for them.  The fetch
    stage tries the rungs in order and answers with the position of the
    one that settled the walk.

    ``ranges`` is the ISA backward search the planner already performed
    (shared with the estimator pre-check); the scan reuses it instead of
    recomputing.  ``exclude`` is ``task.exclude_ids`` as the sorted
    array the scan filters on, converted once per trip.
    """

    __slots__ = (
        "task", "ranges", "exclude", "_policy", "_estimator", "_tasks",
        "_skipped",
    )

    def __init__(
        self,
        task: SubQueryTask,
        ranges: IsaRanges,
        exclude: Any,
        policy: PlanPolicy,
        estimator: Any,
    ) -> None:
        self.task = task
        self.ranges = ranges
        self.exclude = exclude
        self._policy = policy
        self._estimator = estimator
        self._tasks: Optional[List[SubQueryTask]] = None
        #: Per rung of :meth:`tasks`: how many ladder rungs between
        #: ``task`` and it the estimator rejected.
        self._skipped = [0]

    @property
    def walk_key(self) -> Tuple[SubQueryKey, Any]:
        """Identity of the whole walk: demands with equal walk keys try
        the same rungs in the same order (the estimator decides which
        rungs are tried, so it is part of the identity)."""
        return self.task.key, self._estimator

    def tasks(self) -> List[SubQueryTask]:
        """Every rung the fetch stage may try, ``task`` first."""
        if self._tasks is None:
            tasks = [self.task]
            skipped = 0
            policy = self._policy
            # No trip can afford more widenings than its whole budget.
            for rung in widen_rungs(
                self.task.query, policy.ladder, policy.max_relaxations
            ):
                if _admits(self._estimator, rung, self.ranges):
                    tasks.append(SubQueryTask(rung, self.task.exclude_ids))
                    self._skipped.append(skipped)
                else:
                    skipped += 1
            self._tasks = tasks
        return self._tasks

    def task_at(self, rung: int) -> SubQueryTask:
        return self.tasks()[rung] if rung else self.task

    def wider(self, rung: int) -> List[StrictPathQuery]:
        """The queries of the rungs above position ``rung``."""
        return [task.query for task in self.tasks()[rung + 1 :]]

    def stored(self, rung: int, walk: Sequence[Any]) -> List[Tuple[Any, Any]]:
        """``(key, result)`` per rung of a scanned ``walk`` that started
        at position ``rung`` — what a rung-by-rung walk would have left
        in the cache."""
        return [
            (self.task_at(rung + offset).key, result)
            for offset, result in enumerate(walk)
        ]

    def climbed(self, rung: int) -> Tuple[int, int]:
        """The ``(widenings, estimator skips)`` Procedure 1 spends
        stepping from ``task`` up to position ``rung``."""
        skipped = self._skipped[rung]
        return rung + skipped, skipped


@dataclass
class SubQueryOutcome:
    """One completed sub-query, in path order."""

    query: StrictPathQuery
    values: npt.NDArray[np.float64]
    histogram: Histogram
    from_fallback: bool

    @property
    def mean(self) -> float:
        """``X_bar_j`` — used by the sMAPE / weighted-error metrics."""
        return float(self.values.mean())

    @property
    def path_length(self) -> int:
        return self.query.length


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
    always demanded from the driver, so what else shares the batch
    never changes what the machine computes.  Its planned queue's ISA
    ranges are warmed from outside, by :func:`prefetch_ranges_many`.
    """

    __slots__ = (
        "policy",
        "cache",
        "_index",
        "_network",
        "_estimator",
        "_exclude",
        "_exclude_array",
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
    ) -> None:
        self.policy = policy
        self.cache = cache
        self._index = index
        self._network = network
        self._estimator = estimator
        self._exclude = canonical_exclude(exclude_ids)
        # The scan's form of the same set (sorted int64), converted once
        # per trip instead of once per scan.
        self._exclude_array = np.asarray(self._exclude, dtype=np.int64)
        self._split_fn = make_split_fn(policy, index, self._exclude_array)
        self._queue: Deque[StrictPathQuery] = deque(
            plan_trip(policy, query, network)
        )
        self._outcomes: List[SubQueryOutcome] = []
        self._shift_s = 0.0  # S_i: sum of earlier histogram minima
        self._enlarge_s = 0.0  # R_i: sum of earlier histogram ranges
        self._relaxations = 0
        self._pending: Optional[FetchDemand] = None
        self._started = time.perf_counter()
        self.n_scans = 0
        self.n_skips = 0
        self.n_hits = 0
        self.result: Optional["TripQueryResult"] = None

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
            if not _admits(self._estimator, sub, ranges):
                self.n_skips += 1
                self._relax(sub)
                continue

            self._pending = FetchDemand(
                SubQueryTask(sub, self._exclude),
                ranges,
                self._exclude_array,
                policy,
                self._estimator,
            )
            return self._pending
        self._finish()
        return None

    def resume(
        self, rung: int, result: Any, from_scan: bool
    ) -> Optional[FetchDemand]:
        """Feed the pending demand's answer back in: ``result`` settled
        the walk at position ``rung`` of the demand's
        :meth:`~FetchDemand.tasks`.

        The widenings up to that rung are charged to the relaxation
        budget — and the rungs the estimator rejected on the way to
        ``n_estimator_skips`` — exactly as if the trip had stepped
        through them one by one.  An empty ``result`` means every rung
        failed; the trip relaxes on from the last one (split, drop the
        user filter, all data).  ``from_scan`` says who paid:
        ``True`` accounts an index scan, ``False`` a cache hit
        (including a deduplicated fan-out, which is a hit against the
        batch's own just-scanned answer) — once per demand, however
        many rungs the walk tried.  Continues planning and returns the
        next demand, or ``None`` when the trip completed.
        """
        if self._pending is None:
            raise QueryError(
                "TripMachine.resume called without a pending fetch demand"
            )
        demand, self._pending = self._pending, None
        if from_scan:
            self.n_scans += 1
        else:
            self.n_hits += 1
        task = demand.task_at(rung)
        widenings, skips = demand.climbed(rung)
        self.n_skips += skips
        self._spend(widenings)
        sub = task.query

        if result.is_empty:
            self._relax(sub)
            return self.advance()

        histogram_key = (task.key, self.policy.bucket_width_s)
        histogram = self.cache.get_histogram(histogram_key)
        if histogram is None:
            histogram = Histogram.from_values(
                result.values, self.policy.bucket_width_s
            )
            self.cache.put_histogram(histogram_key, histogram)
        self._outcomes.append(
            SubQueryOutcome(
                query=sub,
                values=result.values,
                histogram=histogram,
                from_fallback=result.from_fallback,
            )
        )
        low, value_range = histogram.extent()
        self._shift_s += low
        self._enlarge_s += value_range
        return self.advance()

    def _spend(self, n_relaxations: int) -> None:
        self._relaxations += n_relaxations
        if self._relaxations > self.policy.max_relaxations:
            raise QueryError("relaxation limit exceeded")

    def _relax(self, sub: StrictPathQuery) -> None:
        """Replace a failing sub-query with its relaxation (Procedure 1)."""
        self._spend(1)
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
    """Warm the range caches of a whole batch of trips in one call.

    Every machine's planned-but-uncached sub-query paths are merged
    (first owner's order, unique across the batch) and resolved with
    **one** ``isa_ranges_many`` call, then fanned back into each owning
    machine's cache — instead of one ``isa_ranges`` call per
    :meth:`TripMachine.advance` step.  A batch of trips yields hundreds
    of sub-paths, deep into the regime where the levelwise frontier
    descent beats the scalar walk; a single trip's queue (~10 paths)
    sits below the bulk crossover and takes the scalar descent inside
    the same call.  Pure cache warming with bit-identical ranges, so
    results and dedup statistics are unchanged.
    """
    owners: Dict[Tuple[int, ...], List[TripMachine]] = {}
    for machine in machines:
        cached = machine.cache.get_ranges
        for sub in machine._queue:
            holders = owners.get(sub.path)
            if holders is None:
                if cached(sub.path) is None:
                    owners[sub.path] = [machine]
            elif holders[-1] is not machine and cached(sub.path) is None:
                holders.append(machine)
    if len(owners) < 2:  # nothing to amortise
        return
    paths = list(owners)
    for path, ranges in zip(paths, index.isa_ranges_many(paths)):
        for machine in owners[path]:
            machine.cache.put_ranges(path, ranges)


def _scan_walks(
    index: "IndexReader",
    network: "RoadNetwork",
    leads: Sequence[FetchDemand],
    rungs: Sequence[int],
    misses: Iterable[int],
) -> List[List[Any]]:
    """Scan stage over the round's missed walk slots, in order, each
    from ``rungs[slot]``, the first rung the cache does not hold.

    ``walk_ladder_many`` answers the whole set in one call on the
    calling thread, item by item on either reader.
    """
    items = [
        (
            leads[slot].task_at(rungs[slot]).query,
            partial(leads[slot].wider, rungs[slot]),
            leads[slot].exclude,
            leads[slot].ranges,
        )
        for slot in misses
    ]
    return index.walk_ladder_many(items, fallback_tt=network.estimate_tt)


@dataclass
class DedupStats:
    """Per-batch accounting of the deduplicating executor.

    Trips that never ran a machine are accounted as if they had: a trip
    the cache's trip memo answered counts in ``n_trips``, its demands
    in ``planned_subqueries`` and in ``cache_hits`` (a sequential pass
    over the warm sub-query cache would have hit on each); a request
    identical to an earlier one *of the same batch* rides on that
    trip's machine, its demands planned again and each one a cache hit
    or a scan saved exactly as the first one's was a hit or a scan —
    so in-batch duplicates show up in ``scans_saved``.  Neither adds to
    ``unique_subqueries`` or ``n_rounds``.
    """

    #: Trips answered by the batch, replayed ones included.
    n_trips: int = 0
    #: Fetch demands planned across all trips (a sub-query with its
    #: widen ladder is one demand; split halves and dropped filters are
    #: new ones), replayed trips' demands included.
    planned_subqueries: int = 0
    #: Distinct ladder walks the batch actually had to answer, summed
    #: over rounds.
    unique_subqueries: int = 0
    #: Demands the shared cache answered for every rung needed,
    #: plus every demand of a trip its memo answered whole.
    cache_hits: int = 0
    #: Index calls executed (one per unique walk the cache fell short on).
    n_index_scans: int = 0
    #: Executor rounds (batch-wide plan/fetch/combine iterations).
    n_rounds: int = 0

    @property
    def scans_saved(self) -> int:
        """Scans a per-trip loop would have issued that dedup absorbed."""
        return self.planned_subqueries - self.cache_hits - self.n_index_scans

    def note_memoised(self, n_trips: int, n_demands: int) -> None:
        """Account ``n_trips`` identical trips of ``n_demands`` demands
        each that the cache's trip memo answered."""
        self.n_trips += n_trips
        self.planned_subqueries += n_trips * n_demands
        self.cache_hits += n_trips * n_demands

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
    """Answers a batch of trips — one or many — with cross-trip
    sub-query deduplication.

    Each round: every in-flight trip plans up to its next fetch demand;
    demands for the same ladder walk are grouped; each unique walk is
    answered once — the cache chased up the ladder with one bulk probe
    per rung, then one index call for the round's misses — and
    the answer fans out to every owner.  The first owner (in submission
    order) of a scanned walk accounts the scan; every other owner
    accounts a cache hit, exactly what a sequential pass over a shared
    cache would have produced.  Relaxation past the ladder (split, drop
    filters) stays per-trip: an owner resuming with a failed walk
    re-plans and demands again in the next round.

    ``cache`` may be ``None`` (no shared cache): deduplication then
    happens only within a round's demand set, nothing is probed and
    nothing is stored.
    """

    def __init__(
        self,
        index: "IndexReader",
        network: "RoadNetwork",
        cache: Any = None,
    ) -> None:
        self.index = index
        self.network = network
        self.cache = cache
        self.stats = DedupStats()

    def _chase_cache(
        self,
        leads: Sequence[FetchDemand],
        rungs: List[int],
        answers: List[Any],
    ) -> List[int]:
        """Chase every walk up its ladder through the shared cache.

        One bulk probe per ladder level: a cached failure moves a walk
        to its next rung (``rungs[slot] += 1``), a cached answer (or the
        last rung's cached failure) settles it as ``answers[slot] =
        (rung, result)``.  Returns the slots of the walks the cache
        could not settle, in slot order, each left at the first rung the
        cache does not hold.
        """
        misses: List[int] = []
        frontier: Sequence[int] = range(len(leads))
        while frontier:
            keys = [
                leads[slot].task_at(rungs[slot]).key for slot in frontier
            ]
            found = self.cache.get_results_many(keys)
            climbing: List[int] = []
            for slot, key in zip(frontier, keys):
                result = found.get(key)
                if result is None:
                    misses.append(slot)
                elif (
                    not result.is_empty
                    or rungs[slot] + 1 == len(leads[slot].tasks())
                ):
                    answers[slot] = (rungs[slot], result)
                else:
                    rungs[slot] += 1
                    climbing.append(slot)
            frontier = climbing
        misses.sort()
        return misses

    def run(
        self,
        machines: Sequence[TripMachine],
        copies: Sequence[int],
    ) -> List["TripQueryResult"]:
        """Drive the machines to completion; results in submission order.

        ``copies[i]`` identical trips ride on ``machines[i]`` (1 for a
        trip of its own).  Identical trips would advance in lockstep
        and demand the same walk every round, so one machine stands for
        all of them and each of its demands is accounted ``copies[i]``
        times: planned, and then a cache hit or a scan saved by dedup
        exactly as the twins' own demands would have been.
        """
        stats, cache = self.stats, self.cache
        stats.n_trips += sum(copies)
        pending: List[Tuple[TripMachine, FetchDemand, int]] = []
        for machine, n_copies in zip(machines, copies):
            demand = machine.advance()
            if demand is not None:
                pending.append((machine, demand, n_copies))

        while pending:
            stats.n_rounds += 1

            # Group demands by walk — each walk key is hashed once — in
            # submission order of the walks and of each walk's owners.
            # A walk is a slot: its first owner's demand leads it, and
            # its owner count, first uncached rung, answer and whether
            # its scan is still unpaid are lists by slot.
            slot_of: Dict[Any, int] = {}
            slots: List[int] = []
            leads: List[FetchDemand] = []
            n_owners: List[int] = []
            for _, demand, n_copies in pending:
                slot = slot_of.setdefault(demand.walk_key, len(leads))
                slots.append(slot)
                if slot == len(leads):
                    leads.append(demand)
                    n_owners.append(n_copies)
                else:
                    n_owners[slot] += n_copies
            n_walks = len(leads)
            hits = sum(n_owners)
            stats.planned_subqueries += hits
            stats.unique_subqueries += n_walks

            answers: List[Any] = [None] * n_walks
            rungs = [0] * n_walks
            misses: Sequence[int] = (
                range(n_walks)
                if cache is None
                else self._chase_cache(leads, rungs, answers)
            )
            scanned = _scan_walks(
                self.index, self.network, leads, rungs, misses
            )
            stats.n_index_scans += len(scanned)
            unpaid = [False] * n_walks
            for slot, walk in zip(misses, scanned):
                answers[slot] = (rungs[slot] + len(walk) - 1, walk[-1])
                unpaid[slot] = True
                hits -= n_owners[slot]
            stats.cache_hits += hits
            if cache is not None and scanned:
                cache.put_results_many([
                    entry
                    for slot, walk in zip(misses, scanned)
                    for entry in leads[slot].stored(rungs[slot], walk)
                ])

            # Fan out, in submission order; the first owner of a scanned
            # walk pays the scan, later owners account hits.
            next_pending: List[Tuple[TripMachine, FetchDemand, int]] = []
            for (machine, _, n_copies), slot in zip(pending, slots):
                from_scan = unpaid[slot]
                unpaid[slot] = False
                follow_up = machine.resume(*answers[slot], from_scan)
                if follow_up is not None:
                    next_pending.append((machine, follow_up, n_copies))
            pending = next_pending

        results: List["TripQueryResult"] = []
        for machine in machines:
            assert machine.result is not None
            results.append(machine.result)
        return results
