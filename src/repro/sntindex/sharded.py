"""Time-sliced sharding of the SNT-index (ROADMAP scale-out items).

The paper's index is already temporally partitioned — one FM-index per
time window of trajectory *start* times (Section 4.3.2) — which makes
time-range sharding the natural scale-out axis: a **shard** is a
contiguous run of those temporal partitions, built as a self-contained
:class:`SNTIndex` (so shards build in parallel worker processes and
persist with the unchanged PR-1 directory format), and a **router**
answers the :class:`~repro.sntindex.reader.IndexReader` protocol over
the shard set.

Bit-identical answers
---------------------
``ShardedSNTIndex`` answers every query *bit-identically* to the
monolithic ``SNTIndex`` built from the same corpus with the same
``partition_days``.  That guarantee rests on three invariants:

* **Partition alignment** — shard boundaries coincide with temporal
  partition boundaries and every shard receives the *global* window
  bounds (:meth:`SNTIndex.build_from_groups`), so each shard's FM
  partitions are byte-for-byte the monolithic ones and global partition
  ids are the concatenation of the shards' local ids.  This is also why
  sharding requires ``partition_days``: the FULL configuration has a
  single FM-index over the whole corpus, and splitting *that* would
  change per-partition estimator inputs.
* **Stable restriction** — a shard's per-segment columns are the
  monolithic t-sorted columns restricted to the shard's trajectories,
  in the same relative order.  Merging per-shard scan outputs on
  ``(entry time, shard order)`` with a stable sort therefore reproduces
  the monolithic row order exactly — including Procedure 3's ascending
  entry-time ``beta`` cut, which the router applies globally across the
  per-shard (already capped) prefixes.
* **Additive statistics** — ISA range widths, CSS range counts, and
  time-of-day histograms are integer-exact per partition, so the
  estimator views (:class:`_ShardedEdgeStats`, :class:`_ShardedTodStore`)
  reproduce the monolithic estimates bit-for-bit.

Appendable staging shard
------------------------
``append(trajectories)`` accumulates new trajectories in a small
*staging* shard that is rebuilt on each call — cheap, because only the
staged tail is rebuilt; the sealed shards are untouched.  Appends must
be strictly newer than every sealed shard's time window: that keeps the
global partition enumeration identical to what a from-scratch monolithic
build over the combined corpus would produce, preserving bit-identical
answers *after* appends too.  Each append bumps :attr:`epoch`, which
:class:`repro.service.SubQueryCache` watches to drop entries cached
against earlier index states.  ``seal_staging()`` promotes a grown
staging shard to a sealed one (pure bookkeeping — no epoch bump, since
no indexed content changes).
"""

from __future__ import annotations

import json
import pickle
import threading
import time
import uuid
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import SECONDS_PER_DAY
from ..core.intervals import is_periodic
from ..forkpool import fork_map
from ..errors import (
    IndexError_,
    IndexFormatError,
    MissingUserError,
    PersistenceError,
    ShardError,
    UnknownTrajectoryError,
)
from ..trajectories.model import TrajectorySet
from .index import BuildStats, SNTIndex, assign_time_windows, window_bounds
from .persistence import (
    META_FILE,
    StoreLike,
    load_index,
    read_meta,
    validate_identity,
    write_index_payload,
)
from .store import as_store
from .procedures import (
    TravelTimeResult,
    choose_rung,
    classify_scan,
    first_segment_matches_many,
    monolithic_count_matches,
    probe_travel_times_many,
)

__all__ = [
    "ShardedSNTIndex",
    "ShardRouter",
    "ShardStats",
    "SHARDED_FORMAT_NAME",
    "SHARDED_FORMAT_VERSION",
    "MANIFEST_FILE",
    "save_sharded_index",
    "load_sharded_index",
    "read_sharded_meta",
    "read_any_meta",
    "load_any_index",
]

SHARDED_FORMAT_NAME = "snt-sharded-index"
#: v2: shard directories use the pickle-free mmap payload format
#: (:data:`repro.sntindex.persistence.FORMAT_VERSION` 2).
SHARDED_FORMAT_VERSION = 2
MANIFEST_FILE = "manifest.json"
STAGING_DIR = "staging"
#: Pickled staged tail (not the text trajectory format: ``%g`` rounding
#: there would change rebuilt staging values after a restart, breaking
#: the bit-identical contract).  The one pickle of the on-disk format —
#: shard payloads have been pickle-free since format v2.
STAGED_TRAJECTORIES_FILE = "staging_trajectories.pkl"


# ---------------------------------------------------------------------- #
# Shard bookkeeping
# ---------------------------------------------------------------------- #


@dataclass
class _ShardEntry:
    """One shard plus the routing metadata the router needs."""

    index: SNTIndex
    label: str
    #: Occupied global temporal-bucket range (inclusive) of the shard's
    #: trajectories; appends must land strictly after every sealed
    #: shard's ``bucket_hi``.
    bucket_lo: int
    bucket_hi: int
    #: Actual traversal-timestamp bounds (inclusive) across the shard's
    #: segments — pruning bounds, wider than the bucket window because a
    #: trajectory's traversals extend past its start bucket.
    t_lo: int
    t_hi: int
    #: Index scans served by this shard (router statistics).
    n_scans: int = 0

    @classmethod
    def wrap(
        cls, index: SNTIndex, label: str, bucket_lo: int, bucket_hi: int
    ) -> "_ShardEntry":
        t_lo, t_hi = index.data_time_bounds()
        return cls(
            index=index,
            label=label,
            bucket_lo=int(bucket_lo),
            bucket_hi=int(bucket_hi),
            t_lo=t_lo,
            t_hi=t_hi,
        )


@dataclass(frozen=True)
class ShardStats:
    """Routing statistics of a :class:`ShardRouter`.

    One instance always describes counters accumulated against a
    *single* shard topology: ``n_shards`` is the shard count the
    counters were recorded under, so ``per_shard_scans`` has exactly
    that many labels and ``prune_rate`` relates scans and prunes of the
    same denominator.  :meth:`ShardedSNTIndex.shard_stats` merges the
    per-epoch snapshots into lifetime totals (labels remapped to the
    current topology); :meth:`ShardedSNTIndex.shard_stats_history`
    returns the raw frozen segments.
    """

    #: Retrieval/count dispatches routed (one per sub-query scan).
    n_dispatches: int
    #: Sum over dispatches of shards actually scanned.
    n_shard_scans: int
    #: Shards skipped by interval pruning, summed over dispatches.
    n_shards_pruned: int
    #: Scans per shard label, in shard order (staging last).
    per_shard_scans: Dict[str, int]
    #: Shard count of the topology these counters were recorded under.
    n_shards: int = 0

    @property
    def prune_rate(self) -> float:
        total = self.n_shard_scans + self.n_shards_pruned
        return self.n_shards_pruned / total if total else 0.0


class _ShardedTodStore:
    """Global-partition view over the shards' time-of-day stores.

    Each global partition lives wholly inside one shard, so a lookup
    maps the global id to ``(shard, local id)`` and delegates — the
    shard's histogram *is* the monolithic one for that partition.
    """

    def __init__(self, entries: Sequence[_ShardEntry], offsets: Sequence[int]):
        self._entries = list(entries)
        self._offsets = list(offsets)
        # Read off the index scalar, not the store: touching the store
        # would materialise a lazily loaded shard's histogram dict.
        self.bucket_width_s = entries[0].index.tod_bucket_s

    def _locate(self, partition: int) -> Tuple[SNTIndex, int]:
        position = bisect_right(self._offsets, int(partition)) - 1
        if not 0 <= position < len(self._entries):
            raise IndexError_(f"unknown partition id {partition}")
        return (
            self._entries[position].index,
            int(partition) - self._offsets[position],
        )

    def total(self, edge: int, partition: int = 0) -> int:
        index, local = self._locate(partition)
        return index.tod_store.total(edge, partition=local)

    def count_window(
        self, edge: int, start_tod: int, duration: int, partition: int = 0
    ) -> float:
        index, local = self._locate(partition)
        return index.tod_store.count_window(
            edge, start_tod, duration, partition=local
        )

    def selectivity(
        self, edge: int, start_tod: int, duration: int, partition: int = 0
    ) -> float:
        index, local = self._locate(partition)
        return index.tod_store.selectivity(
            edge, start_tod, duration, partition=local
        )

    def __len__(self) -> int:
        return sum(len(e.index.tod_store) for e in self._entries)

    def size_in_bytes(self) -> int:
        return sum(e.index.tod_store.size_in_bytes() for e in self._entries)


class _ShardedEdgeStats:
    """Estimator statistics of one segment aggregated across shards.

    Implements the :class:`repro.sntindex.reader.EdgeStats` subset of
    ``EdgeTemporalIndex``.  Counts and record totals are integer-exact
    sums, and time bounds are min/max over the shards, so the estimator
    computes the same floats it would over the monolithic forest.
    """

    __slots__ = ("_phis", "kind")

    def __init__(self, phis, kind: str):
        self._phis = phis
        self.kind = kind

    def __len__(self) -> int:
        return sum(len(phi) for phi in self._phis)

    @property
    def supports_fast_count(self) -> bool:
        return self.kind == "css"

    def min_t(self) -> Optional[int]:
        bounds = [phi.min_t() for phi in self._phis]
        bounds = [b for b in bounds if b is not None]
        return min(bounds) if bounds else None

    def max_t(self) -> Optional[int]:
        bounds = [phi.max_t() for phi in self._phis]
        bounds = [b for b in bounds if b is not None]
        return max(bounds) if bounds else None

    def count_fixed(self, lo: int, hi: int) -> int:
        return sum(phi.count_fixed(lo, hi) for phi in self._phis)

    def count_periodic(self, start_tod: int, duration: int) -> int:
        return sum(
            phi.count_periodic(start_tod, duration) for phi in self._phis
        )


# ---------------------------------------------------------------------- #
# Router
# ---------------------------------------------------------------------- #

#: One shard's share of a query's first-segment matches:
#: ``(shard position, row positions, the shard's first-segment columns)``.
_Chunk = Tuple[int, np.ndarray, object]


class ShardRouter:
    """Prunes, fans out, and merges retrieval over the shard set.

    The router owns the ordered shard entries (sealed shards in temporal
    order, staging last — which is also global partition order), the
    per-shard partition-id offsets, and the scan/prune statistics.
    Merging is what keeps the answers bit-identical to the monolithic
    index; see the module docstring for the argument.
    """

    def __init__(self, entries: Sequence[_ShardEntry]):
        if not entries:
            raise ShardError("a sharded index needs at least one shard")
        self.entries: List[_ShardEntry] = list(entries)
        self.offsets: List[int] = []
        cursor = 0
        for entry in self.entries:
            self.offsets.append(cursor)
            cursor += entry.index.n_partitions
        self.n_partitions = cursor
        self._lock = threading.Lock()
        self._n_dispatches = 0
        self._n_pruned = 0

    # -- routing -------------------------------------------------------- #

    def route(self, interval) -> List[int]:
        """Positions of shards whose data can overlap ``interval``.

        Fixed intervals prune on the shards' traversal-time bounds
        (pruned shards would contribute zero rows, so pruning never
        changes answers).  Periodic time-of-day predicates select across
        all days and cannot prune.
        """
        if interval is None or is_periodic(interval):
            return list(range(len(self.entries)))
        lo, hi = interval.start, interval.end  # rows are lo <= t < hi
        return [
            position
            for position, entry in enumerate(self.entries)
            if entry.t_lo < hi and entry.t_hi >= lo
        ]

    def _record_dispatch(self, n_routed: int) -> None:
        with self._lock:
            self._n_dispatches += 1
            self._n_pruned += len(self.entries) - n_routed

    def _record_scan(self, position: int) -> None:
        with self._lock:
            self.entries[position].n_scans += 1

    def _snapshot(self) -> ShardStats:
        """The counters as they stand; the caller holds the lock."""
        return ShardStats(
            n_dispatches=self._n_dispatches,
            n_shard_scans=sum(e.n_scans for e in self.entries),
            n_shards_pruned=self._n_pruned,
            per_shard_scans={e.label: e.n_scans for e in self.entries},
            n_shards=len(self.entries),
        )

    def stats(self) -> ShardStats:
        with self._lock:
            return self._snapshot()

    def drain(self) -> ShardStats:
        """Read-and-zero: the stats since the last drain, atomically.

        Used by :meth:`ShardedSNTIndex._snapshot_stats` to close a
        per-topology accounting segment before the shard set mutates;
        surviving entries carry on from zero so nothing is counted
        twice.
        """
        with self._lock:
            snapshot = self._snapshot()
            self._n_dispatches = 0
            self._n_pruned = 0
            for entry in self.entries:
                entry.n_scans = 0
            return snapshot

    # -- reader surface ------------------------------------------------- #

    def isa_ranges(self, path: Sequence[int]) -> List[Tuple[int, int, int]]:
        ranges: List[Tuple[int, int, int]] = []
        for entry, offset in zip(self.entries, self.offsets):
            for w, st, ed in entry.index.isa_ranges(path):
                ranges.append((w + offset, st, ed))
        return ranges

    def isa_ranges_many(
        self, paths: Sequence[Sequence[int]]
    ) -> List[List[Tuple[int, int, int]]]:
        """Batched :meth:`isa_ranges`: same shard walk, all paths at
        once per shard (bit-identical — see
        :meth:`repro.sntindex.index.SNTIndex.isa_ranges_many`)."""
        results: List[List[Tuple[int, int, int]]] = [[] for _ in paths]
        for entry, offset in zip(self.entries, self.offsets):
            for k, ranges in enumerate(entry.index.isa_ranges_many(paths)):
                for w, st, ed in ranges:
                    results[k].append((w + offset, st, ed))
        return results

    def _local_ranges(self, ranges, position: int):
        offset = self.offsets[position]
        count = self.entries[position].index.n_partitions
        return [
            (w - offset, st, ed)
            for w, st, ed in ranges
            if offset <= w < offset + count
        ]

    def get_travel_times(
        self,
        query,
        fallback_tt=None,
        exclude_ids: Sequence[int] = (),
        isa_ranges=None,
    ) -> TravelTimeResult:
        """Procedure 5 scattered over the shards and merged exactly."""
        return self.get_travel_times_many(
            [(query, exclude_ids, isa_ranges)], fallback_tt=fallback_tt
        )[0]

    def get_travel_times_many(
        self,
        items: Sequence[Tuple],
        fallback_tt=None,
    ) -> List[TravelTimeResult]:
        """Procedure 5 for a set of independent sub-queries, shard by
        shard.

        ``items`` are ``(query, exclude_ids, isa_ranges)`` triples — the
        deduplicated demand set of one batch-executor round.  Both scan
        phases walk the shards in the outer loop and the routed queries
        in the inner loop, so each shard's columns are visited
        contiguously for the whole set instead of once per query; every
        per-query decision (global beta cut, the insufficient/fallback
        classification, the ``(t, shard)`` merge) is unchanged, so each
        returned result is exactly what :meth:`get_travel_times` answers
        for that item alone.
        """
        return self._cut_and_probe(
            [query for query, _, _ in items],
            self._first_segment_chunks(items),
            fallback_tt,
        )

    def _first_segment_chunks(
        self, items: Sequence[Tuple]
    ) -> List[List[_Chunk]]:
        """Scan phase 1, shard by shard: per item, the non-empty
        first-segment matches of every routed shard as ``(shard
        position, rows, columns)``, each capped at the query's ``beta``
        (the global cut only ever keeps a prefix of each).  Ascending
        shard order per query — the same order a per-query loop
        produces — so each query's chunk list is its routed prefix
        order.
        """
        routed: List[List[int]] = []
        for query, _, _ in items:
            positions = self.route(query.interval)
            self._record_dispatch(len(positions))
            routed.append(positions)
        by_position: Dict[int, List[int]] = {}
        for item_index, positions in enumerate(routed):
            for position in positions:
                by_position.setdefault(position, []).append(item_index)

        per_shard: List[List[_Chunk]] = [[] for _ in items]
        for position in sorted(by_position):
            entry = self.entries[position]
            shard_items = []
            for item_index in by_position[position]:
                query, exclude_ids, isa_ranges = items[item_index]
                self._record_scan(position)
                local = (
                    self._local_ranges(isa_ranges, position)
                    if isa_ranges is not None
                    else None
                )
                shard_items.append((query, exclude_ids, query.beta, local))
            matches_list = first_segment_matches_many(
                entry.index, shard_items
            )
            for item_index, matches in zip(
                by_position[position], matches_list
            ):
                if matches is None:
                    continue
                selected, columns = matches
                if selected.size:
                    per_shard[item_index].append(
                        (position, selected, columns)
                    )
        return per_shard

    def _cut_and_probe(
        self,
        queries: Sequence,
        per_shard: List[List[_Chunk]],
        fallback_tt,
    ) -> List[TravelTimeResult]:
        """Scan phases 2-3 over each query's per-shard first-segment
        chunks: the global cut and classification, then the per-shard
        probe and the ``(t, shard)`` merge."""
        n_items = len(queries)
        # Phase 2, per query: the global ascending-entry-time beta cut
        # and Procedure 5's classification on the global match count.
        # The merge key is (t, shard order), matching the monolithic
        # column order because each shard is a stable restriction of it.
        empty = np.empty(0, dtype=np.float64)
        results: List[Optional[TravelTimeResult]] = [None] * n_items
        matched_counts = [0] * n_items
        for item_index, query in enumerate(queries):
            chunks = per_shard[item_index]
            sizes = [int(selected.size) for _, selected, _ in chunks]
            total = sum(sizes)
            if query.beta is not None and total > query.beta:
                stamps = np.concatenate(
                    [columns.t[selected] for _, selected, columns in chunks]
                )
                kept = np.argsort(stamps, kind="stable")[: query.beta]
                bounds = np.cumsum([0] + sizes)
                source = np.searchsorted(bounds, kept, side="right") - 1
                keep_counts = np.bincount(source, minlength=len(chunks))
                per_shard[item_index] = [
                    (position, selected[: int(keep_counts[i])], columns)
                    for i, (position, selected, columns) in enumerate(chunks)
                ]
                n_matched = int(query.beta)
            else:
                n_matched = total
            matched_counts[item_index] = n_matched
            results[item_index] = classify_scan(
                query, n_matched, fallback_tt
            )

        # Phase 3, shard by shard: map/probe for the queries still
        # open, merged per query on (entry time, shard).  Each probe
        # entry carries its chunk, so the shard-outer walk stays
        # linear in the total chunk count.
        value_chunks: List[List[np.ndarray]] = [[] for _ in range(n_items)]
        stamp_chunks: List[List[np.ndarray]] = [[] for _ in range(n_items)]
        probes: Dict[int, List[Tuple[int, np.ndarray, object]]] = {}
        for item_index in range(n_items):
            if results[item_index] is not None:
                continue
            for position, selected, columns in per_shard[item_index]:
                if selected.size:
                    probes.setdefault(position, []).append(
                        (item_index, selected, columns)
                    )
        for position in sorted(probes):
            entry = self.entries[position]
            outputs = probe_travel_times_many(
                entry.index,
                [
                    (queries[item_index], selected, columns)
                    for item_index, selected, columns in probes[position]
                ],
            )
            for (item_index, _, _), (values, stamps) in zip(
                probes[position], outputs
            ):
                value_chunks[item_index].append(values)
                stamp_chunks[item_index].append(stamps)

        for item_index in range(n_items):
            if results[item_index] is not None:
                continue
            n_matched = matched_counts[item_index]
            if not value_chunks[item_index]:
                results[item_index] = TravelTimeResult(empty, n_matched)
                continue
            values = np.concatenate(value_chunks[item_index])
            stamps = np.concatenate(stamp_chunks[item_index])
            merged = values[np.argsort(stamps, kind="stable")]
            results[item_index] = TravelTimeResult(merged, n_matched)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def walk_ladder_many(
        self, items: Sequence[Tuple], fallback_tt=None
    ) -> List[List[TravelTimeResult]]:
        """Procedure 1's widen ladder per ``(query, wider, exclude_ids,
        isa_ranges)`` item, one result per rung tried (see
        :func:`repro.sntindex.procedures.monolithic_ladder`, which this
        reproduces exactly).

        Every item's ``query`` is answered at its own width by
        :meth:`get_travel_times_many`.  For the items that fail and have
        wider rungs, the shards are fanned out **once** more, over the
        widest rung's window with no ``beta`` cap; the ladder is
        resolved on the per-shard matches by the same
        :func:`~repro.sntindex.procedures.choose_rung` the monolithic
        index uses, and the chosen rung's per-shard rows go through the
        unchanged global cut, probe and merge.
        """
        firsts = self.get_travel_times_many(
            [(query, exclude, ranges) for query, _, exclude, ranges in items],
            fallback_tt=fallback_tt,
        )
        walks = [[first] for first in firsts]
        # Only the items whose own width came back empty are asked for
        # their wider rungs, and only those that have any climb.
        climbing = [
            (i, rungs)
            for i, item in enumerate(items)
            if firsts[i].is_empty and (rungs := item[1]())
        ]
        if not climbing:
            return walks
        widest_chunks = self._first_segment_chunks(
            [
                (rungs[-1].without_beta(), items[i][2], items[i][3])
                for i, rungs in climbing
            ]
        )
        open_slots: List[int] = []
        open_queries: List = []
        open_chunks: List[List[_Chunk]] = []
        for (i, rungs), chunks in zip(climbing, widest_chunks):
            settled, query, parts = choose_rung(
                rungs,
                [(rows, columns) for _, rows, columns in chunks],
                fallback_tt,
            )
            walks[i].extend(settled)
            if query is not None:
                open_slots.append(i)
                open_queries.append(query)
                open_chunks.append(
                    [
                        (position, part, columns)
                        for (position, _, columns), part in zip(chunks, parts)
                        if part.size
                    ]
                )
        for i, result in zip(
            open_slots,
            self._cut_and_probe(open_queries, open_chunks, fallback_tt),
        ):
            walks[i].append(result)
        return walks

    def count_matches(
        self,
        path: Sequence[int],
        interval,
        user: Optional[int] = None,
        exclude_ids: Sequence[int] = (),
        limit: Optional[int] = None,
    ) -> int:
        routed = self.route(interval)
        self._record_dispatch(len(routed))
        total = 0
        for position in routed:
            # Record per shard as it is scanned: the limit early-return
            # below must not claim scans on shards it never reached.
            self._record_scan(position)
            total += monolithic_count_matches(
                self.entries[position].index,
                path,
                interval,
                user=user,
                exclude_ids=exclude_ids,
                limit=limit,
            )
            if limit is not None and total >= limit:
                # The monolithic counter early-terminates at ``limit``;
                # summing per-shard capped counts can only overshoot it.
                return int(limit)
        return int(total)


# ---------------------------------------------------------------------- #
# The sharded index
# ---------------------------------------------------------------------- #


def _build_shard_task(payload) -> SNTIndex:
    """Worker-process entry: build one shard from its partition groups."""
    (
        grouped,
        alphabet_size,
        t_min,
        t_max,
        kind,
        partition_days,
        tod_bucket_s,
    ) = payload
    return SNTIndex.build_from_groups(
        grouped,
        alphabet_size,
        t_min=t_min,
        t_max=t_max,
        kind=kind,
        partition_days=partition_days,
        tod_bucket_s=tod_bucket_s,
    )


def _build_shards_parallel(tasks, workers: int) -> List[SNTIndex]:
    """Run the shard builds in a process pool, preserving task order.

    On fork platforms the workers read their trajectory groups from the
    forked copy-on-write heap (:func:`repro.forkpool.fork_map`), so only
    an integer position crosses the pipe on the way in and only the
    built shard (mostly numpy payload — cheap to pickle) comes back;
    shipping the trajectory objects through the pool instead costs more
    than the per-shard build savings at small corpus sizes.  Spawn
    platforms fall back to pickling the (picklable) tasks.
    """
    return fork_map(
        _build_shard_task,
        tasks,
        workers,
        pickled_fallback=_build_shard_task,
    )


def _balanced_runs(
    buckets: Sequence[int], weights: Sequence[int], n_runs: int
) -> List[List[int]]:
    """Split buckets into ``n_runs`` contiguous, non-empty runs.

    Greedy walk closing a run whenever the cumulative weight crosses the
    proportional target — or when the remaining buckets are only just
    enough to keep every remaining run non-empty.
    """
    total = sum(weights)
    runs: List[List[int]] = []
    current: List[int] = []
    cumulative = 0
    for i, bucket in enumerate(buckets):
        current.append(bucket)
        cumulative += weights[i]
        remaining_buckets = len(buckets) - i - 1
        remaining_runs = n_runs - len(runs) - 1
        if len(runs) < n_runs - 1 and (
            cumulative * n_runs >= total * (len(runs) + 1)
            or remaining_buckets == remaining_runs
        ):
            runs.append(current)
            current = []
    runs.append(current)
    return runs


class ShardedSNTIndex:
    """Time-sliced SNT-index: K shard indexes behind one reader.

    Implements the same :class:`~repro.sntindex.reader.IndexReader`
    surface as :class:`SNTIndex`, so :class:`repro.core.engine.QueryEngine`
    uses it unchanged — with answers bit-identical to the monolithic
    index over the same corpus and ``partition_days`` (see the module
    docstring for why).
    """

    def __init__(
        self,
        sealed: Sequence[_ShardEntry],
        staging: Optional[_ShardEntry],
        t_min: int,
        t_max: int,
        alphabet_size: int,
        kind: str,
        partition_days: int,
        tod_bucket_s: int,
        staged_trajectories: Optional[List] = None,
        epoch: int = 0,
        build_wall_seconds: Optional[float] = None,
    ):
        if not sealed:
            raise ShardError("a sharded index needs at least one shard")
        for entry in list(sealed) + ([staging] if staging else []):
            if entry.index.alphabet_size != alphabet_size:
                raise ShardError("shards disagree on alphabet_size")
            if entry.index.kind != kind:
                raise ShardError("shards disagree on temporal index kind")
        self._sealed: List[_ShardEntry] = list(sealed)
        self._staging: Optional[_ShardEntry] = staging
        self._staged: List = list(staged_trajectories or [])
        self.t_min = int(t_min)
        self.t_max = int(t_max)
        self.alphabet_size = int(alphabet_size)
        self.kind = kind
        self.partition_days = int(partition_days)
        self.tod_bucket_s = int(tod_bucket_s)
        self.epoch = int(epoch)
        #: Distinguishes *which* mutation produced the current epoch.
        #: Epochs are per-object ordinal counters, so two processes that
        #: independently append different tails to copies of one saved
        #: index both land on the same epoch number; the token makes the
        #: (epoch, content) pair unique so a shared cache tier never
        #: conflates their entries.  Empty for unmutated (disk) state —
        #: that state is shared content, so sharing its entries is safe.
        self.epoch_token = ""
        self._build_wall_seconds = build_wall_seconds
        # Per-topology stats accounting (see shard_stats): closed
        # segments land in _stats_history (one frozen ShardStats per
        # topology the router lived under), their per-label sums in the
        # _stats_base_* accumulators keyed by *current* labels.
        self._stats_history: List[ShardStats] = []
        self._stats_base_scans: Dict[str, int] = {}
        self._stats_base_dispatches = 0
        self._stats_base_pruned = 0
        self._rebuild_router()

    # -- construction --------------------------------------------------- #

    @classmethod
    def build(
        cls,
        trajectories,
        alphabet_size: int,
        n_shards: int = 2,
        partition_days: Optional[int] = 7,
        kind: str = "css",
        tod_bucket_s: int = 600,
        build_workers: int = 1,
    ) -> "ShardedSNTIndex":
        """Build K time-sliced shards, optionally in worker processes.

        Parameters mirror :meth:`SNTIndex.build` plus:

        n_shards:
            Contiguous time slices to build; clamped to the number of
            occupied temporal partitions (a shard cannot split one
            FM-index partition without changing estimator inputs).
        build_workers:
            Worker processes for the shard builds.  ``1`` builds inline;
            suffix-array construction dominates build time and shards
            are independent, so the build scales with real cores.
        """
        if partition_days is None:
            raise ShardError(
                "sharding needs temporal partitioning: a single-FM FULL "
                "index has no partition boundaries to slice on — pass "
                "partition_days"
            )
        if partition_days < 1:
            raise ShardError("partition_days must be >= 1")
        if n_shards < 1:
            raise ShardError("n_shards must be >= 1")
        if build_workers < 1:
            raise ShardError("build_workers must be >= 1")
        if len(trajectories) == 0:
            raise IndexError_("cannot build an index from zero trajectories")
        started = time.perf_counter()

        t_min, t_max = trajectories.time_span()
        window = partition_days * SECONDS_PER_DAY
        groups = assign_time_windows(trajectories, t_min, window)
        buckets = sorted(groups)
        n_shards = min(n_shards, len(buckets))
        weights = [
            sum(len(trajectory) for trajectory in groups[bucket])
            for bucket in buckets
        ]
        runs = _balanced_runs(buckets, weights, n_shards)

        tasks = []
        for run in runs:
            grouped = [
                (*window_bounds(bucket, t_min, window), groups[bucket])
                for bucket in run
            ]
            tasks.append(
                (
                    grouped,
                    alphabet_size,
                    t_min,
                    t_max,
                    kind,
                    partition_days,
                    tod_bucket_s,
                )
            )

        if build_workers == 1 or len(tasks) == 1:
            built = [_build_shard_task(task) for task in tasks]
        else:
            built = _build_shards_parallel(tasks, build_workers)

        sealed = [
            _ShardEntry.wrap(index, f"shard_{i:04d}", run[0], run[-1])
            for i, (index, run) in enumerate(zip(built, runs))
        ]
        return cls(
            sealed=sealed,
            staging=None,
            t_min=t_min,
            t_max=t_max,
            alphabet_size=alphabet_size,
            kind=kind,
            partition_days=partition_days,
            tod_bucket_s=tod_bucket_s,
            build_wall_seconds=time.perf_counter() - started,
        )

    # -- internal views -------------------------------------------------- #

    def _entries(self) -> List[_ShardEntry]:
        entries = list(self._sealed)
        if self._staging is not None:
            entries.append(self._staging)
        return entries

    def _rebuild_router(self) -> None:
        # The fresh router starts all counters at zero: every mutation
        # calls _snapshot_stats() first, which drains the outgoing
        # topology's counters into the per-epoch history.  (The old
        # carry-the-counters-across approach left shard_stats()
        # internally inconsistent after appends: dispatch/prune totals
        # recorded against N shards mixed with scan rows of N+1.)
        self._router = ShardRouter(self._entries())
        self._tod_view = _ShardedTodStore(
            self._router.entries, self._router.offsets
        )
        # Per-edge aggregate views are immutable between mutations, and
        # edge_index() sits on the estimator hot path (once per segment
        # per sub-query) — memoize them for the life of this router.
        # A benign construction race under threads just builds the same
        # view twice.
        self._edge_views: Dict[int, Optional[_ShardedEdgeStats]] = {}
        self._user_space = max(
            entry.index.users.size for entry in self._router.entries
        )

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def n_shards(self) -> int:
        return len(self._router.entries)

    @property
    def shards(self) -> List[SNTIndex]:
        """The shard indexes in temporal order (staging last)."""
        return [entry.index for entry in self._router.entries]

    @property
    def has_staging(self) -> bool:
        return self._staging is not None

    def shard_stats(self) -> ShardStats:
        """Lifetime scan/prune statistics across every topology epoch.

        The merge of the frozen per-epoch segments
        (:meth:`shard_stats_history`) and the live segment: totals are
        sums, and per-shard scans from earlier topologies are carried
        under the label their shard has *now* (a shard sealed from
        staging, or merged away by compaction, contributes its history
        to its successor).  ``per_shard_scans`` therefore always lists
        exactly the current shards, in shard order (staging last), and
        ``n_shards`` is the current shard count — internally consistent
        no matter how many appends, seals, or compactions happened.
        """
        current = self._router.stats()
        per_shard = {
            label: self._stats_base_scans.get(label, 0) + n
            for label, n in current.per_shard_scans.items()
        }
        return ShardStats(
            n_dispatches=self._stats_base_dispatches + current.n_dispatches,
            n_shard_scans=sum(per_shard.values()),
            n_shards_pruned=self._stats_base_pruned
            + current.n_shards_pruned,
            per_shard_scans=per_shard,
            n_shards=current.n_shards,
        )

    def shard_stats_history(self) -> List[ShardStats]:
        """The closed per-topology accounting segments, oldest first.

        One frozen :class:`ShardStats` per topology epoch the router
        has lived under (each closed by the mutation — append, seal,
        compact — that changed the shard set).  Labels of shards that
        were since renamed or merged away are rewritten to their
        successors (:meth:`_remap_stats`), so every label here resolves
        in the current topology.  The live segment is :meth:`router`'s
        ``stats()``; :meth:`shard_stats` merges all of them.
        """
        return list(self._stats_history)

    def _snapshot_stats(self) -> None:
        """Close the current accounting segment before a mutation.

        Drains the router's counters (read-and-zero, so surviving
        entries restart from zero) into the frozen history and the
        per-label base sums.  Callers mutate the shard set afterwards
        and apply :meth:`_remap_stats` for any labels that moved.
        """
        segment = self._router.drain()
        if not (
            segment.n_dispatches
            or segment.n_shard_scans
            or segment.n_shards_pruned
        ):
            return  # nothing routed under this topology; no segment
        self._stats_history.append(segment)
        self._stats_base_dispatches += segment.n_dispatches
        self._stats_base_pruned += segment.n_shards_pruned
        for label, n in segment.per_shard_scans.items():
            self._stats_base_scans[label] = (
                self._stats_base_scans.get(label, 0) + n
            )

    def _remap_stats(self, remap: Dict[str, str]) -> None:
        """Re-key accumulated per-shard history after labels move.

        ``remap`` maps old label → successor label (seal: ``staging`` →
        its sealed name; compaction: every pre-compaction label → the
        merged/renumbered shard it now lives in).  Applied to the base
        sums *and* every stored history segment, so no accessor ever
        reports a label the current topology does not have.
        """
        if not remap:
            return
        base: Dict[str, int] = {}
        for label, n in self._stats_base_scans.items():
            target = remap.get(label, label)
            base[target] = base.get(target, 0) + n
        self._stats_base_scans = base
        rewritten: List[ShardStats] = []
        for segment in self._stats_history:
            per_shard: Dict[str, int] = {}
            for label, n in segment.per_shard_scans.items():
                target = remap.get(label, label)
                per_shard[target] = per_shard.get(target, 0) + n
            rewritten.append(replace(segment, per_shard_scans=per_shard))
        self._stats_history = rewritten

    # -- IndexReader: scalars ------------------------------------------- #

    @property
    def n_partitions(self) -> int:
        return self._router.n_partitions

    @property
    def build_stats(self) -> BuildStats:
        """Aggregate of the shards' build stats (CLI summaries).

        ``setup_seconds`` is the wall-clock time of the whole (possibly
        parallel) build when this instance ran it; for a loaded index
        the slowest shard's build time stands in — summing the per-shard
        worker times would over-report a parallel build by its width.
        """
        shard_stats = [e.index.build_stats for e in self._router.entries]
        wall = self._build_wall_seconds
        if wall is None:
            wall = max(s.setup_seconds for s in shard_stats)
        return BuildStats(
            setup_seconds=wall,
            n_partitions=self.n_partitions,
            n_trajectories=sum(s.n_trajectories for s in shard_stats),
            n_traversals=sum(s.n_traversals for s in shard_stats),
        )

    @property
    def tod_store(self) -> _ShardedTodStore:
        return self._tod_view

    # -- IndexReader: spatial ------------------------------------------- #

    def isa_ranges(self, path: Sequence[int]) -> List[Tuple[int, int, int]]:
        return self._router.isa_ranges(path)

    def isa_ranges_many(
        self, paths: Sequence[Sequence[int]]
    ) -> List[List[Tuple[int, int, int]]]:
        return self._router.isa_ranges_many(paths)

    def path_traversal_count(self, path: Sequence[int]) -> int:
        return sum(ed - st for _, st, ed in self.isa_ranges(path))

    def contains_path(self, path: Sequence[int]) -> bool:
        return bool(self.isa_ranges(path))

    # -- IndexReader: temporal ------------------------------------------ #

    def edge_index(self, edge: int) -> Optional[_ShardedEdgeStats]:
        edge = int(edge)
        try:
            return self._edge_views[edge]
        except KeyError:
            pass
        phis = [
            phi
            for entry in self._router.entries
            if (phi := entry.index.edge_index(edge)) is not None
        ]
        view = _ShardedEdgeStats(phis, self.kind) if phis else None
        self._edge_views[edge] = view
        return view

    # -- IndexReader: users --------------------------------------------- #

    def user_of(self, traj_id: int) -> int:
        if not 0 <= traj_id < self._user_space:
            raise UnknownTrajectoryError(traj_id)
        for entry in self._router.entries:
            users = entry.index.users
            if traj_id < users.size and users[traj_id] >= 0:
                return int(users[traj_id])
        raise MissingUserError(traj_id)

    def has_trajectory(self, traj_id: int) -> bool:
        return any(
            entry.index.has_trajectory(traj_id)
            for entry in self._router.entries
        )

    # -- IndexReader: retrieval ----------------------------------------- #

    def get_travel_times(
        self,
        query,
        fallback_tt=None,
        exclude_ids: Sequence[int] = (),
        isa_ranges=None,
    ) -> TravelTimeResult:
        return self._router.get_travel_times(
            query,
            fallback_tt=fallback_tt,
            exclude_ids=exclude_ids,
            isa_ranges=isa_ranges,
        )

    def get_travel_times_many(
        self,
        items: Sequence[Tuple],
        fallback_tt=None,
    ) -> List[TravelTimeResult]:
        """Procedure 5 for a deduplicated demand set, with the per-shard
        scans grouped so each shard is walked contiguously (see
        :meth:`ShardRouter.get_travel_times_many`)."""
        return self._router.get_travel_times_many(
            items, fallback_tt=fallback_tt
        )

    def walk_ladder_many(
        self, items: Sequence[Tuple], fallback_tt=None
    ) -> List[List[TravelTimeResult]]:
        """One widen-ladder walk per item, each extra rung costing no
        extra shard fan-out (see :meth:`ShardRouter.walk_ladder_many`)."""
        return self._router.walk_ladder_many(items, fallback_tt=fallback_tt)

    def count_matches(
        self,
        path: Sequence[int],
        interval,
        user: Optional[int] = None,
        exclude_ids: Sequence[int] = (),
        limit: Optional[int] = None,
    ) -> int:
        return self._router.count_matches(
            path,
            interval,
            user=user,
            exclude_ids=exclude_ids,
            limit=limit,
        )

    # -- append / staging ----------------------------------------------- #

    def append(self, trajectories) -> int:
        """Index new trajectories through the staging shard.

        Only the staging shard (the accumulated appended tail) is
        rebuilt; sealed shards are untouched.  Every appended trajectory
        must start in a time window strictly after all sealed shards —
        the contract that keeps post-append answers bit-identical to a
        from-scratch monolithic build over the combined corpus.  Bumps
        :attr:`epoch` so shared sub-query caches drop stale entries.

        Returns the number of trajectories appended.  Raises
        :class:`ShardError` on id collisions or out-of-order appends
        (the index is left unchanged).
        """
        batch = list(trajectories)
        if not batch:
            return 0
        seen_ids = set()
        for trajectory in batch:
            if trajectory.traj_id in seen_ids:
                raise ShardError(
                    f"duplicate trajectory id {trajectory.traj_id} in "
                    "append batch"
                )
            seen_ids.add(trajectory.traj_id)
            if self.has_trajectory(trajectory.traj_id):
                raise ShardError(
                    f"trajectory id {trajectory.traj_id} is already indexed"
                )
        window = self.partition_days * SECONDS_PER_DAY
        sealed_max = max(entry.bucket_hi for entry in self._sealed)
        batch_groups = assign_time_windows(batch, self.t_min, window)
        for bucket in sorted(batch_groups):
            if bucket <= sealed_max:
                offender = batch_groups[bucket][0]
                raise ShardError(
                    f"append only accepts trajectories starting after the "
                    f"sealed shards (time window {sealed_max} at "
                    f"{self.partition_days} day(s) per window); trajectory "
                    f"{offender.traj_id} starts in window {bucket}. "
                    "Rebuild the index to backfill history."
                )

        staged = self._staged + batch
        groups = assign_time_windows(staged, self.t_min, window)
        grouped = [
            (*window_bounds(bucket, self.t_min, window), groups[bucket])
            for bucket in sorted(groups)
        ]
        # The corpus-span definition lives in TrajectorySet.time_span;
        # a from-scratch monolithic rebuild over the combined corpus
        # computes t_max through it, so the append must too.
        _, staged_end = TrajectorySet(staged).time_span()
        new_t_max = max(self.t_max, staged_end)
        staging_index = SNTIndex.build_from_groups(
            grouped,
            self.alphabet_size,
            t_min=self.t_min,
            t_max=new_t_max,
            kind=self.kind,
            partition_days=self.partition_days,
            tod_bucket_s=self.tod_bucket_s,
        )
        # Close the outgoing topology's accounting segment first; the
        # new staging entry keeps the "staging" label, so no remap.
        self._snapshot_stats()
        self._staging = _ShardEntry.wrap(
            staging_index, "staging", min(groups), max(groups)
        )
        self._staged = staged
        self.t_max = new_t_max
        self.epoch += 1
        self.epoch_token = uuid.uuid4().hex
        self._rebuild_router()
        return len(batch)

    def seal_staging(self) -> None:
        """Promote the staging shard to a sealed shard.

        Pure bookkeeping: the indexed content (and therefore every
        answer) is unchanged, so the epoch does not move and caches stay
        valid.  Subsequent appends must start after the newly sealed
        window.
        """
        if self._staging is None:
            return
        self._snapshot_stats()
        entry = self._staging
        label = f"shard_{len(self._sealed):04d}"
        entry.label = label
        self._sealed.append(entry)
        self._staging = None
        self._staged = []
        # The shard formerly known as "staging" keeps its scan history
        # under its sealed name.
        self._remap_stats({"staging": label})
        self._rebuild_router()

    # -- compaction ------------------------------------------------------ #

    def compact(self, policy=None) -> "CompactionReport":
        """Merge runs of small adjacent sealed shards in place.

        Repeated append/seal cycles accrete many small shards; every
        unprunable dispatch then fans out across all of them.  This
        merges each eligible run (:class:`repro.sntindex.compaction.
        CompactionPolicy` decides which — by default every adjacent
        pair or longer of sealed shards) into one shard by
        concatenating the aligned temporal partitions — the exact
        inverse of the sharded build's split, so answers stay
        bit-identical (see :func:`repro.sntindex.compaction.
        merge_shard_indexes` for the argument).  Sealed shards are
        renumbered densely afterwards; the staging shard is untouched.

        A compaction that merges anything bumps :attr:`epoch` and
        mints a fresh :attr:`epoch_token` even though answers are
        unchanged: shard-granular state (per-shard scan attribution,
        mmap'd payload identity) *did* change, and the bump guarantees
        the PR-4 shared cache tier never serves entries recorded
        against the pre-compaction layout.  A no-op compaction (no
        eligible runs) changes nothing and keeps caches warm.

        Returns a :class:`repro.sntindex.compaction.CompactionReport`.
        """
        # Local import: compaction.py imports SNTIndex machinery and is
        # imported by the CLI; importing it lazily here keeps the
        # sharded module free of the cycle.
        from .compaction import (
            CompactionPolicy,
            CompactionReport,
            merge_shard_indexes,
            plan_compaction,
        )

        if policy is None:
            policy = CompactionPolicy()
        sizes = [
            entry.index.build_stats.n_traversals for entry in self._sealed
        ]
        groups = plan_compaction(sizes, policy)
        n_before = len(self._sealed)
        if not groups:
            return CompactionReport(
                n_sealed_before=n_before,
                n_sealed_after=n_before,
                merged_groups=[],
                epoch=self.epoch,
            )
        self._snapshot_stats()
        group_by_start = {group[0]: group for group in groups}
        grouped_members = {position for group in groups for position in group}
        new_sealed: List[_ShardEntry] = []
        remap: Dict[str, str] = {}
        merged_groups: List[List[str]] = []
        position = 0
        while position < n_before:
            group = group_by_start.get(position)
            label = f"shard_{len(new_sealed):04d}"
            if group is not None:
                members = [self._sealed[i] for i in group]
                merged = merge_shard_indexes(
                    [member.index for member in members]
                )
                entry = _ShardEntry.wrap(
                    merged,
                    label,
                    members[0].bucket_lo,
                    members[-1].bucket_hi,
                )
                for member in members:
                    remap[member.label] = label
                merged_groups.append([member.label for member in members])
                position = group[-1] + 1
            else:
                assert position not in grouped_members
                entry = self._sealed[position]
                remap[entry.label] = label
                entry.label = label
                position += 1
            new_sealed.append(entry)
        self._sealed = new_sealed
        self._remap_stats(remap)
        self.epoch += 1
        self.epoch_token = uuid.uuid4().hex
        self._rebuild_router()
        return CompactionReport(
            n_sealed_before=n_before,
            n_sealed_after=len(new_sealed),
            merged_groups=merged_groups,
            epoch=self.epoch,
        )

    # -- sizes ----------------------------------------------------------- #

    def component_sizes(self) -> Dict[str, int]:
        """Component sizes summed over the shards, in bytes."""
        totals: Dict[str, int] = {}
        for entry in self._router.entries:
            for name, size in entry.index.component_sizes().items():
                totals[name] = totals.get(name, 0) + size
        return totals

    # -- persistence ----------------------------------------------------- #

    def save(self, path: StoreLike, extra: Optional[dict] = None) -> Path:
        """Write the sharded manifest directory; see
        :func:`save_sharded_index`."""
        return save_sharded_index(self, path, extra=extra)

    @classmethod
    def load(
        cls,
        path: StoreLike,
        expected_alphabet_size: Optional[int] = None,
        expected_kind: Optional[str] = None,
    ) -> "ShardedSNTIndex":
        """Load a sharded manifest directory; see
        :func:`load_sharded_index`."""
        return load_sharded_index(
            path,
            expected_alphabet_size=expected_alphabet_size,
            expected_kind=expected_kind,
        )


# ---------------------------------------------------------------------- #
# Persistence: manifest directory of PR-1 index dirs
# ---------------------------------------------------------------------- #


def _entry_manifest(entry: _ShardEntry, directory: str) -> dict:
    return {
        "dir": directory,
        "label": entry.label,
        "bucket_lo": entry.bucket_lo,
        "bucket_hi": entry.bucket_hi,
        "t_lo": entry.t_lo,
        "t_hi": entry.t_hi,
        "n_partitions": entry.index.n_partitions,
    }


def save_sharded_index(
    index: ShardedSNTIndex,
    path: StoreLike,
    extra: Optional[dict] = None,
) -> Path:
    """Write ``index`` as ``manifest.json`` + one PR-1 index dir per shard.

    ``path`` is a directory, store URI, or store.  Layout::

        manifest.json            format tag, scalars, shard table, epoch
        shard_0000/ ...          save_index() directories, one per shard
        staging/                 the staging shard (when present)
        staging_trajectories.pkl staged tail, so appends survive restarts

    The whole tree is staged and installed atomically by the store —
    sibling-tempdir swap for a local directory, manifest-last upload
    ordering for an object store — like the monolithic format.
    """

    def writer(target: Path) -> None:
        # ``target`` is already the outer atomic-install staging dir, so
        # the shard subdirectories are written directly — running
        # save_index's own temp-dir/swap dance per shard inside it
        # would be K extra rename pairs protecting nothing.
        shard_dirs = []
        for i, entry in enumerate(index._sealed):
            directory = f"shard_{i:04d}"
            write_index_payload(entry.index, target / directory)
            shard_dirs.append(_entry_manifest(entry, directory))
        staging_manifest = None
        if index._staging is not None:
            write_index_payload(index._staging.index, target / STAGING_DIR)
            staging_manifest = _entry_manifest(index._staging, STAGING_DIR)
            with open(target / STAGED_TRAJECTORIES_FILE, "wb") as handle:
                pickle.dump(
                    index._staged, handle, protocol=pickle.HIGHEST_PROTOCOL
                )
        manifest = {
            "format": SHARDED_FORMAT_NAME,
            "format_version": SHARDED_FORMAT_VERSION,
            "alphabet_size": index.alphabet_size,
            "kind": index.kind,
            "partition_days": index.partition_days,
            "t_min": index.t_min,
            "t_max": index.t_max,
            "tod_bucket_s": index.tod_bucket_s,
            "epoch": index.epoch,
            # Which mutation produced this epoch (see __init__): without
            # it, two saves of differently-appended copies of one base
            # index would reload indistinguishable at the same epoch and
            # collide in a shared cache tier.
            "epoch_token": index.epoch_token,
            "shards": shard_dirs,
            "staging": staging_manifest,
            "extra": dict(extra or {}),
        }
        with open(target / MANIFEST_FILE, "w") as handle:
            json.dump(manifest, handle, indent=2)

    return as_store(path).install(
        "",
        marker_file=MANIFEST_FILE,
        writer=writer,
        what="saved sharded SNT-index",
    )


def read_sharded_meta(path: StoreLike) -> dict:
    """Read and format-check ``manifest.json`` of a sharded index dir."""
    store = as_store(path)
    source = store.uri
    if not store.exists(MANIFEST_FILE):
        raise PersistenceError(
            f"{source} is not a saved sharded SNT-index "
            f"({MANIFEST_FILE} missing)"
        )
    try:
        manifest = json.loads(store.get(MANIFEST_FILE))
    except (PersistenceError, OSError, json.JSONDecodeError) as error:
        raise PersistenceError(
            f"corrupt {MANIFEST_FILE}: {error}"
        ) from error
    if manifest.get("format") != SHARDED_FORMAT_NAME:
        raise PersistenceError(
            f"{source} holds format {manifest.get('format')!r}, expected "
            f"{SHARDED_FORMAT_NAME!r}"
        )
    version = manifest.get("format_version")
    if version != SHARDED_FORMAT_VERSION:
        raise IndexFormatError(
            f"saved sharded index has format version {version!r}; this "
            f"build reads version {SHARDED_FORMAT_VERSION} only — "
            "rebuild the index from source data with `repro index`"
        )
    return manifest


def _entry_from_manifest(store, described: dict, manifest: dict) -> _ShardEntry:
    required = ("dir", "label", "bucket_lo", "bucket_hi", "t_lo", "t_hi",
                "n_partitions")
    missing = [name for name in required if name not in described]
    if missing:
        raise PersistenceError(
            f"{MANIFEST_FILE} shard entry is missing fields {missing}"
        )
    for name in ("bucket_lo", "bucket_hi", "t_lo", "t_hi", "n_partitions"):
        value = described[name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise PersistenceError(
                f"{MANIFEST_FILE} shard entry declares {name} = "
                f"{value!r}; expected an integer"
            )
    source = store.uri
    # Page the shard's objects into a local directory (the identity for
    # a local store) — the meta cross-check and the mmap-based loader
    # below both read the localized copy.
    shard_dir = store.localize(str(described["dir"]))
    # A shard is only valid inside *this* manifest if its own meta
    # agrees on every scalar that shapes the global partition layout —
    # a shard copied in from another build (different partition_days,
    # different corpus t_min, different ToD grain) would load cleanly
    # on its own and then silently break the bit-identical merge.
    shard_meta = read_meta(shard_dir)
    for name in ("partition_days", "t_min", "tod_bucket_s"):
        if shard_meta.get(name) != manifest[name]:
            raise PersistenceError(
                f"shard {described['dir']} in {source} declares "
                f"{name} = {shard_meta.get(name)!r}, but the manifest "
                f"says {manifest[name]!r} — the shard belongs to a "
                "different build (refusing before reading its payload)"
            )
    shard_index = load_index(
        shard_dir,
        expected_alphabet_size=manifest["alphabet_size"],
        expected_kind=manifest["kind"],
    )
    if shard_index.n_partitions != int(described["n_partitions"]):
        raise PersistenceError(
            f"shard {described['dir']} in {source} holds "
            f"{shard_index.n_partitions} partition(s), but the manifest "
            f"recorded {described['n_partitions']} — the shard payload "
            "does not match this manifest"
        )
    return _ShardEntry(
        index=shard_index,
        label=str(described["label"]),
        bucket_lo=int(described["bucket_lo"]),
        bucket_hi=int(described["bucket_hi"]),
        t_lo=int(described["t_lo"]),
        t_hi=int(described["t_hi"]),
    )


def load_sharded_index(
    path: StoreLike,
    expected_alphabet_size: Optional[int] = None,
    expected_kind: Optional[str] = None,
) -> ShardedSNTIndex:
    """Load a tree written by :func:`save_sharded_index` from ``path``
    — a directory, store URI, or store.

    The manifest scalars are validated (including the optional
    ``expected_*`` cross-checks) before any shard payload is read, and
    each shard load re-checks its own meta against the manifest — so a
    directory mixing shards of different worlds is rejected.

    .. warning::
        Shard payloads are pickle-free, but a staged tail
        (``staging_trajectories.pkl``) is a pickle: only load
        directories (or remote stores) with a staging shard if you wrote
        them yourself.
    """
    store = as_store(path)
    source = store.uri
    manifest = read_sharded_meta(store)
    required = (
        "alphabet_size", "kind", "partition_days", "t_min", "t_max",
        "tod_bucket_s", "epoch", "shards",
    )
    missing = [name for name in required if name not in manifest]
    if missing:
        raise PersistenceError(
            f"{MANIFEST_FILE} is missing fields {missing}"
        )
    validate_identity(
        manifest,
        source,
        expected_alphabet_size=expected_alphabet_size,
        expected_kind=expected_kind,
    )
    kind = manifest["kind"]
    alphabet = manifest["alphabet_size"]
    # A sharded index always has temporal partitioning, and every
    # scalar below is fed to int() after the shard payloads load — so
    # prove them sane first, like the monolithic validate_meta does.
    scalar_checks = {
        "partition_days": lambda v: isinstance(v, int)
        and not isinstance(v, bool) and v >= 1,
        "t_min": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "t_max": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "tod_bucket_s": lambda v: isinstance(v, int)
        and not isinstance(v, bool) and v >= 1,
        "epoch": lambda v: isinstance(v, int)
        and not isinstance(v, bool) and v >= 0,
    }
    for name, check in scalar_checks.items():
        if not check(manifest[name]):
            raise PersistenceError(
                f"{source} declares {name} = {manifest[name]!r}; "
                "refusing before reading any shard payload"
            )
    if not manifest["shards"]:
        raise PersistenceError(f"{MANIFEST_FILE} lists no shards")

    sealed = [
        _entry_from_manifest(store, described, manifest)
        for described in manifest["shards"]
    ]
    staging = None
    staged: List = []
    if manifest.get("staging") is not None:
        staging = _entry_from_manifest(store, manifest["staging"], manifest)
        if not store.exists(STAGED_TRAJECTORIES_FILE):
            raise PersistenceError(
                f"{source} has a staging shard but no "
                f"{STAGED_TRAJECTORIES_FILE}"
            )
        try:
            staged = list(pickle.loads(store.get(STAGED_TRAJECTORIES_FILE)))
        except (OSError, EOFError, pickle.PickleError) as error:
            raise PersistenceError(
                f"failed to read staged trajectories from {source}: "
                f"{error}"
            ) from error
    index = ShardedSNTIndex(
        sealed=sealed,
        staging=staging,
        t_min=int(manifest["t_min"]),
        t_max=int(manifest["t_max"]),
        alphabet_size=int(alphabet),
        kind=kind,
        partition_days=int(manifest["partition_days"]),
        tod_bucket_s=int(manifest["tod_bucket_s"]),
        staged_trajectories=staged,
        epoch=int(manifest["epoch"]),
    )
    # Restore the mutation lineage (pre-PR-4 manifests lack the field;
    # "" marks unmutated state, matching a fresh build).
    index.epoch_token = str(manifest.get("epoch_token", ""))
    # Where this index is reachable on *this machine* — lets serving
    # layers place per-index artifacts (e.g. the shared cache tier)
    # alongside it; a remote store's local page-in cache root for a
    # remote index.
    index.source_path = store.local_anchor()
    return index


# ---------------------------------------------------------------------- #
# Layout detection (CLI / service cold start)
# ---------------------------------------------------------------------- #


def read_any_meta(path: StoreLike) -> Tuple[str, dict]:
    """Detect the stored layout and read its manifest.

    Returns ``("sharded", manifest)`` or ``("monolithic", meta)``.
    ``path`` is a directory, store URI, or store.
    """
    store = as_store(path)
    if store.exists(MANIFEST_FILE):
        return "sharded", read_sharded_meta(store)
    if store.exists(META_FILE):
        return "monolithic", read_meta(store)
    raise PersistenceError(
        f"{store.uri} is neither a saved SNT-index ({META_FILE}) nor a "
        f"sharded index ({MANIFEST_FILE})"
    )


def load_any_index(
    path: StoreLike,
    expected_alphabet_size: Optional[int] = None,
    expected_kind: Optional[str] = None,
) -> Union[SNTIndex, ShardedSNTIndex]:
    """Load a monolithic or sharded index, whichever ``path`` holds."""
    store = as_store(path)
    layout, _ = read_any_meta(store)
    if layout == "sharded":
        return load_sharded_index(
            store,
            expected_alphabet_size=expected_alphabet_size,
            expected_kind=expected_kind,
        )
    return load_index(
        store,
        expected_alphabet_size=expected_alphabet_size,
        expected_kind=expected_kind,
    )
