"""Time-sliced sharding of the SNT-index (ROADMAP scale-out items).

The paper's index is already temporally partitioned — one FM-index per
time window of trajectory *start* times (Section 4.3.2) — which makes
time-range sharding the natural scale-out axis: a **shard** is a
contiguous run of those temporal partitions, built as a self-contained
:class:`SNTIndex` (so shards build independently and persist with
the unchanged PR-1 directory format).
:class:`ShardedSNTIndex` answers the
:class:`~repro.sntindex.reader.IndexReader` protocol over the shard set
itself: it prunes shards by interval and scans the survivors, one query
at a time.  The rest of Procedure 5 and the widen-ladder walk are not
its own: :func:`~repro.sntindex.procedures.cut_and_probe` and
:func:`~repro.sntindex.procedures.walk_ladder` run over the per-shard
chunks of its scan exactly as over the single chunk of a monolithic
index.

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
  entry-time ``beta`` cut, which ``cut_and_probe`` applies globally
  across the per-shard (already capped) prefixes.
* **Additive statistics** — ISA range widths, CSS range counts, and
  time-of-day histograms are integer-exact per partition, so the
  estimator views (:class:`_ShardedEdgeStats`, :class:`_ShardedTodStore`)
  reproduce the monolithic estimates bit-for-bit.

Appendable staging shard
------------------------
``append(trajectories)`` accumulates new trajectories in a small
*staging* shard that is rebuilt on each call — cheap, because only the
staged tail is rebuilt, from the trajectories its own rows hold
(:meth:`SNTIndex.trajectories`) and the batch; the sealed shards are
untouched.  Appends must be strictly newer than every sealed shard's
time window: that keeps the global partition enumeration identical to
what a from-scratch monolithic build over the combined corpus would
produce, preserving bit-identical answers *after* appends too.  Each
append bumps :attr:`epoch`, which :class:`repro.service.SubQueryCache`
watches to drop entries cached against earlier index states.
``seal_staging()`` promotes a grown staging shard to a sealed one (pure
bookkeeping — no epoch bump, since no indexed content changes).

Saved layout
------------
A saved sharded index is ``manifest.json`` plus one monolithic index
directory per shard, and each fact is stored once.  The manifest keeps
the scalars, the epoch and, per shard, only ``{dir, bucket_lo,
bucket_hi}``; a shard's partitions are read from the shard's own
``meta.json``, and its traversal-time bounds (the router's pruning
bounds) are worked out from the shard's forest.
A shard's name is its position — ``shard_0000``, ... for sealed shards,
``staging`` after them — and is also its directory.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import SECONDS_PER_DAY
from ..core.intervals import is_periodic
from ..errors import (
    IndexError_,
    MissingUserError,
    PersistenceError,
    ShardError,
    UnknownTrajectoryError,
    is_count,
)
from ..trajectories.model import TrajectorySet
from .index import BuildStats, SNTIndex, assign_time_windows, window_bounds
from .persistence import (
    META_FILE,
    TOD_BUCKET_BOUNDS,
    IndexDir,
    atomic_install_dir,
    check_integers,
    load_index,
    read_manifest,
    read_meta,
    validate_identity,
    write_index_payload,
)
from . import procedures
from .procedures import Chunk, TravelTimeResult

__all__ = [
    "ShardedSNTIndex",
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


# ---------------------------------------------------------------------- #
# Shard bookkeeping
# ---------------------------------------------------------------------- #


@dataclass
class _ShardEntry:
    """One shard plus the metadata the index routes on."""

    index: SNTIndex
    #: Occupied global temporal-bucket range (inclusive) of the shard's
    #: trajectories; appends must land strictly after every sealed
    #: shard's ``bucket_hi``.
    bucket_lo: int
    bucket_hi: int
    #: Actual traversal-timestamp bounds (inclusive) across the shard's
    #: segments — pruning bounds, wider than the bucket window because a
    #: trajectory's traversals extend past its start bucket.  Read off
    #: the shard itself, never off a manifest.
    t_lo: int
    t_hi: int
    #: Lifetime index scans served by this shard.  A topology change
    #: hands the count on to the shard's successor (see
    #: :meth:`ShardedSNTIndex.shard_stats`).
    n_scans: int = 0

    @classmethod
    def wrap(
        cls,
        index: SNTIndex,
        bucket_lo: int,
        bucket_hi: int,
        n_scans: int = 0,
    ) -> "_ShardEntry":
        t_lo, t_hi = index.data_time_bounds()
        return cls(
            index=index,
            bucket_lo=int(bucket_lo),
            bucket_hi=int(bucket_hi),
            t_lo=t_lo,
            t_hi=t_hi,
            n_scans=n_scans,
        )


def _shard_name(position: int, n_sealed: int) -> str:
    """The name of the shard at ``position``: ``shard_{i:04d}`` for the
    sealed shards, ``staging`` for the staging shard after them.  It is
    also the shard's directory in a saved manifest."""
    return f"shard_{position:04d}" if position < n_sealed else STAGING_DIR


@dataclass(frozen=True)
class ShardStats:
    """Lifetime routing statistics of a :class:`ShardedSNTIndex`
    (:meth:`ShardedSNTIndex.shard_stats`)."""

    #: Retrieval/count dispatches routed (one per sub-query scan).
    n_dispatches: int
    #: Sum over dispatches of shards actually scanned.
    n_shard_scans: int
    #: Shards skipped by interval pruning, summed over dispatches.
    n_shards_pruned: int
    #: Scans per shard name, in shard order (staging last).
    per_shard_scans: Dict[str, int]
    #: Current shard count (the names of ``per_shard_scans``).
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
        # would count every shard's histograms from its forest.
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
# The sharded index
# ---------------------------------------------------------------------- #


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

    The index routes every call itself: it prunes the shards a fixed
    interval cannot touch and scans the rest.  Its retrieval methods
    hand that scan (:meth:`_scan_chunks`) to the Procedure 5 and ladder
    walk of :mod:`~repro.sntindex.procedures` that the monolithic index
    runs over its own single chunk.  It implements the same
    :class:`~repro.sntindex.reader.IndexReader`
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
        self.t_min = int(t_min)
        self.t_max = int(t_max)
        self.alphabet_size = int(alphabet_size)
        self.kind = kind
        self.partition_days = int(partition_days)
        self.tod_bucket_s = int(tod_bucket_s)
        self.epoch = int(epoch)
        self._build_wall_seconds = build_wall_seconds
        # Lifetime shard stats (see shard_stats); per-shard scans live
        # on the entries.  Served rounds run on several threads, so
        # every counter update takes the lock.
        self._stats_lock = threading.Lock()
        self._n_dispatches = 0
        self._n_pruned = 0
        self._adopt_entries()

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
    ) -> "ShardedSNTIndex":
        """Build K time-sliced shards.

        Parameters mirror :meth:`SNTIndex.build` plus:

        n_shards:
            Contiguous time slices to build; clamped to the number of
            occupied temporal partitions (a shard cannot split one
            FM-index partition without changing estimator inputs).
        """
        if partition_days is None:
            raise ShardError(
                "sharding needs temporal partitioning: a single-FM FULL "
                "index has no partition boundaries to slice on — pass "
                "partition_days"
            )
        if not is_count(partition_days):
            raise ShardError(
                "partition_days must be a positive integer, got "
                f"{partition_days!r}"
            )
        if not is_count(n_shards):
            raise ShardError(
                f"n_shards must be a positive integer, got {n_shards!r}"
            )
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

        built = [
            SNTIndex.build_from_groups(
                [
                    (*window_bounds(bucket, t_min, window), groups[bucket])
                    for bucket in run
                ],
                alphabet_size,
                t_min=t_min,
                t_max=t_max,
                kind=kind,
                partition_days=partition_days,
                tod_bucket_s=tod_bucket_s,
            )
            for run in runs
        ]
        sealed = [
            _ShardEntry.wrap(index, run[0], run[-1])
            for index, run in zip(built, runs)
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

    def _adopt_entries(self) -> None:
        """Rebuild the shard-order views after the shard set changed."""
        #: Sealed shards in temporal order, staging last — which is also
        #: global partition order.
        self.entries: List[_ShardEntry] = self._sealed + (
            [self._staging] if self._staging is not None else []
        )
        #: Global partition id of each shard's local partition 0.
        self._offsets: List[int] = []
        cursor = 0
        for entry in self.entries:
            self._offsets.append(cursor)
            cursor += entry.index.n_partitions
        self.n_partitions = cursor
        self._tod_view = _ShardedTodStore(self.entries, self._offsets)
        # Per-edge aggregate views are immutable between mutations, and
        # edge_index() sits on the estimator hot path (once per segment
        # per sub-query) — memoize them until the next mutation.
        # A benign construction race under threads just builds the same
        # view twice.
        self._edge_views: Dict[int, Optional[_ShardedEdgeStats]] = {}
        self._user_space = max(
            entry.index.users.size for entry in self.entries
        )

    @property
    def n_shards(self) -> int:
        return len(self.entries)

    @property
    def shards(self) -> List[SNTIndex]:
        """The shard indexes in temporal order (staging last)."""
        return [entry.index for entry in self.entries]

    @property
    def has_staging(self) -> bool:
        return self._staging is not None

    def shard_stats(self) -> ShardStats:
        """Lifetime scan/prune statistics.

        The counters survive every topology change because a shard's
        scans follow it to its successor: sealing keeps the entry under
        its new name, an append carries the staging shard's count into
        the rebuilt staging shard, and compaction sums each merged run.
        ``per_shard_scans`` therefore lists exactly the current shards,
        in shard order (staging last), and sums to ``n_shard_scans``.
        """
        with self._stats_lock:
            n_sealed = len(self._sealed)
            per_shard = {
                _shard_name(position, n_sealed): entry.n_scans
                for position, entry in enumerate(self.entries)
            }
            return ShardStats(
                n_dispatches=self._n_dispatches,
                n_shard_scans=sum(per_shard.values()),
                n_shards_pruned=self._n_pruned,
                per_shard_scans=per_shard,
                n_shards=len(self.entries),
            )

    def _record_dispatch(self, n_routed: int) -> None:
        with self._stats_lock:
            self._n_dispatches += 1
            self._n_pruned += len(self.entries) - n_routed

    def _record_scan(self, position: int) -> None:
        with self._stats_lock:
            self.entries[position].n_scans += 1

    # -- IndexReader: scalars ------------------------------------------- #

    @property
    def build_stats(self) -> BuildStats:
        """Aggregate of the shards' build stats (CLI summaries).

        ``setup_seconds`` is the wall-clock time of the whole build when
        this instance ran it; for a loaded index the shards' build times,
        which ran one after another, are summed.
        """
        shard_stats = [e.index.build_stats for e in self.entries]
        wall = self._build_wall_seconds
        if wall is None:
            wall = sum(s.setup_seconds for s in shard_stats)
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
        ranges: List[Tuple[int, int, int]] = []
        for entry, offset in zip(self.entries, self._offsets):
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
        for entry, offset in zip(self.entries, self._offsets):
            for k, ranges in enumerate(entry.index.isa_ranges_many(paths)):
                for w, st, ed in ranges:
                    results[k].append((w + offset, st, ed))
        return results

    def _local_ranges(self, ranges, position: int):
        offset = self._offsets[position]
        count = self.entries[position].index.n_partitions
        return [
            (w - offset, st, ed)
            for w, st, ed in ranges
            if offset <= w < offset + count
        ]

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
            for entry in self.entries
            if (phi := entry.index.edge_index(edge)) is not None
        ]
        view = _ShardedEdgeStats(phis, self.kind) if phis else None
        self._edge_views[edge] = view
        return view

    # -- IndexReader: users --------------------------------------------- #

    def user_of(self, traj_id: int) -> int:
        if not 0 <= traj_id < self._user_space:
            raise UnknownTrajectoryError(traj_id)
        for entry in self.entries:
            users = entry.index.users
            if traj_id < users.size and users[traj_id] >= 0:
                return int(users[traj_id])
        raise MissingUserError(traj_id)

    def has_trajectory(self, traj_id: int) -> bool:
        return any(
            entry.index.has_trajectory(traj_id) for entry in self.entries
        )

    # -- IndexReader: retrieval ----------------------------------------- #

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

    def get_travel_times(
        self,
        query,
        fallback_tt=None,
        exclude_ids: Sequence[int] = (),
        isa_ranges=None,
    ) -> TravelTimeResult:
        """Procedure 5 scattered over the shards and merged exactly (see
        :func:`repro.sntindex.procedures.cut_and_probe`)."""
        return procedures.cut_and_probe(
            query,
            self._scan_chunks(query, exclude_ids, query.beta, isa_ranges),
            fallback_tt,
        )

    def get_travel_times_many(
        self,
        items: Sequence[Tuple],
        fallback_tt=None,
    ) -> List[TravelTimeResult]:
        """:meth:`get_travel_times` per ``(query, exclude_ids,
        isa_ranges)`` item of a deduplicated demand set, in item order."""
        return [
            self.get_travel_times(query, fallback_tt, exclude_ids, ranges)
            for query, exclude_ids, ranges in items
        ]

    def walk_ladder_many(
        self, items: Sequence[Tuple], fallback_tt=None
    ) -> List[List[TravelTimeResult]]:
        """Procedure 1's widen ladder per ``(query, wider, exclude_ids,
        isa_ranges)`` item, in item order (see
        :func:`repro.sntindex.procedures.walk_ladder`)."""
        return [
            procedures.walk_ladder(
                self._scan_chunks, query, wider, exclude_ids, isa_ranges,
                fallback_tt,
            )
            for query, wider, exclude_ids, isa_ranges in items
        ]

    def _scan_chunks(
        self, query, exclude_ids, beta, isa_ranges
    ) -> List[Chunk]:
        """Procedure 3's scan on every shard ``query`` routes to, as
        ``(shard, rows, columns)`` chunks in shard order, each cut at
        ``beta`` (the global cut only ever keeps a prefix of each)."""
        positions = self.route(query.interval)
        self._record_dispatch(len(positions))
        chunks: List[Chunk] = []
        for position in positions:
            self._record_scan(position)
            shard = self.entries[position].index
            local = (
                self._local_ranges(isa_ranges, position)
                if isa_ranges is not None
                else None
            )
            matches = procedures.first_segment_matches(
                shard, query, exclude_ids, beta, local
            )
            if matches is not None and matches[0].size:
                chunks.append((shard, *matches))
        return chunks

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
            total += procedures.monolithic_count_matches(
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

        staged = batch
        if self._staging is not None:  # the tail's one record is its rows
            staged = self._staging.index.trajectories() + batch
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
        # The rebuilt staging shard inherits its predecessor's scans.
        scans = self._staging.n_scans if self._staging is not None else 0
        self._staging = _ShardEntry.wrap(
            staging_index, min(groups), max(groups), n_scans=scans
        )
        self.t_max = new_t_max
        self.epoch += 1
        self._adopt_entries()
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
        self._sealed.append(self._staging)
        self._staging = None
        self._adopt_entries()

    # -- compaction ------------------------------------------------------ #

    def compact(self) -> "CompactionReport":
        """Merge every sealed shard into one, in place.

        Repeated append/seal cycles accrete many small shards; every
        unprunable dispatch then fans out across all of them.  With at
        least two sealed shards, this merges them into one shard by
        concatenating their aligned temporal partitions — the exact
        inverse of the sharded build's split, so answers stay
        bit-identical (see :func:`repro.sntindex.compaction.
        merge_shard_indexes` for the argument).  The staging shard is
        untouched.

        A compaction that merges anything bumps :attr:`epoch` even
        though answers are unchanged: shard-granular state (per-shard
        scan attribution, mmap'd payload identity) *did* change, and
        the bump empties in-process caches.  A no-op compaction (fewer
        than two sealed shards) changes nothing and keeps caches warm.

        Returns a :class:`repro.sntindex.compaction.CompactionReport`.
        """
        # Local import: compaction.py imports SNTIndex machinery and is
        # imported by the CLI; importing it lazily here keeps the
        # sharded module free of the cycle.
        from .compaction import CompactionReport, merge_shard_indexes

        members = self._sealed
        n_before = len(members)
        if n_before < 2:
            return CompactionReport(
                n_sealed_before=n_before,
                n_sealed_after=n_before,
                epoch=self.epoch,
            )
        merged = merge_shard_indexes([member.index for member in members])
        self._sealed = [
            _ShardEntry.wrap(
                merged,
                members[0].bucket_lo,
                members[-1].bucket_hi,
                n_scans=sum(member.n_scans for member in members),
            )
        ]
        self.epoch += 1
        self._adopt_entries()
        return CompactionReport(
            n_sealed_before=n_before,
            n_sealed_after=1,
            merged_groups=[
                [_shard_name(i, n_before) for i in range(n_before)]
            ],
            epoch=self.epoch,
        )

    # -- sizes ----------------------------------------------------------- #

    def component_sizes(self) -> Dict[str, int]:
        """Component sizes summed over the shards, in bytes."""
        totals: Dict[str, int] = {}
        for entry in self.entries:
            for name, size in entry.index.component_sizes().items():
                totals[name] = totals.get(name, 0) + size
        return totals

    # -- persistence ----------------------------------------------------- #

    def save(self, path: IndexDir, extra: Optional[dict] = None) -> Path:
        """Write the sharded manifest directory; see
        :func:`save_sharded_index`."""
        return save_sharded_index(self, path, extra=extra)


# ---------------------------------------------------------------------- #
# Persistence: manifest directory of PR-1 index dirs
# ---------------------------------------------------------------------- #


def save_sharded_index(
    index: ShardedSNTIndex,
    path: IndexDir,
    extra: Optional[dict] = None,
) -> Path:
    """Write ``index`` as ``manifest.json`` + one PR-1 index dir per shard.

    Layout of directory ``path``::

        manifest.json   format tag, scalars, shard table, epoch
        shard_0000/ ... save_index() directories, one per shard
        staging/        the staging shard (when present)

    A shard table entry is ``{dir, bucket_lo, bucket_hi}``: the only
    facts about a shard that its own directory does not hold.  Its
    partitions are read back from its meta and its traversal-time
    bounds from its forest.  The staging shard's rows are the staged
    tail's one record; no pickle is written.

    The whole tree is staged in a sibling directory and swapped in by
    :func:`~repro.sntindex.persistence.atomic_install_dir`, like the
    monolithic format.
    """

    def writer(target: Path) -> None:
        # ``target`` is already the outer atomic-install staging dir, so
        # the shard subdirectories are written directly — running
        # save_index's own temp-dir/swap dance per shard inside it
        # would be K extra rename pairs protecting nothing.
        shard_dirs = []
        for position, entry in enumerate(index.entries):
            directory = _shard_name(position, len(index._sealed))
            write_index_payload(entry.index, target / directory)
            shard_dirs.append({
                "dir": directory,
                "bucket_lo": entry.bucket_lo,
                "bucket_hi": entry.bucket_hi,
            })
        staging_manifest = shard_dirs.pop() if index.has_staging else None
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
            "shards": shard_dirs,
            "staging": staging_manifest,
            "extra": dict(extra or {}),
        }
        with open(target / MANIFEST_FILE, "w") as handle:
            json.dump(manifest, handle, indent=2)

    return atomic_install_dir(
        Path(path),
        marker_file=MANIFEST_FILE,
        writer=writer,
        what="saved sharded SNT-index",
    )


def read_sharded_meta(path: IndexDir) -> dict:
    """Read and format-check ``manifest.json`` of a sharded index dir."""
    return read_manifest(
        path,
        MANIFEST_FILE,
        SHARDED_FORMAT_NAME,
        SHARDED_FORMAT_VERSION,
        "sharded SNT-index",
    )


def _shard_dir(root: Path, key: str) -> Path:
    """The shard directory a manifest entry names, inside ``root``.

    The manifest is outside input: an absolute ``dir`` would replace
    ``root`` outright (``root / "/abs"`` is ``/abs``) and a ``..`` part
    would climb out of it, so both are refused before the shard is read.
    """
    parts = [part for part in key.split("/") if part not in ("", ".")]
    if key.startswith(("/", "\\")) or ".." in parts:
        raise PersistenceError(
            f"{MANIFEST_FILE} in {root} names shard dir {key!r}, which "
            "leaves the index directory"
        )
    return root.joinpath(*parts)


def _entry_from_manifest(root: Path, described, manifest: dict) -> _ShardEntry:
    if not isinstance(described, dict):
        raise PersistenceError(
            f"{MANIFEST_FILE} shard entry is {described!r}; expected an "
            "object"
        )
    # Other keys (older manifests also carry label, t_lo, t_hi and
    # n_partitions) are ignored: the shard's own meta is the one copy
    # of those facts.
    required = ("dir", "bucket_lo", "bucket_hi")
    missing = [name for name in required if name not in described]
    if missing:
        raise PersistenceError(
            f"{MANIFEST_FILE} shard entry is missing fields {missing}"
        )
    for name in ("bucket_lo", "bucket_hi"):
        value = described[name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise PersistenceError(
                f"{MANIFEST_FILE} shard entry declares {name} = "
                f"{value!r}; expected an integer"
            )
    source = str(root)
    shard_dir = _shard_dir(root, str(described["dir"]))
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
    return _ShardEntry.wrap(
        shard_index, described["bucket_lo"], described["bucket_hi"]
    )


def load_sharded_index(
    path: IndexDir,
    expected_alphabet_size: Optional[int] = None,
    expected_kind: Optional[str] = None,
) -> ShardedSNTIndex:
    """Load a tree written by :func:`save_sharded_index` from directory
    ``path``.

    The manifest scalars are validated (including the optional
    ``expected_*`` cross-checks) before any shard payload is read, and
    each shard load re-checks its own meta against the manifest — so a
    directory mixing shards of different worlds is rejected.  An older
    writer's ``staging_trajectories.pkl`` is never read.
    """
    root = Path(path)
    source = str(root)
    manifest = read_sharded_meta(root)
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
    check_integers(
        manifest,
        {"partition_days": (1, None), "t_min": (None, None),
         "t_max": (None, None), "tod_bucket_s": TOD_BUCKET_BOUNDS,
         "epoch": (0, None)},
        source,
    )
    if not isinstance(manifest["shards"], list):
        raise PersistenceError(
            f"{MANIFEST_FILE} declares shards = {manifest['shards']!r}; "
            "expected a list"
        )
    if not manifest["shards"]:
        raise PersistenceError(f"{MANIFEST_FILE} lists no shards")

    sealed = [
        _entry_from_manifest(root, described, manifest)
        for described in manifest["shards"]
    ]
    staging = None
    if manifest.get("staging") is not None:
        staging = _entry_from_manifest(root, manifest["staging"], manifest)
    return ShardedSNTIndex(
        sealed=sealed,
        staging=staging,
        t_min=int(manifest["t_min"]),
        t_max=int(manifest["t_max"]),
        alphabet_size=int(alphabet),
        kind=kind,
        partition_days=int(manifest["partition_days"]),
        tod_bucket_s=int(manifest["tod_bucket_s"]),
        epoch=int(manifest["epoch"]),
    )


# ---------------------------------------------------------------------- #
# Layout detection (CLI / service cold start)
# ---------------------------------------------------------------------- #


def read_any_meta(path: IndexDir) -> Tuple[str, dict]:
    """Detect the layout saved in directory ``path`` and read its
    manifest.

    Returns ``("sharded", manifest)`` or ``("monolithic", meta)``.
    """
    root = Path(path)
    if (root / MANIFEST_FILE).is_file():
        return "sharded", read_sharded_meta(root)
    if (root / META_FILE).is_file():
        return "monolithic", read_meta(root)
    raise PersistenceError(
        f"{root} is neither a saved SNT-index ({META_FILE}) nor a "
        f"sharded index ({MANIFEST_FILE})"
    )


def load_any_index(
    path: IndexDir,
    expected_alphabet_size: Optional[int] = None,
    expected_kind: Optional[str] = None,
) -> Union[SNTIndex, ShardedSNTIndex]:
    """Load a monolithic or sharded index, whichever ``path`` holds."""
    layout, _ = read_any_meta(path)
    if layout == "sharded":
        return load_sharded_index(
            path,
            expected_alphabet_size=expected_alphabet_size,
            expected_kind=expected_kind,
        )
    return load_index(
        path,
        expected_alphabet_size=expected_alphabet_size,
        expected_kind=expected_kind,
    )
