"""The adapted SNT-index (paper Section 4).

Composition of

* one FM-index per temporal partition (spatial part, Section 4.1.1/4.3.2),
* the shared temporal forest with extended leaves ``(isa, d, TT, a, seq,
  w)`` (Sections 4.1.2-4.1.3), built over CSS-trees (Section 4.3.1) or
  B+-trees,
* the associative container ``U: d -> u`` for user filtering, and
* per-(segment, partition) time-of-day histograms for the accurate
  cardinality-estimator modes (Section 4.4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import SECONDS_PER_DAY
from ..errors import IndexError_, MissingUserError, UnknownTrajectoryError
from ..histogram.tod import TimeOfDayHistogramStore
from ..temporal.forest import EdgeTemporalIndex, TemporalForest
from ..temporal.records import TraversalColumns
from ..trajectories.model import TrajectorySet
from . import procedures
from .partition import IndexPartition, build_partition
from .persistence import load_index, save_index
from .store import ShardStore

__all__ = ["SNTIndex", "BuildStats", "assign_time_windows", "window_bounds"]


def assign_time_windows(
    trajectories, t_min: int, window: int
) -> Dict[int, List]:
    """Bucket trajectories into temporal partitions by start time.

    The single definition of the partition bucket id,
    ``(start_time - t_min) // window`` — the sharded index's
    bit-identical guarantee requires every builder (monolithic build,
    sharded build, staging append) to assign buckets identically, so
    none of them is allowed its own copy of this line.
    """
    groups: Dict[int, List] = {}
    for trajectory in trajectories:
        groups.setdefault(
            (trajectory.start_time - t_min) // window, []
        ).append(trajectory)
    return groups


def window_bounds(bucket: int, t_min: int, window: int) -> Tuple[int, int]:
    """``[lo, hi)`` time range of temporal-partition ``bucket``."""
    lo = t_min + bucket * window
    return lo, lo + window


@dataclass
class BuildStats:
    """Timings and sizes recorded while building the index (Fig. 10c)."""

    setup_seconds: float
    n_partitions: int
    n_trajectories: int
    n_traversals: int


class SNTIndex:
    """In-memory NCT index answering strict path queries."""

    #: Mutation counter of the :class:`IndexReader` protocol.  The
    #: monolithic index is immutable after build, so it never moves;
    #: shared caches read it to notice appendable readers changing.
    epoch: int = 0

    def __init__(
        self,
        partitions: Sequence[IndexPartition],
        forest: TemporalForest,
        users: np.ndarray,
        tod_store,
        t_min: int,
        t_max: int,
        alphabet_size: int,
        kind: str,
        partition_days: Optional[int],
        build_stats: BuildStats,
        tod_bucket_s: Optional[int] = None,
        data_bounds: Optional[Tuple[int, int]] = None,
    ):
        self.partitions = partitions
        self.forest = forest
        self.users = users
        if isinstance(tod_store, TimeOfDayHistogramStore):
            self._tod_store: Optional[TimeOfDayHistogramStore] = tod_store
            self._tod_loader = None
            self.tod_bucket_s = tod_store.bucket_width_s
        else:
            # A zero-arg loader (persistence hands one over so a loaded
            # index materialises the histogram dict only when the
            # estimator first needs it); the bucket width must then be
            # known up front — the sharded views read it without
            # touching the store.
            if not callable(tod_store) or tod_bucket_s is None:
                raise TypeError(
                    "tod_store must be a TimeOfDayHistogramStore, or a "
                    "loader callable accompanied by tod_bucket_s"
                )
            self._tod_store = None
            self._tod_loader = tod_store
            self.tod_bucket_s = int(tod_bucket_s)
        self.t_min = t_min
        self.t_max = t_max
        self.alphabet_size = alphabet_size
        self.kind = kind
        self.partition_days = partition_days
        self.build_stats = build_stats
        #: Traversal-timestamp bounds cached by the persistence layer
        #: (``None`` for a freshly built index — computed on demand).
        self._data_bounds = data_bounds

    @property
    def tod_store(self) -> TimeOfDayHistogramStore:
        """The time-of-day histogram store (materialised on first use)."""
        if self._tod_store is None:
            assert self._tod_loader is not None
            self._tod_store = self._tod_loader()
        return self._tod_store

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        trajectories: TrajectorySet,
        alphabet_size: int,
        partition_days: Optional[int] = None,
        kind: str = "css",
        tod_bucket_s: int = 600,
    ) -> "SNTIndex":
        """Build the index from a trajectory set.

        Parameters
        ----------
        trajectories:
            The map-matched NCT set ``T``.
        alphabet_size:
            ``max edge id + 1`` (use ``network.alphabet_size``).
        partition_days:
            Temporal partition size in days, or ``None`` for a single
            partition (the paper's FULL configuration).
        kind:
            Temporal tree type: ``"css"`` (default) or ``"btree"``.
        tod_bucket_s:
            Bucket width of the estimator's time-of-day histograms.
        """
        if len(trajectories) == 0:
            raise IndexError_("cannot build an index from zero trajectories")
        t_min, t_max = trajectories.time_span()

        # Assign trajectories to partitions by start time.
        if partition_days is None:
            grouped = [(t_min, t_max, list(trajectories))]
        else:
            if partition_days < 1:
                raise IndexError_("partition_days must be >= 1")
            window = partition_days * SECONDS_PER_DAY
            groups = assign_time_windows(trajectories, t_min, window)
            grouped = [
                (*window_bounds(bucket, t_min, window), groups[bucket])
                for bucket in sorted(groups)
            ]
        return cls.build_from_groups(
            grouped,
            alphabet_size,
            t_min=t_min,
            t_max=t_max,
            kind=kind,
            partition_days=partition_days,
            tod_bucket_s=tod_bucket_s,
        )

    @classmethod
    def build_from_groups(
        cls,
        grouped: Sequence[Tuple[int, int, List]],
        alphabet_size: int,
        t_min: int,
        t_max: int,
        kind: str = "css",
        partition_days: Optional[int] = None,
        tod_bucket_s: int = 600,
    ) -> "SNTIndex":
        """Build an index from pre-assigned temporal partitions.

        ``grouped`` holds one ``(t_lo, t_hi, members)`` triple per
        partition, in temporal order; partition ids ``w`` enumerate the
        triples.  :meth:`build` derives the triples from
        ``partition_days``; the sharded index calls this directly so a
        shard's partitions carry the *global* window boundaries (its own
        ``t_min`` would shift the windows and change the partition
        contents, breaking bit-identical answers).
        """
        if not grouped or not any(members for _, _, members in grouped):
            raise IndexError_("cannot build an index from zero trajectories")
        if any(not members for _, _, members in grouped):
            raise IndexError_("every partition group needs trajectories")
        started = time.perf_counter()

        partitions: List[IndexPartition] = []
        row_chunks: List[dict] = []
        w_chunks: List[np.ndarray] = []
        for w, (lo, hi, members) in enumerate(grouped):
            partition, rows = build_partition(
                w, members, alphabet_size, lo, hi
            )
            partitions.append(partition)
            row_chunks.append(rows)
            w_chunks.append(np.full(rows["edge"].size, w, dtype=np.int32))

        merged = {
            name: np.concatenate([chunk[name] for chunk in row_chunks])
            for name in ("edge", "t", "isa", "d", "tt", "a", "seq")
        }
        merged_w = np.concatenate(w_chunks)

        # Group rows by edge and build the forest.
        order = np.argsort(merged["edge"], kind="stable")
        edges_sorted = merged["edge"][order]
        unique_edges, first_positions = np.unique(
            edges_sorted, return_index=True
        )
        boundaries = np.append(first_positions, edges_sorted.size)
        per_edge: Dict[int, TraversalColumns] = {}
        tod_store = TimeOfDayHistogramStore(bucket_width_s=tod_bucket_s)
        for i, edge_id in enumerate(unique_edges):
            rows = order[boundaries[i] : boundaries[i + 1]]
            columns = TraversalColumns.from_arrays(
                t=merged["t"][rows],
                isa=merged["isa"][rows],
                d=merged["d"][rows],
                tt=merged["tt"][rows],
                a=merged["a"][rows],
                seq=merged["seq"][rows],
                w=merged_w[rows],
            )
            per_edge[int(edge_id)] = columns
            for w in np.unique(columns.w):
                tod_store.add_traversals(
                    int(edge_id),
                    columns.t[columns.w == w],
                    partition=int(w),
                )
        forest = TemporalForest.build(per_edge, kind=kind)

        # Associative container U: d -> u (dense trajectory ids).
        all_members = [tr for _, _, members in grouped for tr in members]
        max_id = max(tr.traj_id for tr in all_members)
        users = np.full(max_id + 1, -1, dtype=np.int64)
        for trajectory in all_members:
            users[trajectory.traj_id] = trajectory.user_id

        stats = BuildStats(
            setup_seconds=time.perf_counter() - started,
            n_partitions=len(partitions),
            n_trajectories=len(all_members),
            n_traversals=int(merged["edge"].size),
        )
        return cls(
            partitions=partitions,
            forest=forest,
            users=users,
            tod_store=tod_store,
            t_min=t_min,
            t_max=t_max,
            alphabet_size=alphabet_size,
            kind=kind,
            partition_days=partition_days,
            build_stats=stats,
        )

    # ------------------------------------------------------------------ #
    # Spatial lookups
    # ------------------------------------------------------------------ #

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def isa_ranges(self, path: Sequence[int]) -> List[Tuple[int, int, int]]:
        """Per-partition ISA ranges ``(w, st, ed)``; empty ranges omitted.

        This is the temporally partitioned ``getISARange`` (Section 4.3.2).
        """
        ranges: List[Tuple[int, int, int]] = []
        for partition in self.partitions:
            st, ed = partition.isa_range(path)
            if st < ed:
                ranges.append((partition.w, st, ed))
        return ranges

    def isa_ranges_many(
        self, paths: Sequence[Sequence[int]]
    ) -> List[List[Tuple[int, int, int]]]:
        """Batched :meth:`isa_ranges` over many paths.

        Bit-identical to mapping :meth:`isa_ranges` over ``paths`` (the
        per-partition batched backward search replicates the scalar
        one), but each partition's FM-index walks all paths at once —
        see :meth:`repro.fmindex.fm.FMIndex.isa_ranges`.
        """
        results: List[List[Tuple[int, int, int]]] = [[] for _ in paths]
        for partition in self.partitions:
            for k, (st, ed) in enumerate(partition.fm.isa_ranges(paths)):
                if st < ed:
                    results[k].append((partition.w, st, ed))
        return results

    def path_traversal_count(self, path: Sequence[int]) -> int:
        """``c_P = ed - st`` summed over partitions (estimator input)."""
        return sum(ed - st for _, st, ed in self.isa_ranges(path))

    def contains_path(self, path: Sequence[int]) -> bool:
        """Established from the FM-indexes alone (Section 4.1)."""
        return bool(self.isa_ranges(path))

    def edge_index(self, edge: int) -> Optional[EdgeTemporalIndex]:
        return self.forest.get(edge)

    def user_of(self, traj_id: int) -> int:
        """User of trajectory ``d`` from the associative container ``U``.

        Raises :class:`UnknownTrajectoryError` for ids outside the dense
        id space and :class:`MissingUserError` for in-range gaps (``U``
        spans ``[0, max id]`` but not every id was assigned); both derive
        from :class:`IndexError_`.
        """
        if not 0 <= traj_id < self.users.size:
            raise UnknownTrajectoryError(traj_id)
        user = int(self.users[traj_id])
        if user < 0:
            raise MissingUserError(traj_id)
        return user

    def has_trajectory(self, traj_id: int) -> bool:
        """Whether ``traj_id`` names an indexed trajectory (no gap)."""
        return 0 <= traj_id < self.users.size and self.users[traj_id] >= 0

    # ------------------------------------------------------------------ #
    # Retrieval (IndexReader protocol; delegates to the procedures)
    # ------------------------------------------------------------------ #

    def get_travel_times(
        self,
        query,
        fallback_tt=None,
        exclude_ids: Sequence[int] = (),
        isa_ranges=None,
    ):
        """Procedure 5 over this index (see :mod:`.procedures`)."""
        return procedures.monolithic_travel_times(
            self,
            query,
            fallback_tt=fallback_tt,
            exclude_ids=exclude_ids,
            isa_ranges=isa_ranges,
        )

    def get_travel_times_many(
        self,
        items: Sequence[Tuple],
        fallback_tt=None,
    ):
        """:meth:`get_travel_times` per ``(query, exclude_ids,
        isa_ranges)`` item of a deduplicated demand set, in item order
        (see :func:`repro.sntindex.procedures.monolithic_travel_times_many`).
        """
        return procedures.monolithic_travel_times_many(
            self, items, fallback_tt=fallback_tt
        )

    def walk_ladder_many(self, items: Sequence[Tuple], fallback_tt=None):
        """Procedure 1's widen ladder per ``(query, wider, exclude_ids,
        isa_ranges)`` item, in item order: each ``query`` at its own
        width, then — only if that fails — the rungs ``wider()`` names,
        all counted from one scan of the widest (see
        :func:`repro.sntindex.procedures.monolithic_ladder`)."""
        return [
            procedures.monolithic_ladder(
                self, query, wider, fallback_tt, exclude_ids, isa_ranges
            )
            for query, wider, exclude_ids, isa_ranges in items
        ]

    def count_matches(
        self,
        path: Sequence[int],
        interval,
        user: Optional[int] = None,
        exclude_ids: Sequence[int] = (),
        limit: Optional[int] = None,
    ) -> int:
        """Exact strict-path match count (see :mod:`.procedures`)."""
        return procedures.monolithic_count_matches(
            self,
            path,
            interval,
            user=user,
            exclude_ids=exclude_ids,
            limit=limit,
        )

    def data_time_bounds(self) -> Tuple[int, int]:
        """``(min, max)`` traversal entry timestamp across all segments.

        Unlike ``t_min``/``t_max`` (the corpus span recorded at build
        time, which a sharded wrapper sets globally), these bounds
        describe the rows actually indexed here — the shard router uses
        them to prune shards that cannot overlap a fixed interval.
        """
        if self._data_bounds is not None:
            return self._data_bounds
        lo: Optional[int] = None
        hi: Optional[int] = None
        for edge in self.forest.edges():
            phi = self.forest.get(edge)
            edge_lo, edge_hi = phi.min_t(), phi.max_t()
            if edge_lo is None:
                continue
            lo = edge_lo if lo is None else min(lo, edge_lo)
            hi = edge_hi if hi is None else max(hi, edge_hi)
        if lo is None:  # cannot happen for a built index (non-empty)
            return self.t_min, self.t_max
        return int(lo), int(hi)

    def build_tod_store(self, bucket_width_s: int) -> TimeOfDayHistogramStore:
        """Build a fresh time-of-day histogram store at another grain.

        Used by the Figure 10b experiment to cost 1/5/10-minute stores
        without rebuilding the FM-indexes and forest.
        """
        store = TimeOfDayHistogramStore(bucket_width_s=bucket_width_s)
        for edge in self.forest.edges():
            columns = self.forest.get(edge).columns
            for w in np.unique(columns.w):
                store.add_traversals(
                    int(edge), columns.t[columns.w == w], partition=int(w)
                )
        return store

    # ------------------------------------------------------------------ #
    # Persistence (service cold start without re-running ``build()``)
    # ------------------------------------------------------------------ #

    def save(
        self,
        path: Union[str, Path, "ShardStore"],
        extra: Optional[dict] = None,
    ) -> Path:
        """Serialise the index to ``path`` — a directory, a store URI
        (``object://...``), or a :class:`~repro.sntindex.store.ShardStore`.

        ``extra`` is optional JSON-serialisable provenance stored in the
        meta file (ignored by :meth:`load`).  See
        :mod:`repro.sntindex.persistence` for the on-disk layout and the
        format version tag.
        """
        return save_index(self, path, extra=extra)

    @classmethod
    def load(
        cls,
        path: Union[str, Path, "ShardStore"],
        expected_alphabet_size: Optional[int] = None,
        expected_kind: Optional[str] = None,
    ) -> "SNTIndex":
        """Load an index saved with :meth:`save`; no rebuild happens.

        ``expected_alphabet_size`` / ``expected_kind`` let callers that
        know the target world (the CLI knows the network) reject a
        mismatched manifest *before* any partition payload is mapped.
        The format is pickle-free — JSON meta plus memory-mapped ``.npy``
        arrays — so loading executes no code from the directory.
        """
        return load_index(
            path,
            expected_alphabet_size=expected_alphabet_size,
            expected_kind=expected_kind,
        )

    # ------------------------------------------------------------------ #
    # Size accounting (real structures; Fig. 10 uses experiments.memory)
    # ------------------------------------------------------------------ #

    def component_sizes(self) -> Dict[str, int]:
        """Succinct/modelled sizes per component, in bytes."""
        wavelet = sum(p.fm.bwt.size_in_bytes() for p in self.partitions)
        counters = 8 * (self.alphabet_size + 1) * len(self.partitions)
        with_w = self.partition_days is not None
        return {
            "WT": wavelet,
            "C": counters,
            "user": 8 * int(self.users.size),
            "Forest": self.forest.size_in_bytes(with_partition_id=with_w),
            "tod_histograms": self.tod_store.size_in_bytes(),
        }
