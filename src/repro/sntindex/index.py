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
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SECONDS_PER_DAY
from ..errors import (
    IndexError_,
    MissingUserError,
    TrajectoryError,
    UnknownTrajectoryError,
    is_count,
)
from ..histogram.tod import TimeOfDayHistogramStore
from ..temporal.forest import EdgeTemporalIndex, TemporalForest
from ..temporal.records import COLUMN_DTYPES, column_limit
from ..trajectories.model import Trajectory, TrajectoryPoint, TrajectorySet
from . import procedures
from .partition import IndexPartition, build_partition
from .persistence import IndexDir, load_index, save_index

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


def _checked_ids(trajectories: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """The trajectory and user ids of ``trajectories``, as arrays.

    ``U`` stores users in a dense array indexed by trajectory id, with
    ``-1`` marking a gap, so a negative id of either kind would corrupt
    it; such an id raises :class:`TrajectoryError` naming it, as does a
    trajectory id the forest's ``d`` column cannot hold (2**31 or
    more), before ``U`` is allocated over it.
    """
    traj_ids = np.fromiter(
        (tr.traj_id for tr in trajectories),
        dtype=np.int64,
        count=len(trajectories),
    )
    user_ids = np.fromiter(
        (tr.user_id for tr in trajectories),
        dtype=np.int64,
        count=len(trajectories),
    )
    if traj_ids.min() < 0:
        bad = int(traj_ids[np.argmax(traj_ids < 0)])
        raise TrajectoryError(f"negative trajectory id {bad}")
    if traj_ids.max() > column_limit("d"):
        raise TrajectoryError(
            f"trajectory id {int(traj_ids.max())} is above "
            f"{column_limit('d')}, the largest the index holds"
        )
    if user_ids.min() < 0:
        k = int(np.argmax(user_ids < 0))
        raise TrajectoryError(
            f"trajectory {int(traj_ids[k])} has negative user id "
            f"{int(user_ids[k])}"
        )
    return traj_ids, user_ids


def check_partition_count(n_partitions: int) -> None:
    """Refuse more temporal partitions than the forest's ``w`` column
    can number (:class:`IndexError_`)."""
    if n_partitions > column_limit("w"):
        raise IndexError_(
            f"{n_partitions} temporal partitions; the index holds at most "
            f"{column_limit('w')}"
        )


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
        t_min: int,
        t_max: int,
        alphabet_size: int,
        kind: str,
        partition_days: Optional[int],
        build_stats: BuildStats,
        tod_bucket_s: int,
    ):
        self.partitions = partitions
        #: Fixed at construction, like ``partitions``; read per scan.
        self.n_partitions = len(partitions)
        self.forest = forest
        self.users = users
        self.tod_bucket_s = int(tod_bucket_s)
        self._tod_store: Optional[TimeOfDayHistogramStore] = None
        self.t_min = t_min
        self.t_max = t_max
        self.alphabet_size = alphabet_size
        self.kind = kind
        self.partition_days = partition_days
        self.build_stats = build_stats

    @property
    def tod_store(self) -> TimeOfDayHistogramStore:
        """The time-of-day histogram store, counted from the forest on
        first use, however the index was made."""
        if self._tod_store is None:
            self._tod_store = self.build_tod_store(self.tod_bucket_s)
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
        if partition_days is not None and not is_count(partition_days):
            raise IndexError_(
                "partition_days must be None or a positive integer, got "
                f"{partition_days!r}"
            )
        if len(trajectories) == 0:
            raise IndexError_("cannot build an index from zero trajectories")
        t_min, t_max = trajectories.time_span()

        # Assign trajectories to partitions by start time.
        if partition_days is None:
            grouped = [(t_min, t_max, list(trajectories))]
        else:
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

        Every builder and ``append`` ends here, so the build arguments
        are checked here: a value the loader or the time-of-day store
        would refuse, or silently truncate, is an :class:`IndexError_`.
        A partition's text lists its members in ``traj_id`` order, so
        its bytes are a function of its trajectory set.
        """
        if not is_count(alphabet_size):
            raise IndexError_(
                "alphabet_size must be a positive integer, got "
                f"{alphabet_size!r}"
            )
        if not is_count(tod_bucket_s) or tod_bucket_s > SECONDS_PER_DAY:
            raise IndexError_(
                f"tod_bucket_s must be an integer in [1, {SECONDS_PER_DAY}],"
                f" got {tod_bucket_s!r}"
            )
        if kind not in ("css", "btree"):
            raise IndexError_(
                f"kind must be 'css' or 'btree', got {kind!r}"
            )
        if not grouped or not any(members for _, _, members in grouped):
            raise IndexError_("cannot build an index from zero trajectories")
        if any(not members for _, _, members in grouped):
            raise IndexError_("every partition group needs trajectories")
        check_partition_count(len(grouped))
        started = time.perf_counter()
        grouped = [
            (lo, hi, sorted(members, key=attrgetter("traj_id")))
            for lo, hi, members in grouped
        ]
        traj_ids, user_ids = _checked_ids(
            [tr for _, _, members in grouped for tr in members]
        )

        partitions: List[IndexPartition] = []
        row_chunks: List[dict] = []
        for w, (lo, hi, members) in enumerate(grouped):
            partition, rows = build_partition(
                w, members, alphabet_size, lo, hi
            )
            rows["w"] = np.full(
                rows["edge"].size, w, dtype=COLUMN_DTYPES["w"]
            )
            partitions.append(partition)
            row_chunks.append(rows)
        forest = TemporalForest.from_rows(row_chunks, kind=kind)
        del row_chunks
        # Every segment's tree is part of the build (Figure 10c's setup
        # time covers them), so none is left to the first query.
        forest.materialise()

        # Associative container U: d -> u (dense trajectory ids).
        users = np.full(int(traj_ids.max()) + 1, -1, dtype=np.int64)
        users[traj_ids] = user_ids

        stats = BuildStats(
            setup_seconds=time.perf_counter() - started,
            n_partitions=len(partitions),
            n_trajectories=int(traj_ids.size),
            n_traversals=forest.total_records(),
        )
        return cls(
            partitions=partitions,
            forest=forest,
            users=users,
            t_min=t_min,
            t_max=t_max,
            alphabet_size=alphabet_size,
            kind=kind,
            partition_days=partition_days,
            build_stats=stats,
            tod_bucket_s=tod_bucket_s,
        )

    def trajectories(self) -> List[Trajectory]:
        """The inverse of :meth:`build_from_groups`: every indexed
        trajectory, in ``traj_id`` order, its points its rows
        ``(edge, t, tt)`` in ``seq`` order and its user ``U[d]``."""
        forest, columns = self.forest, self.forest.columns
        order = np.lexsort((columns.seq, columns.d))
        d = columns.d[order]
        first = np.flatnonzero(np.diff(d, prepend=-1))
        bounds = np.append(first, d.size).tolist()
        points = list(map(TrajectoryPoint._make, zip(
            forest.row_edges()[order].tolist(),
            columns.t[order].tolist(),
            columns.tt[order].tolist(),
        )))
        ids = d[first]
        return [
            Trajectory(traj_id, user, points[lo:hi])
            for traj_id, user, lo, hi in zip(
                ids.tolist(), self.users[ids].tolist(), bounds, bounds[1:]
            )
        ]

    # ------------------------------------------------------------------ #
    # Spatial lookups
    # ------------------------------------------------------------------ #

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
        """Procedure 5 over this index (see
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
    ):
        """:meth:`get_travel_times` per ``(query, exclude_ids,
        isa_ranges)`` item of a deduplicated demand set, in item order."""
        return [
            self.get_travel_times(query, fallback_tt, exclude_ids, ranges)
            for query, exclude_ids, ranges in items
        ]

    def walk_ladder_many(self, items: Sequence[Tuple], fallback_tt=None):
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

    def _scan_chunks(self, query, exclude_ids, beta, isa_ranges):
        """Procedure 3's scan as one chunk — this index is its own only
        shard (the ``chunks_of`` of :func:`.procedures.walk_ladder`)."""
        matches = procedures.first_segment_matches(
            self, query, exclude_ids, beta, isa_ranges
        )
        if matches is None or matches[0].size == 0:
            return []
        return [(self, *matches)]

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
        them to prune shards that cannot overlap a fixed interval.  They
        are worked out from the forest (each segment's first and last
        ``t``), never read from a saved meta file.
        """
        bounds = self.forest.time_bounds()
        if bounds is None:  # cannot happen for a built index (non-empty)
            return self.t_min, self.t_max
        return bounds

    def build_tod_store(self, bucket_width_s: int) -> TimeOfDayHistogramStore:
        """The time-of-day histograms of every ``(edge, w)`` pair,
        counted segment by segment from the forest's flat columns.

        :attr:`tod_store` is this at :attr:`tod_bucket_s`; the Figure
        10b experiment costs 1/5/10-minute stores through it without
        rebuilding the FM-indexes and forest.
        """
        forest = self.forest
        return TimeOfDayHistogramStore.from_segments(
            bucket_width_s, forest.edge_ids, forest.offsets,
            forest.columns.w, forest.columns.t,
        )

    # ------------------------------------------------------------------ #
    # Persistence (service cold start without re-running ``build()``)
    # ------------------------------------------------------------------ #

    def save(self, path: IndexDir, extra: Optional[dict] = None) -> Path:
        """Serialise the index to directory ``path``.

        ``extra`` is optional JSON-serialisable provenance stored in the
        meta file (ignored by :meth:`load`).  See
        :mod:`repro.sntindex.persistence` for the on-disk layout and the
        format version tag.
        """
        return save_index(self, path, extra=extra)

    @classmethod
    def load(
        cls,
        path: IndexDir,
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
