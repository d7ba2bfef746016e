"""The ``IndexReader`` protocol: what the query stack needs from an index.

:class:`repro.core.engine.QueryEngine` and the cardinality estimator
historically consumed :class:`SNTIndex` directly.  This module names
the surface they actually touch, so any structure that
can answer these calls — the monolithic :class:`SNTIndex` or the
time-sliced :class:`repro.sntindex.sharded.ShardedSNTIndex` — plugs into
the same engine unchanged:

* the **spatial** side: per-partition ISA ranges of a path and the
  derived traversal count (``getISARange``, Section 4.3.2);
* the **temporal** side: per-segment index statistics for the estimator
  (record counts, time bounds, exact range counts) via
  :meth:`IndexReader.edge_index`, and time-of-day selectivity via
  :attr:`IndexReader.tod_store`;
* the **retrieval** side: Procedure 5 (:meth:`IndexReader.get_travel_times`,
  and :meth:`IndexReader.get_travel_times_many` for a demand set), each
  sub-query's whole widen ladder as one item of one call per batch
  round (:meth:`IndexReader.walk_ladder_many` — the only retrieval the
  engine's batch executor makes; a single query is a round of one
  item) and the exact match counter backing the ``sigma_L`` splitter
  (:meth:`IndexReader.count_matches`);
* the **user** container ``U: d -> u``;
* scalar identity: ``t_min``/``t_max``, ``alphabet_size``, ``kind``,
  ``n_partitions``, and the mutation ``epoch`` consumed by shared caches.

Partition ids returned by :meth:`isa_ranges` are globally dense
(``0 .. n_partitions - 1``) in temporal order, and the objects returned
by :meth:`edge_index` only promise the *statistics* subset used by the
estimator (``__len__``, ``count_fixed``, ``min_t``, ``max_t``,
``supports_fast_count``) — the full :class:`EdgeTemporalIndex` of the
monolithic index is a superset of that.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..core.intervals import TimeInterval
    from ..core.spq import StrictPathQuery
    from .procedures import FallbackTT, IsaRanges, TravelTimeResult

    #: ``get_travel_times_many`` item: ``(query, exclude_ids, isa_ranges)``.
    TravelItem = Tuple[StrictPathQuery, Sequence[int], Optional[IsaRanges]]
    #: ``walk_ladder_many`` item: ``(query, wider, exclude_ids,
    #: isa_ranges)``.
    LadderItem = Tuple[
        StrictPathQuery,
        Callable[[], Sequence[StrictPathQuery]],
        Sequence[int],
        Optional[IsaRanges],
    ]

__all__ = ["EdgeStats", "TodStats", "IndexReader"]


@runtime_checkable
class EdgeStats(Protocol):
    """Per-segment statistics consumed by the cardinality estimator."""

    def __len__(self) -> int:
        ...

    @property
    def supports_fast_count(self) -> bool:
        ...

    def min_t(self) -> Optional[int]:
        ...

    def max_t(self) -> Optional[int]:
        ...

    def count_fixed(self, lo: int, hi: int) -> int:
        ...


@runtime_checkable
class TodStats(Protocol):
    """Time-of-day statistics consumed by the cardinality estimator."""

    def selectivity(
        self, edge: int, start_tod: int, duration: int, partition: int = 0
    ) -> float:
        ...


@runtime_checkable
class IndexReader(Protocol):
    """Read surface of a travel-time index (monolithic or sharded)."""

    t_min: int
    t_max: int
    alphabet_size: int
    kind: str
    #: Bumped on every mutation (append); immutable readers stay at 0.
    #: Shared caches compare it to drop entries from earlier index states.
    epoch: int

    @property
    def n_partitions(self) -> int:
        ...

    # -- spatial ------------------------------------------------------- #

    def isa_ranges(self, path: Sequence[int]) -> List[Tuple[int, int, int]]:
        ...

    def isa_ranges_many(
        self, paths: Sequence[Sequence[int]]
    ) -> List[List[Tuple[int, int, int]]]:
        """``[isa_ranges(p) for p in paths]`` through one batched search."""
        ...

    def path_traversal_count(self, path: Sequence[int]) -> int:
        ...

    def contains_path(self, path: Sequence[int]) -> bool:
        ...

    # -- temporal / estimator ------------------------------------------ #

    def edge_index(self, edge: int) -> Optional[EdgeStats]:
        ...

    @property
    def tod_store(self) -> TodStats:
        ...

    # -- users --------------------------------------------------------- #

    def user_of(self, traj_id: int) -> int:
        ...

    def has_trajectory(self, traj_id: int) -> bool:
        ...

    # -- retrieval ----------------------------------------------------- #

    def get_travel_times(
        self,
        query: StrictPathQuery,
        fallback_tt: FallbackTT = None,
        exclude_ids: Sequence[int] = (),
        isa_ranges: Optional[IsaRanges] = None,
    ) -> TravelTimeResult:
        ...

    def get_travel_times_many(
        self,
        items: Sequence[TravelItem],
        fallback_tt: FallbackTT = None,
    ) -> List[TravelTimeResult]:
        """:meth:`get_travel_times` per ``(query, exclude_ids,
        isa_ranges)`` item, in item order."""
        ...

    def walk_ladder_many(
        self,
        items: Sequence[LadderItem],
        fallback_tt: FallbackTT = None,
    ) -> List[List[TravelTimeResult]]:
        """Procedure 1's widen ladder per ``(query, wider, exclude_ids,
        isa_ranges)`` item, in item order.

        Each item's ``query`` is answered at its own width; only if that
        result is empty is its ``wider()`` asked (once) for the rungs
        above it, narrowest first.  Per item, returns one
        :meth:`get_travel_times` result per rung tried, in ladder order:
        the failed rungs' empty results, then the first rung that
        answers or the widest rung's failure — each exactly what that
        rung's own :meth:`get_travel_times` returns, at the cost of one
        scan of the widest rung.  Both readers run
        :func:`repro.sntindex.procedures.walk_ladder` per item over
        their own scan.
        """
        ...

    def count_matches(
        self,
        path: Sequence[int],
        interval: TimeInterval,
        user: Optional[int] = None,
        exclude_ids: Sequence[int] = (),
        limit: Optional[int] = None,
    ) -> int:
        ...
