"""Travel-time retrieval procedures (paper Procedures 3-5).

``buildMap`` scans the temporal index of the *first* segment of a query
path, filtering by time interval, ISA range and user predicate, and maps
``(d, seq)`` to the antecedent aggregate ``a - TT``.  ``probeMap`` scans
the *last* segment and emits ``a_last - (a_first - TT_first)`` — the exact
travel time over the whole path — for every record whose ``(d, seq + 1 -
l)`` hits the map.  ``get_travel_times`` (Procedure 5) glues both together
behind the FM-index ISA range.

The implementation is column-oriented: the forest returns candidate row
positions for the time predicate, and ISA/user filters are numpy masks.
Matches are taken in ascending entry time and cut at ``beta``, mirroring
the paper's early termination (Procedure 3 line 6).

The probe itself is a sorted-key join, not a hash map: both sides pack
``(d, seq)`` into one int64 composite key
(:func:`repro.temporal.records.pack_probe_keys`), the last segment keeps
a lazily built (and persisted) sort permutation over that key
(:attr:`repro.temporal.forest.EdgeTemporalIndex.probe_order`), and the
probe answers with two ``np.searchsorted`` passes plus a ragged gather —
no Python dict, no per-row loop, no full-column membership scan.
Duplicate ``(d, seq)`` keys among the first-segment matches keep the
*last* occurrence in match order, replicating the historical dict
overwrite; emission order reproduces the historical candidate scan by
sorting the joined rows back to ascending column position.

The retrieval is split in two phases so a sharded index can run them per
shard and merge: :func:`first_segment_matches` (Procedure 3's scan and
filters, returning the matched first-segment rows) and
:func:`probe_travel_times` (Procedures 3-4's map build and probe,
returning the travel times plus the entry timestamps that order them).
Merging per-shard outputs on ``(entry time, shard order)`` reproduces the
monolithic row order exactly, because each shard's rows are a stable
restriction of the monolithic t-sorted columns.

The scalar functions are the one implementation.  Every ``*_many`` form
is a plain loop over its scalar form, in item order, for the batch
executor and the shard router that hand over a round's demand set: walk
dedup has already folded the identical sub-queries of a round, and what
is left almost never shares a first (or last) edge (ROADMAP item 1 has
the measured group sizes), so stacking a group's bounds and candidates
costs more than it shares.

On top of Procedure 5 sits the *ladder walk* the engine's fetch stage
calls (:func:`monolithic_ladder`, looped over a round's demands by
:meth:`SNTIndex.walk_ladder_many`):
Procedure 1 widens a failing periodic sub-query rung by rung, and every
rung's matches are a subset of the widest rung's, so one uncut scan of
the widest window counts them all and :func:`choose_rung` jumps to the
first rung that meets ``beta`` — the paper's cardinality-estimator idea
(Section 4.4) made exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
import numpy.typing as npt

from ..config import SECONDS_PER_DAY
from ..core.intervals import (
    FixedInterval,
    PeriodicInterval,
    TimeInterval,
    is_periodic,
)
from ..core.spq import StrictPathQuery
from ..temporal.forest import EdgeTemporalIndex
from ..temporal.records import TraversalColumns, pack_probe_keys

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .index import SNTIndex
    from .reader import IndexReader

__all__ = [
    "TravelTimeResult",
    "first_segment_matches",
    "first_segment_matches_many",
    "probe_travel_times",
    "probe_travel_times_many",
    "get_travel_times",
    "monolithic_travel_times",
    "monolithic_travel_times_many",
    "classify_scan",
    "choose_rung",
    "monolithic_ladder",
    "count_matches",
    "monolithic_count_matches",
]

Int64Array = npt.NDArray[np.int64]
Float64Array = npt.NDArray[np.float64]
IsaRanges = List[Tuple[int, int, int]]
#: One scan work item: ``(query, exclude_ids, beta, isa_ranges)``.
MatchItem = Tuple[StrictPathQuery, Sequence[int], Optional[int],
                  Optional[IsaRanges]]
#: One probe work item: ``(query, selected_rows, first_columns)``.
ProbeEntry = Tuple[StrictPathQuery, Int64Array, TraversalColumns]


@dataclass
class TravelTimeResult:
    """Outcome of one strict path sub-query."""

    #: Retrieved travel times ``X`` (or the single fallback estimate).
    values: np.ndarray
    #: Number of trajectories matched in the first-segment scan.
    n_matched: int
    #: True when ``values`` holds the ``estimateTT`` speed-limit fallback.
    from_fallback: bool = False
    #: True when a periodic query matched fewer than ``beta`` trajectories
    #: (Procedure 5 line 7) and therefore returned no values.
    insufficient: bool = False

    @property
    def is_empty(self) -> bool:
        return self.values.size == 0

    # -- wire form (external cache tier contract) ---------------------- #

    def to_wire(self) -> Dict[str, object]:
        """JSON-compatible wire form, inverse of :meth:`from_wire`.

        The payload format of the cross-process
        :class:`~repro.service.cachetier.SharedCacheTier`: float64
        travel times round-trip exactly through JSON ``repr``, so a
        deserialised result is bit-identical to the computed one.
        """
        return {
            "values": np.asarray(self.values, dtype=np.float64).tolist(),
            "n_matched": int(self.n_matched),
            "from_fallback": bool(self.from_fallback),
            "insufficient": bool(self.insufficient),
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "TravelTimeResult":
        values = np.asarray(payload["values"], dtype=np.float64)
        values.setflags(write=False)
        return cls(
            values=values,
            n_matched=int(payload["n_matched"]),  # type: ignore[arg-type]
            from_fallback=bool(payload["from_fallback"]),
            insufficient=bool(payload["insufficient"]),
        )


def _interval_rows(
    index_edge: EdgeTemporalIndex, interval: TimeInterval
) -> Int64Array:
    if is_periodic(interval):
        assert isinstance(interval, PeriodicInterval)
        return index_edge.rows_periodic(interval.start_tod, interval.duration)
    assert isinstance(interval, FixedInterval)
    return index_edge.rows_fixed(interval.start, interval.end)


def _not_excluded(
    d: Int64Array, exclude_ids: Sequence[int]
) -> npt.NDArray[np.bool_]:
    """Mask of the trajectory ids ``d`` outside the (non-empty) exclusion
    set: one binary search per row against the sorted ids, whatever the
    set's size.  The conversion is free for an ascending int64 array —
    the engine makes one per trip and hands it to every scan."""
    ids = np.asarray(exclude_ids, dtype=np.int64)
    if ids.size > 1 and not (ids[1:] >= ids[:-1]).all():
        ids = np.sort(ids)
    slots = np.searchsorted(ids, d)
    np.minimum(slots, ids.size - 1, out=slots)
    return ids[slots] != d


def first_segment_matches(
    index: "SNTIndex",
    query: StrictPathQuery,
    exclude_ids: Sequence[int] = (),
    beta: Optional[int] = None,
    isa_ranges: Optional[IsaRanges] = None,
) -> Optional[Tuple[Int64Array, TraversalColumns]]:
    """Rows of the first segment matching all predicates, beta-cut.

    Returns ``(row_positions, columns)`` of the first segment's index, or
    ``None`` when the path does not occur / the edge has no data.  Row
    positions are in ascending entry time (ties in column order), so a
    prefix of them is exactly the paper's early-terminated match set.
    ``isa_ranges`` lets callers share one backward search between the
    cardinality estimate and the retrieval (the engine does this).
    """
    ranges = (
        isa_ranges if isa_ranges is not None else index.isa_ranges(query.path)
    )
    if not ranges:
        return None
    phi0 = index.edge_index(query.path[0])
    if phi0 is None or len(phi0) == 0:
        return None
    rows = _interval_rows(phi0, query.interval)
    if rows.size == 0:
        columns = phi0.columns
        return rows, columns
    columns = phi0.columns

    st_per_w = np.zeros(index.n_partitions, dtype=np.int64)
    ed_per_w = np.zeros(index.n_partitions, dtype=np.int64)
    for w, st, ed in ranges:
        st_per_w[w], ed_per_w[w] = st, ed
    w_sel = columns.w[rows]
    isa = columns.isa[rows]
    mask = (isa >= st_per_w[w_sel]) & (isa < ed_per_w[w_sel])

    if query.user is not None:
        mask &= index.users[columns.d[rows]] == query.user
    if len(exclude_ids):
        mask &= _not_excluded(columns.d[rows], exclude_ids)

    selected = rows[mask]
    if beta is not None and selected.size > beta:
        selected = selected[:beta]  # ascending entry time (Procedure 3)
    return selected, columns


def first_segment_matches_many(
    index: "SNTIndex", items: Sequence[MatchItem]
) -> List[Optional[Tuple[Int64Array, TraversalColumns]]]:
    """:func:`first_segment_matches` per ``(query, exclude_ids, beta,
    isa_ranges)`` item of a demand set, in item order."""
    return [
        first_segment_matches(
            index, query, exclude_ids=exclude_ids, beta=beta,
            isa_ranges=isa_ranges,
        )
        for query, exclude_ids, beta, isa_ranges in items
    ]


def _dedup_probe_targets(
    columns: TraversalColumns, selected: Int64Array, length: int
) -> Tuple[Int64Array, Float64Array]:
    """buildMap as arrays: sorted unique probe keys and their ``a - TT``.

    The probe key of a first-segment match ``(d, seq)`` on a path of
    ``length`` segments is ``(d, seq + length - 1)`` — the ``(d, seq)``
    pair its last-segment record carries.  Duplicate keys keep the last
    occurrence in match order, replicating the dict overwrite of the
    historical per-row ``buildMap``.
    """
    first_seq = np.asarray(columns.seq[selected], dtype=np.int64)
    targets = pack_probe_keys(
        columns.d[selected], first_seq + np.int64(length - 1)
    )
    diffs = columns.a[selected] - columns.tt[selected]
    if targets.size == 0:
        return targets, np.asarray(diffs, dtype=np.float64)
    order = np.argsort(targets, kind="stable")
    sorted_targets = targets[order]
    keep = np.empty(sorted_targets.size, dtype=bool)
    keep[:-1] = sorted_targets[1:] != sorted_targets[:-1]
    keep[-1] = True
    return (
        np.asarray(sorted_targets[keep], dtype=np.int64),
        np.asarray(diffs[order][keep], dtype=np.float64),
    )


def _probe_entry(
    index: "SNTIndex",
    query: StrictPathQuery,
    selected: Int64Array,
    columns: TraversalColumns,
) -> Tuple[Float64Array, Int64Array]:
    """One query's map build and probe (Procedures 3-4).

    The probe targets are bounded in the last segment's sorted probe-key
    order with one ``searchsorted`` pair; the ragged gather materialises
    every hit, and sorting the hit rows ascending restores the
    historical candidate-scan emission order (rows are unique — one
    ``(d, seq)`` key per row).  Single-segment paths bypass the join.
    """
    if query.length == 1:
        # The first segment is the last: X is the TT column directly.
        return (
            columns.tt[selected].astype(np.float64, copy=True),
            np.asarray(columns.t[selected], dtype=np.int64),
        )
    empty = (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64))
    phi_last = index.edge_index(query.path[-1])
    if phi_last is None:  # cannot happen when the ISA range was non-empty
        return empty
    targets, diffs = _dedup_probe_targets(columns, selected, query.length)
    keys_sorted = phi_last.probe_keys_sorted()
    lo = np.searchsorted(keys_sorted, targets, side="left")
    counts = np.searchsorted(keys_sorted, targets, side="right") - lo
    total = int(counts.sum())
    if total == 0:
        return empty
    starts = np.repeat(lo, counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    flat = starts + np.arange(total, dtype=np.int64) - offsets
    rows = phi_last.probe_order[flat]
    target_idx = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    emit = np.argsort(rows, kind="stable")
    rows_emit = rows[emit]
    last = phi_last.columns
    values = last.a[rows_emit] - diffs[target_idx[emit]]
    return (
        np.asarray(values, dtype=np.float64),
        np.asarray(last.t[rows_emit], dtype=np.int64),
    )


def probe_travel_times(
    index: "SNTIndex",
    query: StrictPathQuery,
    selected: Int64Array,
    columns: TraversalColumns,
) -> Tuple[Float64Array, Int64Array]:
    """Procedures 3-4 given the (already beta-cut) first-segment rows.

    Returns ``(values, order_t)``: the travel times of the matched
    traversals plus, per value, the entry timestamp of the record that
    emitted it (the first segment for single-segment paths, the last
    segment otherwise).  ``values`` is in the scan order of this index's
    columns; ``order_t`` is what a sharded router merges on to reproduce
    the monolithic emission order across shards.
    """
    return probe_travel_times_many(index, [(query, selected, columns)])[0]


def probe_travel_times_many(
    index: "SNTIndex", entries: Sequence[ProbeEntry]
) -> List[Tuple[Float64Array, Int64Array]]:
    """The probe join per ``(query, selected, columns)`` entry, in entry
    order — the one entry point every caller's probe goes through."""
    return [_probe_entry(index, *entry) for entry in entries]


def get_travel_times(
    index: "IndexReader",
    query: StrictPathQuery,
    fallback_tt: Optional[Callable[[int], float]] = None,
    exclude_ids: Sequence[int] = (),
    isa_ranges: Optional[IsaRanges] = None,
) -> TravelTimeResult:
    """Procedure 5: retrieve ``X`` for ``spq(P, I, f, beta)``.

    Accepts any :class:`~repro.sntindex.reader.IndexReader` and
    dispatches through it — the monolithic index runs
    :func:`monolithic_travel_times` below, a sharded index scatters the
    procedure per shard and merges.

    Parameters
    ----------
    index:
        The index reader.
    query:
        The (sub-)query.
    fallback_tt:
        ``estimateTT`` callable for the speed-limit fallback on empty
        single-segment results (Procedure 5 lines 12-13); usually
        ``network.estimate_tt``.
    exclude_ids:
        Trajectory ids excluded from matching (used by the evaluation
        workload to keep the query trajectory itself out of its answer).
    """
    return index.get_travel_times(
        query,
        fallback_tt=fallback_tt,
        exclude_ids=exclude_ids,
        isa_ranges=isa_ranges,
    )


def classify_scan(
    query: StrictPathQuery,
    n_matched: int,
    fallback_tt: Optional[Callable[[int], float]],
) -> Optional[TravelTimeResult]:
    """Procedure 5's pre-probe classification; ``None`` means probe."""
    empty = np.empty(0, dtype=np.float64)
    if (
        query.beta is not None
        and n_matched < query.beta
        and is_periodic(query.interval)
    ):
        # Procedure 5 line 7: periodic queries fail below the cardinality
        # requirement; fixed-interval queries proceed regardless of beta.
        return TravelTimeResult(empty, n_matched, insufficient=True)
    if n_matched == 0:
        if query.length == 1 and fallback_tt is not None:
            estimate = np.asarray([fallback_tt(query.path[0])])
            return TravelTimeResult(estimate, 0, from_fallback=True)
        return TravelTimeResult(empty, 0)
    return None


def monolithic_travel_times(
    index: "SNTIndex",
    query: StrictPathQuery,
    fallback_tt: Optional[Callable[[int], float]] = None,
    exclude_ids: Sequence[int] = (),
    isa_ranges: Optional[IsaRanges] = None,
) -> TravelTimeResult:
    """Procedure 5 over one :class:`SNTIndex`'s own columns.

    The implementation behind :meth:`SNTIndex.get_travel_times`; it
    needs the raw per-segment columns, so sharded readers never reach
    it directly — their router runs the two phases per shard instead.
    """
    matches = first_segment_matches(
        index,
        query,
        exclude_ids=exclude_ids,
        beta=query.beta,
        isa_ranges=isa_ranges,
    )
    if matches is None:
        selected: Int64Array = np.empty(0, dtype=np.int64)
        columns: Optional[TraversalColumns] = None
    else:
        selected, columns = matches

    n_matched = int(selected.size)
    early = classify_scan(query, n_matched, fallback_tt)
    if early is not None:
        return early
    assert columns is not None
    result, _ = probe_travel_times(index, query, selected, columns)
    return TravelTimeResult(result, n_matched)


def monolithic_travel_times_many(
    index: "SNTIndex",
    items: Sequence[Tuple[StrictPathQuery, Sequence[int],
                          Optional[IsaRanges]]],
    fallback_tt: Optional[Callable[[int], float]] = None,
) -> List[TravelTimeResult]:
    """:func:`monolithic_travel_times` per ``(query, exclude_ids,
    isa_ranges)`` item — the deduplicated demand set of one
    batch-executor round — in item order."""
    return [
        monolithic_travel_times(
            index, query, fallback_tt=fallback_tt, exclude_ids=exclude_ids,
            isa_ranges=isa_ranges,
        )
        for query, exclude_ids, isa_ranges in items
    ]


def _rung_windows(
    rungs: Sequence[StrictPathQuery], stamps: Int64Array
) -> npt.NDArray[np.bool_]:
    """Per rung (rows) and entry timestamp (columns): whether the
    stamp's time of day lies in the rung's periodic window — the same
    predicate as :meth:`PeriodicInterval.contains`, stacked."""
    starts = np.empty((len(rungs), 1), dtype=np.int64)
    durations = np.empty((len(rungs), 1), dtype=np.int64)
    for position, rung in enumerate(rungs):
        window = rung.interval
        assert isinstance(window, PeriodicInterval)  # fixed: no ladder
        starts[position] = window.start_tod
        durations[position] = window.duration
    offsets = (stamps[None, :] - starts) % SECONDS_PER_DAY
    return np.asarray(offsets < durations, dtype=bool)


def choose_rung(
    rungs: Sequence[StrictPathQuery],
    chunks: Sequence[Tuple[Int64Array, TraversalColumns]],
    fallback_tt: Optional[Callable[[int], float]],
) -> Tuple[List[TravelTimeResult], Optional[StrictPathQuery],
           List[Int64Array]]:
    """Walk a widen ladder on one uncut scan of its widest rung.

    ``chunks`` are the widest rung's first-segment matches as ``(rows,
    columns)``, one per shard (one, or none, on a monolithic index).
    Every rung's window lies inside the widest one and the other
    first-edge predicates do not depend on the window, so a rung's
    matches are the widest rung's restricted to its window — in the same
    ascending row order, hence with the same ``beta`` prefix — and its
    match count is the sum of its window's counts over the chunks.

    Returns the results of the leading rungs that Procedure 5 settles
    without a probe (each exactly what a scan of that rung at its own
    width classifies), then the first rung that needs its probe join
    with its rows per chunk — or ``None`` and no rows when the walk ends
    before one.  Both readers resolve their ladders through this one
    function; the ``beta`` cut and the join stay with the caller.
    """
    inside = [
        _rung_windows(rungs, columns.t[rows]) for rows, columns in chunks
    ]
    counts = np.zeros(len(rungs), dtype=np.int64)
    for windows in inside:
        counts += windows.sum(axis=1)
    settled: List[TravelTimeResult] = []
    for position, rung in enumerate(rungs):
        n_matched = int(counts[position])
        if rung.beta is not None:
            n_matched = min(n_matched, rung.beta)
        early = classify_scan(rung, n_matched, fallback_tt)
        if early is None:
            return settled, rung, [
                rows[windows[position]]
                for (rows, _), windows in zip(chunks, inside)
            ]
        settled.append(early)
        if not early.is_empty:
            break
    return settled, None, []


def monolithic_ladder(
    index: "SNTIndex",
    query: StrictPathQuery,
    wider: Callable[[], Sequence[StrictPathQuery]],
    fallback_tt: Optional[Callable[[int], float]] = None,
    exclude_ids: Sequence[int] = (),
    isa_ranges: Optional[IsaRanges] = None,
) -> List[TravelTimeResult]:
    """Procedure 1's widen ladder over one :class:`SNTIndex`, as one call.

    ``query`` is scanned at its own width (:func:`monolithic_travel_times`);
    only if that comes back empty is ``wider()`` asked for the rungs
    above it (narrowest first, all sharing ``query``'s path, user and
    ``beta``).  The first-edge predicates are then evaluated **once**,
    over the widest rung's window and without a ``beta`` cut, and every
    rung is counted by its own time-of-day window over those rows.
    Returns one result per rung tried, in ladder order — the failed
    rungs' empty results followed by the first rung that answers, or by
    the widest rung's failure — each byte-for-byte what scanning that
    rung alone returns.
    """
    first = monolithic_travel_times(
        index,
        query,
        fallback_tt=fallback_tt,
        exclude_ids=exclude_ids,
        isa_ranges=isa_ranges,
    )
    rungs = wider() if first.is_empty else ()
    if not rungs:
        return [first]
    matches = first_segment_matches(
        index, rungs[-1], exclude_ids=exclude_ids, isa_ranges=isa_ranges
    )
    settled, chosen, parts = choose_rung(
        rungs, [] if matches is None else [matches], fallback_tt
    )
    walk = [first, *settled]
    if chosen is not None:
        assert matches is not None
        selected = parts[0]
        if chosen.beta is not None:
            selected = selected[: chosen.beta]
        values, _ = probe_travel_times(index, chosen, selected, matches[1])
        walk.append(TravelTimeResult(values, int(selected.size)))
    return walk


def count_matches(
    index: "IndexReader",
    path: Sequence[int],
    interval: TimeInterval,
    user: Optional[int] = None,
    exclude_ids: Sequence[int] = (),
    limit: Optional[int] = None,
) -> int:
    """Exact number of trajectories matching a strict path predicate.

    Used by the longest-prefix splitter (``sigma_L``) and as the q-error
    ground truth ``n = |T|``.  ``limit`` caps the count (early
    termination) when only a threshold comparison is needed.  Dispatches
    through the :class:`~repro.sntindex.reader.IndexReader` surface, so
    monolithic and sharded readers both work.
    """
    return index.count_matches(
        path,
        interval,
        user=user,
        exclude_ids=exclude_ids,
        limit=limit,
    )


def monolithic_count_matches(
    index: "SNTIndex",
    path: Sequence[int],
    interval: TimeInterval,
    user: Optional[int] = None,
    exclude_ids: Sequence[int] = (),
    limit: Optional[int] = None,
) -> int:
    """The count behind :meth:`SNTIndex.count_matches` (one index)."""
    query = StrictPathQuery(
        path=tuple(path), interval=interval, user=user, beta=limit
    )
    matches = first_segment_matches(
        index, query, exclude_ids=exclude_ids, beta=limit
    )
    if matches is None:
        return 0
    selected, _ = matches
    return int(selected.size)
