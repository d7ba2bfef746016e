"""Travel-time retrieval procedures (paper Procedures 3-5).

``buildMap`` scans the temporal index of the *first* segment of a query
path, filtering by time interval, ISA range and user predicate, and maps
``(d, seq)`` to the antecedent aggregate ``a - TT``.  ``probeMap`` scans
the *last* segment and emits ``a_last - (a_first - TT_first)`` — the exact
travel time over the whole path — for every record whose ``(d, seq + 1 -
l)`` hits the map.  ``get_travel_times`` (Procedure 5) glues both together
behind the FM-index ISA range.

The implementation is column-oriented: the forest returns candidate row
positions for the time predicate, and ISA/user/exclusion filters are
numpy masks.  Matches are taken in ascending entry time and the scan
stops at ``beta`` of them, as the paper's early termination does
(Procedure 3 line 6): the masks run over a prefix of the candidate rows
that doubles until it holds ``beta`` matches, not over all of them.  The time-side row
list itself is still selected in full; only its filtering stops early.

The probe itself is a sorted-key join, not a hash map: both sides pack
``(d, seq)`` into one int64 composite key
(:func:`repro.temporal.records.pack_probe_keys`), the last segment keeps
a lazily built (and persisted) sort permutation over that key
(:attr:`repro.temporal.forest.EdgeTemporalIndex.probe_order`), and the
probe answers with one ``np.searchsorted`` pass plus an equality mask —
no Python dict, no per-row loop, no full-column membership scan.  The
key is unique: a trajectory visits each ``seq`` once and trajectory ids
are unique across shards, so an edge holds at most one record per
``(d, seq)`` and each first-segment match hits at most one last-segment
row.  That is enforced, not assumed: a repeated key on an edge, or a
last-segment row hit twice, raises :class:`~repro.errors.IndexError_`
naming the edge.  Emission order reproduces the historical candidate
scan by sorting the hit rows back to ascending column position.

Procedure 5 runs over *chunks* ``(shard, rows, columns)``: a reader's
scan (its ``chunks_of``) hands over the non-empty first-segment matches
of every temporal-partition run it holds — one chunk on a monolithic
index, one per routed shard on a sharded one — and
:func:`cut_and_probe` does the rest once for both: the global ascending
entry-time ``beta`` cut, the classification, one
:func:`probe_travel_times` per chunk and the merge on ``(entry time,
shard order)``, which reproduces the monolithic row order exactly
because each shard's rows are a stable restriction of the monolithic
t-sorted columns.

On top of it sits the *ladder walk* the engine's fetch stage calls
(:func:`walk_ladder`, looped over a round's demands by each reader's
``walk_ladder_many``): Procedure 1 widens a failing periodic sub-query
rung by rung, and every rung's matches are a subset of the widest
rung's, so one uncut scan of the widest window counts them all and
:func:`choose_rung` jumps to the first rung that meets ``beta`` — the
paper's cardinality-estimator idea (Section 4.4) made exact.

Every ``*_many`` form is a plain loop over its scalar form, in item
order: walk dedup has already folded the identical sub-queries of a
round, and what is left almost never shares a first (or last) edge or a
shard scan (ROADMAP item 1 has the measured group sizes), so stacking a
group's work costs more than it shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
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
from ..errors import IndexError_
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
    "classify_scan",
    "cut_and_probe",
    "choose_rung",
    "walk_ladder",
    "count_matches",
    "monolithic_count_matches",
]

Int64Array = npt.NDArray[np.int64]
Float64Array = npt.NDArray[np.float64]
IsaRanges = List[Tuple[int, int, int]]
FallbackTT = Optional[Callable[[int], float]]
#: One scan work item: ``(query, exclude_ids, beta, isa_ranges)``.
MatchItem = Tuple[StrictPathQuery, Sequence[int], Optional[int],
                  Optional[IsaRanges]]
#: One probe work item: ``(query, selected_rows, first_columns)``.
ProbeEntry = Tuple[StrictPathQuery, Int64Array, TraversalColumns]
#: One shard's non-empty first-segment matches: ``(shard, rows,
#: columns)``, the rows in ascending entry time.
Chunk = Tuple["SNTIndex", Int64Array, TraversalColumns]
#: A reader's scan: the chunks of one :data:`MatchItem`, in shard order.
ChunksOf = Callable[
    [StrictPathQuery, Sequence[int], Optional[int], Optional[IsaRanges]],
    List[Chunk],
]


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


def _interval_rows(
    index_edge: EdgeTemporalIndex, interval: TimeInterval
) -> Int64Array:
    if isinstance(interval, PeriodicInterval):
        return index_edge.rows_periodic(interval.start_tod, interval.duration)
    assert isinstance(interval, FixedInterval)
    return index_edge.rows_fixed(interval.start, interval.end)


#: A ``beta``-cut scan filters its first ``_FIRST_CHUNK_BETAS * beta``
#: time-side rows, then doubles the filtered prefix until ``beta`` rows
#: match.  Measured on ``trip-cold``: first chunks of 4, 8 and 16 times
#: ``beta`` ran flat within noise, 32 times was slower.
_FIRST_CHUNK_BETAS = 8


def _sorted_ids(exclude_ids: Sequence[int]) -> Int64Array:
    """The exclusion set as an ascending int64 array.  Free for an
    ascending int64 array — the engine makes one per trip and hands it
    to every scan."""
    ids = np.asarray(exclude_ids, dtype=np.int64)
    if ids.size > 1 and not (ids[1:] >= ids[:-1]).all():
        ids = np.sort(ids)
    return ids


def _not_excluded(d: Int64Array, ids: Int64Array) -> npt.NDArray[np.bool_]:
    """Mask of the trajectory ids ``d`` outside the (non-empty, sorted)
    exclusion set: one comparison for a one-id set (the evaluation
    workload's own trajectory), else one binary search per row."""
    if ids.size == 1:
        return d != ids[0]
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

    With ``beta`` set the scan stops early (Procedure 3 line 6): the
    ISA, user and exclusion filters run over a doubling prefix of the
    ascending time-side rows and stop once ``beta`` rows match, so the
    result is the first ``beta`` of the uncut matches, exactly.
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
    columns = phi0.columns
    if rows.size == 0:
        return rows, columns

    user = query.user
    excluded = _sorted_ids(exclude_ids) if len(exclude_ids) else None
    # One ISA range (every FULL index, most partitioned ones) is two
    # scalar bounds, plus a partition test only when there are several
    # partitions; several ranges are looked up per row's partition.
    w_only, st, ed = ranges[0]
    several_w = index.n_partitions > 1
    several_ranges = len(ranges) > 1
    if several_ranges:
        st_per_w = np.zeros(index.n_partitions, dtype=np.int64)
        ed_per_w = np.zeros(index.n_partitions, dtype=np.int64)
        for w, lo, hi in ranges:
            st_per_w[w], ed_per_w[w] = lo, hi

    # The id columns are narrower than intp, and numpy's fancy indexing
    # by such an index array is several times slower than ``take`` or
    # an intp index.
    def matching(candidates: Int64Array) -> Int64Array:
        isa = columns.isa[candidates]
        if several_ranges:
            w_sel = columns.w[candidates].astype(np.intp)
            mask = (isa >= st_per_w[w_sel]) & (isa < ed_per_w[w_sel])
        else:
            mask = (isa >= st) & (isa < ed)
            if several_w:
                mask &= columns.w[candidates] == w_only
        if user is not None or excluded is not None:
            d = columns.d[candidates]
            if user is not None:
                mask &= index.users.take(d) == user
            if excluded is not None:
                mask &= _not_excluded(d, excluded)
        return candidates[mask]

    if beta is None:
        return matching(rows), columns
    stop = _FIRST_CHUNK_BETAS * beta
    selected = matching(rows[:stop])
    while selected.size < beta and stop < rows.size:
        selected = np.concatenate((selected, matching(rows[stop : 2 * stop])))
        stop *= 2
    return selected[:beta], columns  # ascending entry time (Procedure 3)


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


def _probe_entry(
    index: "SNTIndex",
    query: StrictPathQuery,
    selected: Int64Array,
    columns: TraversalColumns,
) -> Tuple[Float64Array, Int64Array]:
    """One query's map build and probe (Procedures 3-4).

    A first-segment match ``(d, seq)`` on a path of ``l`` segments
    probes for the last-segment record ``(d, seq + l - 1)``.  Keys are
    unique per edge, so each probe hits at most one row: one
    ``searchsorted`` into the last segment's sorted probe keys and an
    equality test find them all.  Sorting the hit rows ascending
    restores the historical candidate-scan emission order; a row hit
    twice (two matches sharing a key) shows up there as equal
    neighbours and raises :class:`~repro.errors.IndexError_`.  The value
    of a hit is ``a_last - (a_first - TT_first)``.  Single-segment paths
    bypass the join.
    """
    if query.length == 1:
        # The first segment is the last: X is the TT column directly.
        return (
            columns.tt[selected].astype(np.float64, copy=True),
            np.asarray(columns.t[selected], dtype=np.int64),
        )
    phi_last = index.edge_index(query.path[-1])
    # No last-segment data: impossible when the ISA range was non-empty.
    if phi_last is None or len(phi_last) == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    keys_sorted = phi_last.probe_keys_sorted()
    # (d, seq) packs as d << 32 | seq, so adding l - 1 to the packed key
    # adds it to seq.
    targets = pack_probe_keys(columns.d[selected], columns.seq[selected])
    targets += np.int64(query.length - 1)
    at = keys_sorted.searchsorted(targets)
    np.minimum(at, keys_sorted.size - 1, out=at)
    hit = keys_sorted[at] == targets
    # Widened once: the rows index three gathers below.
    rows = phi_last.probe_order[at[hit]].astype(np.intp)
    emit = rows.argsort()
    rows = rows[emit]
    if rows.size > 1 and (rows[1:] == rows[:-1]).any():
        raise IndexError_(
            f"edge {query.path[-1]}: a last-segment record is probed by "
            "two first-segment matches; (d, seq) keys must be unique"
        )
    first = selected[hit][emit]
    last = phi_last.columns
    return last.a[rows] - (columns.a[first] - columns.tt[first]), last.t[rows]


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
    fallback_tt: FallbackTT = None,
    exclude_ids: Sequence[int] = (),
    isa_ranges: Optional[IsaRanges] = None,
) -> TravelTimeResult:
    """Procedure 5: retrieve ``X`` for ``spq(P, I, f, beta)``.

    Accepts any :class:`~repro.sntindex.reader.IndexReader` and
    dispatches through it; both readers run :func:`cut_and_probe` over
    the chunks of their own scan.

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
    fallback_tt: FallbackTT,
) -> Optional[TravelTimeResult]:
    """Procedure 5's pre-probe classification; ``None`` means probe."""
    beta = query.beta
    if n_matched > 0 and (beta is None or n_matched >= beta):
        return None
    empty = np.empty(0, dtype=np.float64)
    if beta is not None and n_matched < beta and is_periodic(query.interval):
        # Procedure 5 line 7: periodic queries fail below the cardinality
        # requirement; fixed-interval queries proceed regardless of beta.
        return TravelTimeResult(empty, n_matched, insufficient=True)
    if n_matched == 0:
        if query.length == 1 and fallback_tt is not None:
            estimate = np.asarray([fallback_tt(query.path[0])])
            return TravelTimeResult(estimate, 0, from_fallback=True)
        return TravelTimeResult(empty, 0)
    return None


def cut_and_probe(
    query: StrictPathQuery,
    chunks: Sequence[Chunk],
    fallback_tt: FallbackTT = None,
) -> TravelTimeResult:
    """The rest of Procedure 5 over a query's first-segment chunks.

    ``chunks`` are the non-empty matches per shard, in shard order, each
    in ascending entry time and holding at least its share of the
    ``beta`` prefix.  The global ``beta`` cut keeps the earliest
    ``beta`` rows across them (ties in shard order), Procedure 5
    classifies the global count, and every chunk's kept rows are
    probed; the probes merge on ``(entry time, shard)``.  One chunk
    needs neither the cut nor the merge: its rows are already the
    ascending prefix and its probe already in emission order.
    """
    beta = query.beta
    if len(chunks) == 1:
        shard, rows, columns = chunks[0]
        if beta is not None and rows.size > beta:
            rows = rows[:beta]
        early = classify_scan(query, int(rows.size), fallback_tt)
        if early is not None:
            return early
        values, _ = probe_travel_times(shard, query, rows, columns)
        return TravelTimeResult(values, int(rows.size))
    sizes = [int(rows.size) for _, rows, _ in chunks]
    n_matched = sum(sizes)
    if beta is not None and n_matched > beta:
        stamps = np.concatenate(
            [columns.t[rows] for _, rows, columns in chunks]
        )
        kept = np.argsort(stamps, kind="stable")[:beta]
        source = np.searchsorted(np.cumsum(sizes), kept, side="right")
        keep = np.bincount(source, minlength=len(chunks)).tolist()
        chunks = [
            (shard, rows[:n_kept], columns)
            for (shard, rows, columns), n_kept in zip(chunks, keep)
        ]
        n_matched = beta
    early = classify_scan(query, n_matched, fallback_tt)
    if early is not None:
        return early
    probes = [
        probe_travel_times(shard, query, rows, columns)
        for shard, rows, columns in chunks
        if rows.size
    ]
    merged = np.concatenate([values for values, _ in probes])
    order_t = np.concatenate([emitted_t for _, emitted_t in probes])
    return TravelTimeResult(
        merged[np.argsort(order_t, kind="stable")], n_matched
    )


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
    chunks: Sequence[Chunk],
    fallback_tt: FallbackTT,
) -> Tuple[List[TravelTimeResult], Optional[StrictPathQuery], List[Chunk]]:
    """Walk a widen ladder on one uncut scan of its widest rung.

    ``chunks`` are the widest rung's first-segment matches.  Every
    rung's window lies inside the widest one and the other first-edge
    predicates do not depend on the window, so a rung's matches are the
    widest rung's restricted to its window — in the same ascending row
    order, hence with the same ``beta`` prefix — and its match count is
    the sum of its window's counts over the chunks.

    Returns the results of the leading rungs that Procedure 5 settles
    without a probe (each exactly what a scan of that rung at its own
    width classifies), then the first rung that needs its probe join
    with its own chunks — or ``None`` and no chunks when the walk ends
    before one.
    """
    inside = [
        _rung_windows(rungs, columns.t[rows]) for _, rows, columns in chunks
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
                (shard, kept, columns)
                for (shard, rows, columns), windows in zip(chunks, inside)
                if (kept := rows[windows[position]]).size
            ]
        settled.append(early)
        if not early.is_empty:
            break
    return settled, None, []


def walk_ladder(
    chunks_of: ChunksOf,
    query: StrictPathQuery,
    wider: Callable[[], Sequence[StrictPathQuery]],
    exclude_ids: Sequence[int] = (),
    isa_ranges: Optional[IsaRanges] = None,
    fallback_tt: FallbackTT = None,
) -> List[TravelTimeResult]:
    """Procedure 1's widen ladder over one reader's scan, as one call.

    ``query`` is answered at its own width; only if that comes back
    empty is ``wider()`` asked for the rungs above it (narrowest first,
    all sharing ``query``'s path, user and ``beta``).  The first-edge
    predicates are then evaluated **once**, over the widest rung's
    window and without a ``beta`` cut, and every rung is counted by its
    own time-of-day window over those rows.  Returns one result per
    rung tried, in ladder order — the failed rungs' empty results
    followed by the first rung that answers, or by the widest rung's
    failure — each byte-for-byte what answering that rung alone returns.
    """
    first = cut_and_probe(
        query, chunks_of(query, exclude_ids, query.beta, isa_ranges),
        fallback_tt,
    )
    rungs = wider() if first.is_empty else ()
    if not rungs:
        return [first]
    settled, chosen, chunks = choose_rung(
        rungs, chunks_of(rungs[-1], exclude_ids, None, isa_ranges),
        fallback_tt,
    )
    if chosen is None:
        return [first, *settled]
    return [first, *settled, cut_and_probe(chosen, chunks, fallback_tt)]


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
