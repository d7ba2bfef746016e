"""Per-segment temporal index forest (paper Sections 4.1.2-4.1.3, 4.3.1).

``F = {Phi_e | e in E}`` holds one temporal index per segment, keyed by the
entry timestamp ``t`` of each traversal.  Two tree variants are supported:

* ``"css"`` — the CSS-tree over the sorted timestamp column (default; the
  paper's optimised configuration), and
* ``"btree"`` — a B+-tree multimap (the original SNT-index configuration).

The forest answers *time-predicate* row selections; spatial (ISA range) and
user filtering happen in :mod:`repro.sntindex.procedures` on top of the row
sets returned here.

Sorted auxiliary orders
-----------------------
Besides the primary ``t``-sorted leaf order, each edge index holds two
sort permutations, its slices of the forest's flat ``perm_tod`` /
``perm_probe``:

* ``tod_order`` — rows sorted by time of day.  A periodic predicate then
  reduces to at most two ``searchsorted`` cuts on the sorted
  time-of-day column (plus an O(k log k) re-sort of the selected rows back
  to scan order), and ``count_periodic`` to the cut widths alone —
  O(log n) instead of the former full-column ``np.mod`` pass per query.
* ``probe_order`` — rows sorted by the packed ``(d, seq)`` composite key
  (:func:`repro.temporal.records.pack_probe_keys`).  The retrieval's
  probe join binary-searches this order instead of scanning the whole
  ``d`` column per query.

Both orders are pure functions of the (immutable) columns, worked out
once when a forest is made without them (a build, an append, a
compaction, or a v2.0 directory opened) and adopted zero-copy from a
saved index that carries them (format v2.1 on), once
:func:`~repro.sntindex.persistence.load_index` has proven them and the
``t`` order over bounded blocks of whole segments.  Both are
:data:`~repro.temporal.records.ORDER_DTYPE` (int32) positions within a
segment, as is a segment's sorted time-of-day column; the rows they
select are widened to int64 only where a query takes them.

Periodic scans
--------------
A periodic time-of-day predicate selects every traversal whose time of day
falls in a window, across all days (paper Section 2.3).  The CSS variant
evaluates it on the sorted time-of-day order as described above.  The
B+-tree variant performs one range scan per day, which is the faithful
tree access path and is measurably slower, matching the relationship shown
in Figure 11b.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
import numpy.typing as npt

from ..config import SECONDS_PER_DAY
from ..errors import IndexError_
from .btree import BPlusTree
from .css_tree import CSSTree
from .records import (
    COLUMN_DTYPES,
    ORDER_DTYPE,
    TraversalColumns,
    pack_probe_keys,
)

__all__ = ["EdgeTemporalIndex", "TemporalForest"]

Int64Array = npt.NDArray[np.int64]
OrderArray = npt.NDArray[np.int32]


def _sort_orders(
    offsets: Int64Array, columns: TraversalColumns
) -> Tuple[OrderArray, OrderArray]:
    """``(perm_tod, perm_probe)`` of flat ``columns`` whose segment
    ``i`` owns rows ``offsets[i]:offsets[i + 1]``: each segment's stable
    argsort by time of day and by packed ``(d, seq)`` key, relative to
    its own first row."""
    t, d, seq = columns.t, columns.d, columns.seq
    perm_tod = np.empty(len(columns), dtype=ORDER_DTYPE)
    perm_probe = np.empty(len(columns), dtype=ORDER_DTYPE)
    bounds = offsets.tolist()
    if int(np.diff(offsets).max(initial=0)) > np.iinfo(ORDER_DTYPE).max:
        raise IndexError_("a segment holds 2**31 traversals or more")
    for lo, hi in zip(bounds, bounds[1:]):
        perm_tod[lo:hi] = np.argsort(
            np.mod(t[lo:hi], SECONDS_PER_DAY), kind="stable"
        )
        perm_probe[lo:hi] = np.argsort(
            pack_probe_keys(d[lo:hi], seq[lo:hi]), kind="stable"
        )
    return perm_tod, perm_probe


class EdgeTemporalIndex:
    """Temporal index ``Phi_e`` of one segment."""

    def __init__(
        self,
        columns: TraversalColumns,
        tod_order: OrderArray,
        probe_order: OrderArray,
        kind: str = "css",
        edge: Optional[int] = None,
    ) -> None:
        if kind not in ("css", "btree"):
            raise ValueError(f"unknown temporal index kind {kind!r}")
        self.kind = kind
        self.columns = columns
        #: The segment this index belongs to (named in errors).
        self.edge = edge
        self._n_rows = len(columns)
        #: Rows sorted by time of day, and by the packed ``(d, seq)``
        #: key; both stable, so equal keys keep scan order.
        self.tod_order = tod_order
        self.probe_order = probe_order
        self._tod_sorted: Optional[OrderArray] = None
        self._probe_keys_sorted: Optional[Int64Array] = None
        if kind == "css":
            self.tree: Union[CSSTree, BPlusTree] = CSSTree(columns.t)
        else:
            tree = BPlusTree()
            for row, key in enumerate(columns.t.tolist()):
                tree.insert(key, row)
            self.tree = tree

    def __len__(self) -> int:
        return self._n_rows

    @property
    def supports_fast_count(self) -> bool:
        """Only the CSS-tree can count a key range in O(log n)."""
        return self.kind == "css"

    def min_t(self) -> Optional[int]:
        return self.tree.min_key()

    def max_t(self) -> Optional[int]:
        return self.tree.max_key()

    # ------------------------------------------------------------------ #
    # Sorted auxiliary orders
    # ------------------------------------------------------------------ #

    def _tod_sorted_keys(self) -> OrderArray:
        if self._tod_sorted is None:
            # ``take``: numpy's fancy indexing by an int32 index array
            # is several times slower than by an intp one; ``take`` is not.
            self._tod_sorted = np.mod(
                self.columns.t.take(self.tod_order), SECONDS_PER_DAY
            ).astype(ORDER_DTYPE)
        return self._tod_sorted

    def probe_keys_sorted(self) -> Int64Array:
        """The packed ``(d, seq)`` keys in :attr:`probe_order` order,
        strictly increasing.

        A trajectory traverses each ``seq`` once and trajectory ids are
        unique, so an edge holds at most one record per key; the probe
        join relies on it.  Checked once per edge, when the keys are
        first sorted: a repeated key raises ``IndexError_``.
        """
        if self._probe_keys_sorted is None:
            keys: Int64Array = self.columns.probe_keys()
            ordered = np.asarray(keys.take(self.probe_order), dtype=np.int64)
            if ordered.size > 1 and (ordered[1:] == ordered[:-1]).any():
                raise IndexError_(
                    f"edge {self.edge}: a (d, seq) probe key occurs more "
                    "than once; each traversal must be recorded once"
                )
            self._probe_keys_sorted = ordered
        return self._probe_keys_sorted

    def _periodic_cuts(
        self, start_tod: int, duration: int
    ) -> List[Tuple[int, int]]:
        """Tod-sorted position ranges covering the periodic window.

        Callers guarantee ``0 <= start_tod < SECONDS_PER_DAY`` and
        ``0 < duration < SECONDS_PER_DAY``; the window is at most two
        contiguous runs of the sorted time-of-day column (one when it
        does not wrap midnight).
        """
        end = start_tod + duration
        bounds = (
            (start_tod, end)
            if end <= SECONDS_PER_DAY
            else (start_tod, SECONDS_PER_DAY, 0, end - SECONDS_PER_DAY)
        )
        # One search for every bound: positions come out as (a, b) pairs.
        # The bounds are cast to the keys' dtype: bounds of another would
        # make numpy cast the whole sorted column on every call.
        at: List[int] = (
            self._tod_sorted_keys()
            .searchsorted(np.asarray(bounds, dtype=ORDER_DTYPE))
            .tolist()
        )
        return [(a, b) for a, b in zip(at[::2], at[1::2]) if b > a]

    # ------------------------------------------------------------------ #
    # Row selection by time predicate
    # ------------------------------------------------------------------ #

    def rows_fixed(self, lo: int, hi: int) -> Int64Array:
        """Rows with ``lo <= t < hi`` in ascending ``t`` order."""
        if lo >= hi or not self._n_rows:
            return np.empty(0, dtype=np.int64)
        if self.kind == "css":
            assert isinstance(self.tree, CSSTree)
            start, stop = self.tree.bounds_fast(lo, hi)
            return np.arange(start, stop, dtype=np.int64)
        assert isinstance(self.tree, BPlusTree)
        return np.asarray(self.tree.range_values(lo, hi), dtype=np.int64)

    def rows_fixed_many(
        self, los: Sequence[int], his: Sequence[int]
    ) -> List[Int64Array]:
        """:meth:`rows_fixed` per ``(lo, hi)`` pair.  No ``src/`` caller;
        kept because ``benchmarks/perf/spans.py`` binds it by name."""
        return [self.rows_fixed(lo, hi) for lo, hi in zip(los, his)]

    def rows_periodic(self, start_tod: int, duration: int) -> Int64Array:
        """Rows whose time of day lies in the periodic window.

        The window covers ``[start_tod, start_tod + duration)`` modulo one
        day; ``duration >= SECONDS_PER_DAY`` selects every row.
        """
        if duration <= 0 or not self._n_rows:
            return np.empty(0, dtype=np.int64)
        if duration >= SECONDS_PER_DAY:
            return np.arange(self._n_rows, dtype=np.int64)
        start_tod = int(start_tod) % SECONDS_PER_DAY
        if self.kind == "css":
            order = self.tod_order
            cuts = self._periodic_cuts(start_tod, duration)
            if not cuts:
                return np.empty(0, dtype=np.int64)
            if len(cuts) == 1:
                selected = order[cuts[0][0] : cuts[0][1]].astype(np.int64)
            else:
                selected = np.concatenate(
                    [order[a:b] for a, b in cuts], dtype=np.int64
                )
            # Ascending row position == ascending entry time (scan order),
            # exactly what the former np.mod full-column pass emitted.
            # ``selected`` is a copy, never a view of the permutation.
            selected.sort()
            return selected
        return self._rows_periodic_btree(start_tod, duration)

    def rows_periodic_many(
        self, start_tods: Sequence[int], durations: Sequence[int]
    ) -> List[Int64Array]:
        """:meth:`rows_periodic` per ``(start, duration)`` pair.  No
        ``src/`` caller; kept because ``benchmarks/perf/spans.py`` binds
        it by name."""
        return [
            self.rows_periodic(start, duration)
            for start, duration in zip(start_tods, durations)
        ]

    def _rows_periodic_btree(
        self, start_tod: int, duration: int
    ) -> Int64Array:
        """One B+-tree range scan per day of the data span."""
        assert isinstance(self.tree, BPlusTree)
        lo_t, hi_t = self.tree.min_key(), self.tree.max_key()
        if lo_t is None or hi_t is None:
            return np.empty(0, dtype=np.int64)
        first_day = (lo_t - start_tod - duration) // SECONDS_PER_DAY
        last_day = (hi_t - start_tod) // SECONDS_PER_DAY
        collected: List[int] = []
        for day in range(first_day, last_day + 1):
            window_lo = day * SECONDS_PER_DAY + start_tod
            collected.extend(
                self.tree.range_values(window_lo, window_lo + duration)
            )
        return np.asarray(collected, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Counting
    # ------------------------------------------------------------------ #

    def count_fixed(self, lo: int, hi: int) -> int:
        """Exact count of rows in ``[lo, hi)``.

        O(log n) for the CSS-tree; O(k) leaf walking for the B+-tree (the
        reason the paper's BT estimator modes use the naive formula (3)).
        """
        if lo >= hi:
            return 0
        return self.tree.range_count(lo, hi)

    def count_periodic(self, start_tod: int, duration: int) -> int:
        """Exact count of rows in the periodic window.

        O(log n) on the CSS variant — the count is the width of the (at
        most two) sorted time-of-day cuts, no row materialisation.
        """
        if duration <= 0 or not len(self):
            return 0
        if duration >= SECONDS_PER_DAY:
            return len(self)
        if self.kind != "css":
            return int(self.rows_periodic(start_tod, duration).size)
        start_tod = int(start_tod) % SECONDS_PER_DAY
        return sum(b - a for a, b in self._periodic_cuts(start_tod, duration))

    def size_in_bytes(self, with_partition_id: bool = True) -> int:
        """Leaf payload plus tree structure, using the C++-layout model."""
        return self.columns.size_in_bytes(with_partition_id) + (
            self.tree.size_in_bytes() if self.kind == "btree" else
            self.tree.size_in_bytes() - 8 * len(self)  # keys shared w/ leaves
        )


class TemporalForest:
    """The forest ``F``: one :class:`EdgeTemporalIndex` per segment.

    The leaves of every segment are held as one set of flat columns
    sorted by ``(edge, t)``: segment ``edge_ids[i]`` owns rows
    ``offsets[i]:offsets[i + 1]``, already in its ``t`` leaf order.  A
    built index and a loaded one (whose columns are memory-mapped
    payload arrays) hold the same layout, and the saved payload *is*
    these arrays.  A segment's :class:`EdgeTemporalIndex` is built on
    the first :meth:`get`, around zero-copy slices of the columns.

    ``perm_tod`` / ``perm_probe`` are the flat time-of-day and
    probe-key sort permutations, each segment's slice relative to its
    own first row; a segment's index adopts its slices zero-copy.  A
    forest made without them (a build, or a v2.0 directory) works both
    out once, each segment's own stable sorts.
    """

    def __init__(
        self,
        kind: str,
        edge_ids: Int64Array,
        offsets: Int64Array,
        columns: TraversalColumns,
        perm_tod: Optional[OrderArray] = None,
        perm_probe: Optional[OrderArray] = None,
    ) -> None:
        if kind not in ("css", "btree"):
            raise ValueError(f"unknown temporal index kind {kind!r}")
        self.kind = kind
        self.edge_ids = edge_ids
        self.offsets = offsets
        self.columns = columns
        if perm_tod is None or perm_probe is None:
            perm_tod, perm_probe = _sort_orders(offsets, columns)
        self.perm_tod: OrderArray = perm_tod
        self.perm_probe: OrderArray = perm_probe
        bounds = offsets.tolist()
        self._slices: Dict[int, Tuple[int, int]] = {
            edge: (bounds[i], bounds[i + 1])
            for i, edge in enumerate(edge_ids.tolist())
        }
        self._indexes: Dict[int, EdgeTemporalIndex] = {}

    @classmethod
    def from_rows(
        cls, chunks: Sequence[Mapping[str, np.ndarray]], kind: str = "css"
    ) -> "TemporalForest":
        """The forest over unsorted traversal rows.

        ``chunks`` hold the rows as column dicts: ``edge`` plus every
        name of :data:`~repro.temporal.records.COLUMN_DTYPES`, in its
        dtype there (the build and a compaction make them so, having
        refused any id too large for it).  The
        rows are concatenated in chunk order and sorted stably by
        ``(edge, t)``, so rows of one segment with equal ``t`` keep
        their chunk order.  The sort key packs both into one int64,
        ``(edge << 32) | (t - t_min)``; rows whose edge or time span
        does not fit it are sorted by ``np.lexsort`` into the same
        order.  Each column is concatenated only when it is gathered.
        """

        def column(name: str) -> np.ndarray:
            return np.concatenate([chunk[name] for chunk in chunks])

        edge = column("edge").astype(np.int64, copy=False)
        t = column("t").astype(np.int64, copy=False)
        t_min = int(t.min()) if t.size else 0
        if edge.size and (
            int(edge.max()) >= 1 << 31 or int(t.max()) - t_min >= 1 << 32
        ):
            order = np.lexsort((t, edge))
        else:
            key = (edge << 32) | (t - t_min)
            order = np.argsort(key, kind="stable")
            # Freed before the columns are gathered: it is as large as
            # any of them.
            del key
        edge = edge[order]
        # Each segment's first row: where the sorted edge column changes.
        first = np.flatnonzero(np.diff(edge, prepend=edge[:1] - 1))
        edge_ids, offsets = edge[first], np.append(first, edge.size)
        del edge
        gathered = {"t": t[order]}
        del t
        for name, dtype in COLUMN_DTYPES.items():
            if name not in gathered:
                gathered[name] = column(name)[order].astype(dtype, copy=False)
        # Freed before the constructor sorts the permutations, each as
        # large as ``order``.
        del order
        return cls(kind, edge_ids, offsets, TraversalColumns(**gathered))

    def __contains__(self, edge: int) -> bool:
        return int(edge) in self._slices

    def __len__(self) -> int:
        return len(self._slices)

    def edges(self) -> Iterable[int]:
        return self._slices.keys()

    def get(self, edge: int) -> Optional[EdgeTemporalIndex]:
        """Index of ``edge`` or ``None`` when no trajectory traversed it."""
        edge = int(edge)
        built = self._indexes.get(edge)
        if built is not None:
            return built
        bounds = self._slices.get(edge)
        if bounds is None:
            return None
        lo, hi = bounds
        columns = self.columns
        built = EdgeTemporalIndex(
            TraversalColumns(**{
                name: getattr(columns, name)[lo:hi] for name in COLUMN_DTYPES
            }),
            self.perm_tod[lo:hi],
            self.perm_probe[lo:hi],
            kind=self.kind,
            edge=edge,
        )
        self._indexes[edge] = built
        return built

    def materialise(self) -> None:
        """Build every segment's temporal index now, not on first use."""
        for edge in self._slices:
            self.get(edge)

    def total_records(self) -> int:
        return len(self.columns)

    def row_edges(self) -> Int64Array:
        """The segment of every row of :attr:`columns`."""
        return np.repeat(self.edge_ids, np.diff(self.offsets))

    def time_bounds(self) -> Optional[Tuple[int, int]]:
        """``(min, max)`` entry timestamp over every segment, or
        ``None`` for an empty forest: each segment's first and last
        ``t``, two reads per segment."""
        lo, hi = self.offsets[:-1], self.offsets[1:]
        filled = hi > lo
        if not filled.any():
            return None
        t = self.columns.t
        return int(t[lo[filled]].min()), int(t[hi[filled] - 1].max())

    def size_in_bytes(self, with_partition_id: bool = True) -> int:
        # Size accounting is a model over the leaf payload; it builds
        # every segment's index (experiments that cost the structure
        # touch every edge anyway).
        self.materialise()
        return sum(
            index.size_in_bytes(with_partition_id)
            for index in self._indexes.values()
        )
