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
Besides the primary ``t``-sorted leaf order, each edge index maintains two
lazily built (and optionally persisted) sort permutations:

* ``tod_order`` — rows sorted by time of day.  A periodic predicate then
  reduces to at most two ``searchsorted`` cuts on the sorted
  time-of-day column (plus an O(k log k) re-sort of the selected rows back
  to scan order), and ``count_periodic`` to the cut widths alone —
  O(log n) instead of the former full-column ``np.mod`` pass per query.
* ``probe_order`` — rows sorted by the packed ``(d, seq)`` composite key
  (:func:`repro.temporal.records.pack_probe_keys`).  The retrieval's
  probe join binary-searches this order instead of scanning the whole
  ``d`` column per query.

Both orders are pure functions of the (immutable) columns, so adopting
them from a saved index (format v2.1) is safe and zero-copy; v2 payloads
without them simply rebuild the orders on first use.

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

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from ..config import SECONDS_PER_DAY
from .btree import BPlusTree
from .css_tree import CSSTree
from .records import TraversalColumns

__all__ = ["EdgeTemporalIndex", "TemporalForest", "SlicedTemporalForest"]

Int64Array = npt.NDArray[np.int64]


def _adopt_permutation(
    permutation: Optional[Int64Array], n_rows: int
) -> Optional[Int64Array]:
    """Accept a persisted sort permutation if its shape fits the columns."""
    if permutation is None or int(permutation.size) != n_rows:
        return None
    return permutation


class EdgeTemporalIndex:
    """Temporal index ``Phi_e`` of one segment."""

    def __init__(
        self,
        columns: TraversalColumns,
        kind: str = "css",
        tod_order: Optional[Int64Array] = None,
        probe_order: Optional[Int64Array] = None,
    ) -> None:
        if kind not in ("css", "btree"):
            raise ValueError(f"unknown temporal index kind {kind!r}")
        self.kind = kind
        self.columns = columns
        n_rows = len(columns)
        self._tod: Int64Array = (
            np.mod(columns.t, SECONDS_PER_DAY)
            if n_rows
            else np.empty(0, np.int64)
        )
        # Sorted auxiliary orders: adopted from persistence when offered
        # (zero-copy mmap slices), else built lazily on first use.
        self._tod_order = _adopt_permutation(tod_order, n_rows)
        self._probe_order = _adopt_permutation(probe_order, n_rows)
        self.tod_order_adopted = self._tod_order is not None
        self.probe_order_adopted = self._probe_order is not None
        self._tod_sorted: Optional[Int64Array] = None
        self._probe_keys_sorted: Optional[Int64Array] = None
        if kind == "css":
            self.tree: Union[CSSTree, BPlusTree] = CSSTree(columns.t)
        else:
            tree = BPlusTree()
            for row, key in enumerate(columns.t.tolist()):
                tree.insert(key, row)
            self.tree = tree

    def __len__(self) -> int:
        return len(self.columns)

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

    @property
    def tod_order(self) -> Int64Array:
        """Permutation sorting rows by time of day (stable, so equal
        times keep scan order)."""
        if self._tod_order is None:
            self._tod_order = np.argsort(self._tod, kind="stable").astype(
                np.int64, copy=False
            )
        return self._tod_order

    def _tod_sorted_keys(self) -> Int64Array:
        if self._tod_sorted is None:
            self._tod_sorted = np.asarray(
                self._tod[self.tod_order], dtype=np.int64
            )
        return self._tod_sorted

    @property
    def probe_order(self) -> Int64Array:
        """Permutation sorting rows by the packed ``(d, seq)`` key."""
        if self._probe_order is None:
            self._probe_order = np.argsort(
                self.columns.probe_keys(), kind="stable"
            ).astype(np.int64, copy=False)
        return self._probe_order

    def probe_keys_sorted(self) -> Int64Array:
        """The packed ``(d, seq)`` keys in :attr:`probe_order` order."""
        if self._probe_keys_sorted is None:
            keys: Int64Array = self.columns.probe_keys()
            self._probe_keys_sorted = np.asarray(
                keys[self.probe_order], dtype=np.int64
            )
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
        keys = self._tod_sorted_keys()
        end = start_tod + duration
        segments = [(start_tod, min(end, SECONDS_PER_DAY))]
        if end > SECONDS_PER_DAY:
            segments.append((0, end - SECONDS_PER_DAY))
        cuts: List[Tuple[int, int]] = []
        for lo, hi in segments:
            a = int(np.searchsorted(keys, lo, side="left"))
            b = int(np.searchsorted(keys, hi, side="left"))
            if b > a:
                cuts.append((a, b))
        return cuts

    # ------------------------------------------------------------------ #
    # Row selection by time predicate
    # ------------------------------------------------------------------ #

    def rows_fixed(self, lo: int, hi: int) -> Int64Array:
        """Rows with ``lo <= t < hi`` in ascending ``t`` order."""
        if lo >= hi or not len(self):
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
        if duration <= 0 or not len(self):
            return np.empty(0, dtype=np.int64)
        if duration >= SECONDS_PER_DAY:
            return np.arange(len(self), dtype=np.int64)
        start_tod = int(start_tod) % SECONDS_PER_DAY
        if self.kind == "css":
            order = self.tod_order
            cuts = self._periodic_cuts(start_tod, duration)
            if not cuts:
                return np.empty(0, dtype=np.int64)
            if len(cuts) == 1:
                selected = order[cuts[0][0] : cuts[0][1]]
            else:
                selected = np.concatenate([order[a:b] for a, b in cuts])
            # Ascending row position == ascending entry time (scan order),
            # exactly what the former np.mod full-column pass emitted.
            return np.asarray(np.sort(selected), dtype=np.int64)
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
    """The forest ``F``: one :class:`EdgeTemporalIndex` per segment."""

    def __init__(self, kind: str = "css") -> None:
        if kind not in ("css", "btree"):
            raise ValueError(f"unknown temporal index kind {kind!r}")
        self.kind = kind
        self._indexes: Dict[int, EdgeTemporalIndex] = {}

    @classmethod
    def build(
        cls, per_edge_columns: Dict[int, TraversalColumns], kind: str = "css"
    ) -> "TemporalForest":
        forest = cls(kind=kind)
        for edge, columns in per_edge_columns.items():
            forest._indexes[int(edge)] = EdgeTemporalIndex(columns, kind=kind)
        return forest

    def __contains__(self, edge: int) -> bool:
        return int(edge) in self._indexes

    def __len__(self) -> int:
        return len(self._indexes)

    def edges(self) -> Iterable[int]:
        return self._indexes.keys()

    def get(self, edge: int) -> Optional[EdgeTemporalIndex]:
        """Index of ``edge`` or ``None`` when no trajectory traversed it."""
        return self._indexes.get(int(edge))

    def total_records(self) -> int:
        return sum(len(index) for index in self._indexes.values())

    def size_in_bytes(self, with_partition_id: bool = True) -> int:
        return sum(
            index.size_in_bytes(with_partition_id)
            for index in self._indexes.values()
        )


class SlicedTemporalForest(TemporalForest):
    """A forest whose per-edge indexes materialise on first access.

    Backed by the persistence layer's concatenated column arrays (one
    slice per edge, each slice already sorted by ``t`` — the on-disk
    order is the forest's leaf order), typically opened with
    ``mmap_mode="r"``.  Opening a saved index therefore touches no
    column data; an edge's tree directory is built the first time a
    query reaches that edge, from zero-copy slices of the mapped
    arrays, and cached like any built :class:`EdgeTemporalIndex`.

    Format v2.1 payloads additionally carry the two per-edge sort
    permutations (time-of-day and probe-key order), concatenated with
    the same offset table; their slices are handed to each edge index
    zero-copy, so neither order is ever re-sorted after a load.  v2
    payloads without them pass ``None`` and the orders build lazily.
    """

    def __init__(
        self,
        kind: str,
        edge_ids: Int64Array,
        offsets: Int64Array,
        columns: Dict[str, np.ndarray],
        tod_order: Optional[Int64Array] = None,
        probe_order: Optional[Int64Array] = None,
    ) -> None:
        super().__init__(kind=kind)
        self._columns = columns
        self._perm_tod = tod_order
        self._perm_probe = probe_order
        self._bounds: Dict[int, Tuple[int, int]] = {
            int(edge): (int(offsets[i]), int(offsets[i + 1]))
            for i, edge in enumerate(edge_ids)
        }

    def __contains__(self, edge: int) -> bool:
        return int(edge) in self._bounds

    def __len__(self) -> int:
        return len(self._bounds)

    def edges(self) -> Iterable[int]:
        return self._bounds.keys()

    def get(self, edge: int) -> Optional[EdgeTemporalIndex]:
        edge = int(edge)
        built = self._indexes.get(edge)
        if built is not None:
            return built
        bounds = self._bounds.get(edge)
        if bounds is None:
            return None
        lo, hi = bounds
        cols = self._columns
        # The slices are pre-sorted by ``t``; constructing the dataclass
        # directly skips ``from_arrays``'s argsort (and any copy).
        columns = TraversalColumns(
            t=cols["t"][lo:hi],
            isa=cols["isa"][lo:hi],
            d=cols["d"][lo:hi],
            tt=cols["tt"][lo:hi],
            a=cols["a"][lo:hi],
            seq=cols["seq"][lo:hi],
            w=cols["w"][lo:hi],
        )
        built = EdgeTemporalIndex(
            columns,
            kind=self.kind,
            tod_order=(
                self._perm_tod[lo:hi]
                if self._perm_tod is not None
                else None
            ),
            probe_order=(
                self._perm_probe[lo:hi]
                if self._perm_probe is not None
                else None
            ),
        )
        self._indexes[edge] = built
        return built

    def total_records(self) -> int:
        return sum(hi - lo for lo, hi in self._bounds.values())

    def size_in_bytes(self, with_partition_id: bool = True) -> int:
        # Size accounting is a model over the leaf payload; it forces
        # materialisation (experiments that cost the structure touch
        # every edge anyway).
        total = 0
        for edge in self.edges():
            phi = self.get(edge)
            assert phi is not None
            total += phi.size_in_bytes(with_partition_id)
        return total
