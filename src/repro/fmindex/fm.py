"""FM-index over the concatenated trajectory string.

Paper Section 4.1.1.  The index consists of the symbol-count array ``C`` and
the Burrows-Wheeler transform ``Tbwt`` stored in a wavelet tree; backward
search (Procedure 2, ``getISARange``) turns a path into the half-open range
``[st, ed)`` of inverse-suffix-array values of the trajectory positions at
which the path starts.  Its cost is O(|P| log |Sigma|) and is independent of
the number of indexed trajectories.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .bwt import bwt_from_suffix_array, symbol_counts
from .suffix_array import inverse_suffix_array, suffix_array
from .wavelet_tree import _BULK_MIN_PAIRS, WaveletTree

__all__ = ["FMIndex", "TERMINATOR"]

#: The `$` terminator symbol; smaller than every edge symbol (paper: `e > $`).
TERMINATOR = 0


class FMIndex:
    """FM-index of an integer string, with the ISA kept for index building.

    Like every BWT-based index the transform treats the text as cyclic.
    Counts are exact (non-cyclic) whenever the text ends with a terminator
    symbol that never occurs in query patterns — which the trajectory-string
    convention (``T = P_tr0 $ ... $``, paths never contain ``$``) guarantees.

    Parameters
    ----------
    text:
        The trajectory string as a sequence of non-negative integers with
        :data:`TERMINATOR` (0) separating trajectories.  Edge symbols must be
        ``>= 1``.
    alphabet_size:
        Total alphabet size (``max symbol + 1``); lets multiple temporal
        partitions share one alphabet even if a partition does not contain
        every edge.
    """

    def __init__(
        self, text: Sequence[int], alphabet_size: int | None = None
    ) -> None:
        arr = np.asarray(text, dtype=np.int64)
        if arr.size and arr.min() < 0:
            raise ValueError("FM-index symbols must be non-negative")
        if alphabet_size is None:
            alphabet_size = int(arr.max()) + 1 if arr.size else 1
        self._n = int(arr.size)
        self._alphabet_size = int(alphabet_size)
        sa = suffix_array(arr)
        self.isa: Optional[np.ndarray] = inverse_suffix_array(sa)
        self._counts = symbol_counts(arr, self._alphabet_size)
        self._bwt = WaveletTree(bwt_from_suffix_array(arr, sa))

    @classmethod
    def from_arrays(
        cls,
        n: int,
        alphabet_size: int,
        counts: np.ndarray,
        bwt: WaveletTree,
        isa: np.ndarray | None = None,
    ) -> "FMIndex":
        """Rebuild an index around existing components (no suffix sorting).

        Used by the persistence layer: ``counts`` may be a memory-mapped
        array and ``bwt`` a wavelet tree over memory-mapped node payloads.
        ``isa`` is only consumed while *building* the temporal index and is
        not persisted; a loaded index carries ``isa = None``.
        """
        self = cls.__new__(cls)
        self._n = int(n)
        self._alphabet_size = int(alphabet_size)
        self._counts = counts
        self._bwt = bwt
        self.isa = isa
        return self

    def __len__(self) -> int:
        return self._n

    @property
    def alphabet_size(self) -> int:
        return self._alphabet_size

    @property
    def counts(self) -> np.ndarray:
        """The ``C`` array; ``counts[c]`` = #symbols smaller than ``c``."""
        return self._counts

    @property
    def bwt(self) -> WaveletTree:
        """The wavelet tree holding ``Tbwt``."""
        return self._bwt

    def isa_range(self, path: Sequence[int]) -> Tuple[int, int]:
        """Backward search: Procedure 2 (``getISARange``).

        Returns the half-open ISA range ``[st, ed)`` of suffixes of the
        trajectory string that start with ``path``; ``(0, 0)`` when the path
        does not occur.
        """
        return self._backward_search(path)

    def _backward_search(self, path: Sequence[int]) -> Tuple[int, int]:
        """:meth:`isa_range` for one path.  :meth:`isa_ranges` runs small
        batches through this, not through the public method, so one
        public call stays one backward-search call to whatever counts
        them (``benchmarks/perf/spans.py`` counts patterns per call)."""
        if len(path) == 0:
            raise ValueError("isa_range requires a non-empty path")
        alphabet_size = self._alphabet_size
        counts = self._counts
        rank_pair = self._bwt.rank_pair
        symbol = int(path[-1])
        if not 0 <= symbol < alphabet_size:
            return (0, 0)
        st = int(counts[symbol])
        ed = int(counts[symbol + 1])
        for position in range(len(path) - 2, -1, -1):
            if st >= ed:
                return (0, 0)
            symbol = int(path[position])
            if not 0 <= symbol < alphabet_size:
                return (0, 0)
            base = int(counts[symbol])
            rank_st, rank_ed = rank_pair(symbol, st, ed)
            st = base + rank_st
            ed = base + rank_ed
        if st >= ed:
            return (0, 0)
        return (st, ed)

    def isa_ranges(
        self, paths: Sequence[Sequence[int]]
    ) -> List[Tuple[int, int]]:
        """Batched backward search over many paths at once.

        Bit-identical to calling :meth:`isa_range` per path — the per-path
        state machine replicates the scalar check order exactly — but paths
        advance in lockstep and each round's rank queries run as one
        multi-symbol :meth:`~repro.fmindex.wavelet_tree.WaveletTree.
        rank_pairs_frontier` descent, amortising the wavelet-tree walk
        across the whole batch even when every path wants a different
        symbol (PR-5's batched fetch stage supplies such batches).

        A batch smaller than ``_BULK_MIN_PAIRS`` can never fill a bulk
        round, so it runs the scalar search path by path (a single
        trip's prefetch is about seven paths).
        """
        if len(paths) < _BULK_MIN_PAIRS:
            return [self._backward_search(path) for path in paths]
        for path in paths:
            if len(path) == 0:
                raise ValueError("isa_range requires a non-empty path")
        alphabet_size = self._alphabet_size
        counts = self._counts
        results: List[Tuple[int, int]] = [(0, 0)] * len(paths)
        # Per-path cursor: [path, next position (scanning right-to-left),
        # st, ed, output slot].
        active: List[List[Any]] = []
        for out, path in enumerate(paths):
            symbol = int(path[-1])
            if not 0 <= symbol < alphabet_size:
                continue
            st = int(counts[symbol])
            ed = int(counts[symbol + 1])
            if len(path) > 1:
                active.append([path, len(path) - 2, st, ed, out])
            elif st < ed:
                results[out] = (st, ed)
        while active:
            step: List[List[Any]] = []
            symbols: List[int] = []
            for cursor in active:
                path, position, st, ed, out = cursor
                if st >= ed:
                    continue  # dead interval: result stays (0, 0)
                symbol = int(path[position])
                if not 0 <= symbol < alphabet_size:
                    continue  # symbol outside alphabet: (0, 0)
                step.append(cursor)
                symbols.append(symbol)
            active = []
            if len(step) < _BULK_MIN_PAIRS:
                # Small round: the scalar descent is cheaper than
                # building position arrays (and bit-identical).
                rank_pair = self._bwt.rank_pair
                for symbol, cursor in zip(symbols, step):
                    base = int(counts[symbol])
                    rank_st, rank_ed = rank_pair(symbol, cursor[2], cursor[3])
                    self._advance_cursor(
                        cursor, base + rank_st, base + rank_ed,
                        results, active,
                    )
                continue
            pairs = len(step)
            i_arr = np.fromiter(
                (c[2] for c in step), dtype=np.int64, count=pairs
            )
            j_arr = np.fromiter(
                (c[3] for c in step), dtype=np.int64, count=pairs
            )
            rank_i, rank_j = self._bwt.rank_pairs_frontier(
                symbols, i_arr, j_arr
            )
            base_arr = counts[np.asarray(symbols, dtype=np.int64)]
            st_arr = base_arr + rank_i
            ed_arr = base_arr + rank_j
            for k, cursor in enumerate(step):
                self._advance_cursor(
                    cursor, int(st_arr[k]), int(ed_arr[k]), results, active,
                )
        return results

    @staticmethod
    def _advance_cursor(
        cursor: List[Any],
        st: int,
        ed: int,
        results: List[Tuple[int, int]],
        active: List[list],
    ) -> None:
        """Step one path cursor after its rank update (shared by both the
        scalar-group and bulk-group branches of :meth:`isa_ranges`)."""
        cursor[1] -= 1
        if cursor[1] < 0:
            if st < ed:
                results[cursor[4]] = (st, ed)
        else:
            cursor[2] = st
            cursor[3] = ed
            active.append(cursor)

    def count(self, path: Sequence[int]) -> int:
        """Number of occurrences of ``path`` in the trajectory string."""
        st, ed = self.isa_range(path)
        return ed - st

    def contains(self, path: Sequence[int]) -> bool:
        """Whether any trajectory traverses ``path`` (paper Section 4.1:
        "it can be established from just the FM-index whether a given path
        is traversed at all")."""
        return self.count(path) > 0

    def size_in_bytes(self) -> int:
        """Succinct size of the index: wavelet tree + the ``C`` array.

        Exactly the resident arrays' bytes.  The inverse suffix array
        (``isa``) is build-time scaffolding — it is dropped on save and
        absent from loaded indexes — so it is deliberately excluded.
        """
        return self._bwt.size_in_bytes() + int(self._counts.nbytes)
