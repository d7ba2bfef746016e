"""Leaf records of the extended temporal index (paper Section 4.1.3).

For every traversal of a segment the temporal index stores a record

    t -> (isa, d, TT, a, seq, w)

where ``t`` is the entry timestamp, ``isa`` the inverse-suffix-array value of
the traversal's position in the trajectory string, ``d`` the trajectory id,
``TT`` the traversal time of the segment, ``seq`` the sequence number of the
segment within the trajectory, ``a`` the running travel-time aggregate
``a = sum(TT_0..TT_seq)`` and ``w`` the temporal-partition identifier
(Section 4.3.2).

Records are kept in a column store (:class:`TraversalColumns`) sorted by
``t`` so that both tree variants index the same payload rows.

Column widths
-------------
:data:`COLUMN_DTYPES` is the one statement of each column's width, in
memory and on disk alike (the saved payload is these arrays): ``t`` 8 B,
``isa`` 4 B, ``d`` 4 B (as in the paper's leaf, Figure 4), ``tt`` and
``a`` 8 B, ``seq`` 4 B and ``w`` 2 B (as in Figure 4): 38 B per record,
46 B with the forest's two sort permutations (:data:`ORDER_DTYPE`).
Every id column fits its dtype because the build refuses what would not
(:func:`column_limit`): a trajectory id of 2**31 or more, a partition
text of 2**31 symbols or more (an ``isa`` is below its text's length),
and more than 32 767 partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, NamedTuple

import numpy as np
import numpy.typing as npt

__all__ = [
    "COLUMN_DTYPES",
    "ORDER_DTYPE",
    "LeafRecord",
    "TraversalColumns",
    "column_limit",
    "pack_probe_keys",
]

#: The leaf columns in record order, with the dtype each is held in,
#: in memory and on disk.
COLUMN_DTYPES: Dict[str, npt.DTypeLike] = {
    "t": np.int64,
    "isa": np.int32,
    "d": np.int32,
    "tt": np.float64,
    "a": np.float64,
    "seq": np.int32,
    "w": np.int16,
}

#: The dtype of the forest's per-segment sort permutations (positions
#: within one segment) and of a segment's sorted time-of-day keys
#: (seconds of the day).
ORDER_DTYPE = np.int32


def column_limit(name: str) -> int:
    """The largest value column ``name`` can hold.  The build refuses a
    trajectory id above it (``d``), a partition text longer than it
    (an ``isa`` is below its text's length) and more partitions than it
    (``w`` numbers them from 0)."""
    return int(np.iinfo(np.dtype(COLUMN_DTYPES[name])).max)


def pack_probe_keys(d: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """Pack ``(d, seq)`` pairs into one int64 composite key.

    The probe join (Procedures 3-4) matches records on the pair
    ``(trajectory id, sequence number)``; packing both into one int64
    lets the join sort and binary-search a single key column.  The
    packing is order-preserving for the lexicographic ``(d, seq)``
    order because ``d`` is a non-negative trajectory id below 2**31 and
    ``seq`` a non-negative within-trajectory position below 2**31:
    both are int32 columns, the build refuses a negative id or one of
    2**31 or more, and a loaded index proves every ``d`` an id of its
    user container ``U``.
    """
    keys = np.asarray(d, dtype=np.int64) << np.int64(32)
    keys += seq
    return keys


class LeafRecord(NamedTuple):
    """One materialised leaf entry, mirroring Figure 4 of the paper."""

    t: int
    isa: int
    d: int
    tt: float
    a: float
    seq: int
    w: int


@dataclass
class TraversalColumns:
    """Columnar storage for traversal records.

    All arrays share the same length.  The whole forest's columns
    (:attr:`TemporalForest.columns
    <repro.temporal.forest.TemporalForest.columns>`) are sorted by
    ``(edge, t)``, so one segment's are a zero-copy slice of them,
    sorted by ``t`` (ties in build order); tree structures reference
    rows by position.
    """

    t: np.ndarray
    isa: np.ndarray
    d: np.ndarray
    tt: np.ndarray
    a: np.ndarray
    seq: np.ndarray
    w: np.ndarray

    @classmethod
    def empty(cls) -> "TraversalColumns":
        return cls(**{
            name: np.empty(0, dtype) for name, dtype in COLUMN_DTYPES.items()
        })

    def __len__(self) -> int:
        return int(self.t.size)

    def record(self, row: int) -> LeafRecord:
        """Materialise row ``row`` as a :class:`LeafRecord`."""
        return LeafRecord(
            t=int(self.t[row]),
            isa=int(self.isa[row]),
            d=int(self.d[row]),
            tt=float(self.tt[row]),
            a=float(self.a[row]),
            seq=int(self.seq[row]),
            w=int(self.w[row]),
        )

    def __iter__(self) -> Iterator[LeafRecord]:
        for row in range(len(self)):
            yield self.record(row)

    def validate(self) -> None:
        """Check column invariants; raises ``ValueError`` on violation."""
        n = len(self)
        for name in ("isa", "d", "tt", "a", "seq", "w"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name!r} length mismatch")
        if n and np.any(np.diff(self.t) < 0):
            raise ValueError("timestamps are not sorted")
        if n and np.any(self.tt <= 0):
            raise ValueError("traversal times must be positive")

    def probe_keys(self) -> np.ndarray:
        """Packed ``(d, seq)`` composite keys of every row (int64)."""
        return pack_probe_keys(self.d, self.seq)

    def size_in_bytes(self, with_partition_id: bool = True) -> int:
        """Byte size of one row times row count, using the C++-layout model.

        Layout per leaf record (paper Figure 4): ``t`` 8 B, ``isa`` 8 B,
        ``d`` 4 B, ``TT`` 4 B, ``a`` 4 B, ``seq`` 4 B and, when temporal
        partitioning is enabled, ``w`` 2 B.
        """
        per_row = 8 + 8 + 4 + 4 + 4 + 4 + (2 if with_partition_id else 0)
        return per_row * len(self)
