"""One temporal partition of the SNT-index (paper Section 4.3.2).

Temporal partitioning splits the trajectory set by trajectory start time
into ``T_1 ... T_W``; each partition owns its own trajectory string, hence
its own FM-index (wavelet tree + segment counter ``C``), while all
partitions share the temporal forest, whose leaves carry the partition id
``w``.  Backward search must therefore be repeated per partition and can
return a different ISA range for the same path in every partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..errors import IndexError_
from ..fmindex import FMIndex
from ..temporal.records import COLUMN_DTYPES, column_limit
from ..trajectories.model import Trajectory

__all__ = ["IndexPartition", "build_partition"]

#: One traversal as :class:`~repro.trajectories.model.TrajectoryPoint`
#: lays it out; the points of a partition are read into one buffer of it.
_POINT = np.dtype([("edge", np.int64), ("t", np.int64), ("tt", np.float64)])


@dataclass
class IndexPartition:
    """FM-index plus bookkeeping for one temporal partition."""

    w: int
    fm: FMIndex
    n_trajectories: int
    n_traversals: int
    #: Start-time range [t_lo, t_hi) of trajectories assigned to this
    #: partition (informational; assignment happens at build time).
    t_lo: int
    t_hi: int

    def isa_range(self, path: Sequence[int]) -> Tuple[int, int]:
        return self.fm.isa_range(path)


def build_partition(
    w: int,
    trajectories: Sequence[Trajectory],
    alphabet_size: int,
    t_lo: int,
    t_hi: int,
) -> Tuple[IndexPartition, Dict[str, npt.NDArray[np.generic]]]:
    """Build the FM-index of one partition and its traversal rows.

    Returns the partition plus a dict of flat numpy row arrays
    (``edge, t, isa, d, tt, a, seq``) for all traversals, each column in
    its :data:`~repro.temporal.records.COLUMN_DTYPES` dtype, which the
    index builder merges into the shared temporal forest.  Rows follow
    the trajectories in order, each trajectory's points in sequence.
    The trajectory ids must fit ``d`` (the builder proves them); a
    trajectory string too long for ``isa`` to address, 2**31 symbols
    or more, is an :class:`~repro.errors.IndexError_`.
    """
    count = len(trajectories)
    lengths = np.fromiter(
        (len(trajectory.points) for trajectory in trajectories),
        dtype=np.int64,
        count=count,
    )
    total = int(lengths.sum())
    if total + count > column_limit("isa"):
        raise IndexError_(
            f"partition {w}'s trajectory string has {total + count} "
            f"symbols; at most {column_limit('isa')} fit the index"
        )
    points = np.fromiter(
        itertools.chain.from_iterable(
            trajectory.points for trajectory in trajectories
        ),
        dtype=_POINT,
        count=total,
    )
    # The columns stay views into the one buffer: copying them out would
    # double the partition's transient footprint for no reader's benefit
    # (the index builder concatenates the rows anyway).
    edge, t, tt = points["edge"], points["t"], points["tt"]

    # Trajectory i's points start at row first[i]; in the trajectory
    # string T = P_0 $ P_1 $ ... they sit i terminators further on.
    first = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(count, dtype=np.int64), lengths)
    text_pos = np.arange(total, dtype=np.int64) + owner
    text = np.zeros(total + count, dtype=np.int64)
    text[text_pos] = edge
    fm = FMIndex(text, alphabet_size=alphabet_size)
    assert fm.isa is not None

    traj_ids = np.fromiter(
        (trajectory.traj_id for trajectory in trajectories),
        dtype=COLUMN_DTYPES["d"],
        count=count,
    )
    rows: Dict[str, npt.NDArray[np.generic]] = {
        "edge": edge,
        "t": t,
        "isa": fm.isa[text_pos].astype(COLUMN_DTYPES["isa"]),
        "d": traj_ids[owner],
        "tt": tt,
        "a": _cumulative_durations(tt, first, lengths),
        "seq": (np.arange(total) - np.repeat(first, lengths)).astype(
            COLUMN_DTYPES["seq"]
        ),
    }
    partition = IndexPartition(
        w=w,
        fm=fm,
        n_trajectories=count,
        n_traversals=total,
        t_lo=t_lo,
        t_hi=t_hi,
    )
    return partition, rows


def _cumulative_durations(
    tt: npt.NDArray[np.float64],
    first: npt.NDArray[np.int64],
    lengths: npt.NDArray[np.int64],
) -> npt.NDArray[np.float64]:
    """``a``: each trajectory's running sum of ``tt`` (Section 4.1.3).

    Trajectories of one length form a matrix whose rows are summed with
    one ``cumsum(axis=1)``.  Accumulation runs left to right along each
    row, so every value is bit-identical to a per-trajectory ``cumsum``;
    a global running sum minus per-trajectory offsets would not be.
    """
    a = np.empty_like(tt)
    for length in np.unique(lengths[lengths > 0]).tolist():
        rows = first[lengths == length][:, None] + np.arange(length)
        a[rows] = np.cumsum(tt[rows], axis=1)
    return a
