"""Network-constrained trajectory (NCT) model (paper Section 2.2).

A trajectory ``tr = (d, u, s)`` of driver ``u`` with id ``d`` is a sequence

    s = <(e0, t0, TT0), (e1, t1, TT1), ..., (e_{l-1}, t_{l-1}, TT_{l-1})>

of (segment, entry timestamp, traversal duration) triples with strictly
increasing timestamps and positive durations.  ``Dur(tr, P)`` sums the
traversal times of a sub-path occurrence.

Note on resolution: the ITSP dataset stores entry times at minute
resolution and durations at second resolution.  We keep entry times at
second resolution to preserve the strict-monotonicity invariant for short
segments; nothing downstream depends on coarser keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import TrajectoryError

__all__ = ["TrajectoryPoint", "Trajectory", "TrajectorySet"]


class TrajectoryPoint(NamedTuple):
    """One traversal: ``(edge, entry time [s], duration [s])``."""

    edge: int
    t: int
    tt: float


@dataclass
class Trajectory:
    """One network-constrained trajectory."""

    traj_id: int
    user_id: int
    points: List[TrajectoryPoint]

    @property
    def path(self) -> Tuple[int, ...]:
        """``P_tr``: the sequence of traversed edges."""
        return tuple(p.edge for p in self.points)

    @property
    def start_time(self) -> int:
        """``tr.t0``."""
        if not self.points:
            raise TrajectoryError(f"trajectory {self.traj_id} is empty")
        return self.points[0].t

    def __len__(self) -> int:
        return len(self.points)

    def duration(self) -> float:
        """``Dur(tr, P_tr)``: total traversal time of the whole path."""
        return float(sum(p.tt for p in self.points))

    def duration_of_subpath(self, start: int, stop: int) -> float:
        """Sum of traversal times of ``P_tr[start, stop)``."""
        if not 0 <= start < stop <= len(self.points):
            raise TrajectoryError(
                f"sub-path [{start}, {stop}) out of range for length "
                f"{len(self.points)}"
            )
        return float(sum(p.tt for p in self.points[start:stop]))

    def duration_of_path(self, path: Sequence[int]) -> Optional[float]:
        """``Dur(tr, P)``: duration of the first occurrence of ``P``.

        ``None`` when ``P_tr`` does not contain ``P`` as a sub-path
        (the paper leaves ``Dur`` undefined in that case).
        """
        own, query = self.path, tuple(path)
        l, m = len(own), len(query)
        if m == 0 or m > l:
            return None
        for i in range(l - m + 1):
            if own[i : i + m] == query:
                return self.duration_of_subpath(i, i + m)
        return None

    def cumulative_durations(self) -> List[float]:
        """``a_seq = sum(TT_0..TT_seq)`` for every position (Section 4.1.3)."""
        totals: List[float] = []
        running = 0.0
        for point in self.points:
            running += point.tt
            totals.append(running)
        return totals

    def validate(self) -> None:
        """Check NCT invariants; raises :class:`TrajectoryError`."""
        if not self.points:
            raise TrajectoryError(f"trajectory {self.traj_id} is empty")
        previous_t: Optional[int] = None
        for point in self.points:
            if point.tt <= 0:
                raise TrajectoryError(
                    f"trajectory {self.traj_id}: non-positive duration"
                )
            if previous_t is not None and point.t <= previous_t:
                raise TrajectoryError(
                    f"trajectory {self.traj_id}: timestamps not increasing"
                )
            previous_t = point.t


class TrajectorySet:
    """An ordered collection of trajectories with id/user lookups."""

    def __init__(self, trajectories: Sequence[Trajectory] = ()):
        self._trajectories: List[Trajectory] = list(trajectories)
        self._by_id: Dict[int, Trajectory] = {
            tr.traj_id: tr for tr in self._trajectories
        }
        if len(self._by_id) != len(self._trajectories):
            raise TrajectoryError("duplicate trajectory ids")

    def add(self, trajectory: Trajectory) -> None:
        if trajectory.traj_id in self._by_id:
            raise TrajectoryError(
                f"duplicate trajectory id {trajectory.traj_id}"
            )
        self._trajectories.append(trajectory)
        self._by_id[trajectory.traj_id] = trajectory

    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._trajectories)

    def __getitem__(self, index: int) -> Trajectory:
        return self._trajectories[index]

    def by_id(self, traj_id: int) -> Trajectory:
        try:
            return self._by_id[traj_id]
        except KeyError:
            raise TrajectoryError(f"unknown trajectory id {traj_id}") from None

    def has_id(self, traj_id: int) -> bool:
        return traj_id in self._by_id

    def user_of(self, traj_id: int) -> int:
        """The associative container ``U: d -> u`` (Section 4.1.3)."""
        return self.by_id(traj_id).user_id

    def users(self) -> Dict[int, int]:
        return {tr.traj_id: tr.user_id for tr in self._trajectories}

    def total_traversals(self) -> int:
        return sum(len(tr) for tr in self._trajectories)

    def time_span(self) -> Tuple[int, int]:
        """``[min t0, max (t_last + TT_last)]`` over the whole set."""
        if not self._trajectories:
            raise TrajectoryError("empty trajectory set")
        start = min(tr.start_time for tr in self._trajectories)
        end = max(
            tr.points[-1].t + int(tr.points[-1].tt) + 1
            for tr in self._trajectories
        )
        return start, end

    def validate(self) -> None:
        for trajectory in self._trajectories:
            trajectory.validate()
