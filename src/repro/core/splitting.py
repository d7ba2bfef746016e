"""Sub-query relaxation: the greedy splitting function sigma (Procedure 1).

When a sub-query cannot satisfy its cardinality requirement, it is modified
in stages:

1. periodic intervals are widened through the ladder ``A = <alpha_1 ...
   alpha_n>`` (15..120 minutes in the paper),
2. once the ladder is exhausted, the path is split in two (``sigma_R``
   halves it; ``sigma_L`` keeps the longest prefix that still meets
   ``beta``) and both halves restart at ``alpha_min``,
3. single-segment paths drop the non-temporal filter ``f``,
4. as a final fallback the temporal filter and ``beta`` are dropped too:
   ``spq(P, [0, t_max), {})`` considers all data for the segment.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..errors import QueryError
from .intervals import FixedInterval, PeriodicInterval, TimeInterval, is_periodic
from .spq import StrictPathQuery

__all__ = [
    "regular_split",
    "longest_prefix_splitter",
    "widen_step",
    "widen_rungs",
    "modify_subquery",
]

#: Counts trajectories matching (path, interval, user) up to a limit.
MatchCounter = Callable[..., int]


def regular_split(
    query: StrictPathQuery, child_interval: TimeInterval
) -> int:
    """``sigma_R``: cut the path in half — ``m = floor(l / 2)``."""
    return query.length // 2


def longest_prefix_splitter(counter: MatchCounter):
    """Build the ``sigma_L`` split-point chooser.

    ``sigma_L`` picks the largest ``m`` such that the prefix ``P[0, m)``
    still matches at least ``beta`` trajectories under the (shrunk)
    interval and filter.  The monotonicity of strict-path matching in the
    prefix length permits a binary search; every probe costs one ISA range
    computation plus one temporal index scan, which is what makes
    ``sigma_L`` markedly slower than ``sigma_R`` in the paper's Figure 9.
    """

    def split(query: StrictPathQuery, child_interval: TimeInterval) -> int:
        target = query.beta if query.beta is not None else 1
        lo, hi = 1, query.length - 1  # m must leave a non-empty suffix

        def enough(m: int) -> bool:
            count = counter(
                path=query.path[:m],
                interval=child_interval,
                user=query.user,
                limit=target,
            )
            return count >= target

        if not enough(lo):
            return lo  # even one segment fails; split must still happen
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if enough(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    return split


def widen_step(
    query: StrictPathQuery, ladder: Sequence[int]
) -> Optional[StrictPathQuery]:
    """Stage 1 of Procedure 1: ``query`` with its periodic interval
    widened to the next ladder size, or ``None`` once the ladder is
    exhausted (fixed intervals have no ladder).

    The widening is iterative — each rung grows the *previous* rung's
    window symmetrically — so a window that starts off-ladder (after
    shift-and-enlarge) or has an odd size keeps the centre drift the
    step-by-step walk gives it; rungs are never recomputed from the
    centre.
    """
    interval = query.interval
    if not is_periodic(interval) or interval.size >= ladder[-1]:
        return None
    next_size = next(a for a in ladder if a > interval.size)
    return query.with_interval(interval.widened_to(next_size))


def widen_rungs(
    query: StrictPathQuery, ladder: Sequence[int], limit: int
) -> List[StrictPathQuery]:
    """The rungs above ``query`` on its widen ladder, narrowest first:
    :func:`widen_step` iterated until the ladder is exhausted, or for
    ``limit`` rungs — the caller's relaxation budget, which also ends a
    ladder whose top no window can reach (a size beyond one day is
    clamped on every step and never attained)."""
    rungs: List[StrictPathQuery] = []
    wider = widen_step(query, ladder)
    while wider is not None and len(rungs) < limit:
        rungs.append(wider)
        wider = widen_step(wider, ladder)
    return rungs


def modify_subquery(
    query: StrictPathQuery,
    ladder: Sequence[int],
    t_max: int,
    split_point: Callable[[StrictPathQuery, TimeInterval], int] = regular_split,
) -> List[StrictPathQuery]:
    """Procedure 1: widen, then split, then drop filters.

    Parameters
    ----------
    query:
        The failing sub-query.
    ladder:
        The interval-size list ``A`` (ascending; ``A[0] = alpha_min``).
    t_max:
        End of the indexed time span (for the final fixed fallback).
    split_point:
        ``sigma_R`` (default) or a ``sigma_L`` splitter built with
        :func:`longest_prefix_splitter`.
    """
    if not ladder or list(ladder) != sorted(ladder):
        raise QueryError("interval ladder must be a non-empty ascending list")
    alpha_min = ladder[0]

    # Stage 1: widen a periodic interval to the next ladder size.
    widened = widen_step(query, ladder)
    if widened is not None:
        return [widened]

    # Stage 2: split the path; children restart at alpha_min.
    if query.length > 1:
        if is_periodic(query.interval):
            child_interval: TimeInterval = query.interval.shrunk_to(
                min(alpha_min, query.interval.size)
            )
        else:
            child_interval = query.interval
        m = split_point(query, child_interval)
        if not 1 <= m < query.length:
            raise QueryError(
                f"split point {m} out of range for path length {query.length}"
            )
        left = query.with_path(query.path[:m]).with_interval(child_interval)
        right = query.with_path(query.path[m:]).with_interval(child_interval)
        return [left, right]

    # Stage 3: drop the non-temporal filter.
    if query.user is not None:
        return [query.without_user()]

    # Stage 4: all data for the segment, no cardinality requirement.
    return [
        StrictPathQuery(
            path=query.path,
            interval=FixedInterval(0, max(t_max, 1)),
            user=None,
            beta=None,
            shift_applied=query.shift_applied,
        )
    ]
