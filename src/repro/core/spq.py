"""Strict path queries (paper Section 2.3).

``Q = spq(P, I, f, beta)`` asks for the travel-time histogram of all
trajectories that traverse path ``P`` without stops or detours, entered the
path during ``I``, and satisfy the non-temporal filter ``f`` (here: an
optional user-id predicate).  ``beta`` is the cardinality requirement: a
periodic sub-query only succeeds when at least ``beta`` matching
trajectories are found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import EmptyPathError
from .intervals import TimeInterval

__all__ = ["StrictPathQuery"]


@dataclass(frozen=True)
class StrictPathQuery:
    """One (sub-)query ``spq(P, I, f, beta)``.

    Attributes
    ----------
    path:
        The edge-id sequence ``P``.
    interval:
        Temporal predicate ``I`` (fixed or periodic).
    user:
        Non-temporal filter ``f``: restrict to this user id, or ``None``.
    beta:
        Cardinality requirement; ``None`` retrieves all eligible
        trajectories (the paper's "if beta is omitted").
    shift_applied:
        Engine bookkeeping: shift-and-enlarge is applied at most once per
        sub-query chain (children of a split inherit the parent's already
        shifted interval).
    """

    path: Tuple[int, ...]
    interval: TimeInterval
    user: Optional[int] = None
    beta: Optional[int] = None
    shift_applied: bool = False

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(int(e) for e in self.path))
        if not self.path:
            raise EmptyPathError("strict path query requires a non-empty path")
        if self.beta is not None and self.beta < 1:
            raise EmptyPathError("beta must be positive when given")

    @classmethod
    def _from_validated(
        cls,
        path: Tuple[int, ...],
        interval: TimeInterval,
        user: Optional[int],
        beta: Optional[int],
        shift_applied: bool = False,
    ) -> "StrictPathQuery":
        """Construct bypassing ``__post_init__`` canonicalisation.

        Hot-path constructor for callers whose inputs are already
        canonical — :class:`repro.api.TripRequest` validates path/beta
        at request construction, and the ``with_*`` copies below start
        from a query that already passed ``__post_init__``;
        re-canonicalising the path on every relaxation step and batch
        item costs measurable QPS.
        """
        query = object.__new__(cls)
        object.__setattr__(query, "path", path)
        object.__setattr__(query, "interval", interval)
        object.__setattr__(query, "user", user)
        object.__setattr__(query, "beta", beta)
        object.__setattr__(query, "shift_applied", shift_applied)
        return query

    @property
    def length(self) -> int:
        """``|P|``."""
        return len(self.path)

    def with_interval(self, interval: TimeInterval) -> "StrictPathQuery":
        return self._from_validated(
            self.path, interval, self.user, self.beta, self.shift_applied
        )

    def with_path(self, path: Tuple[int, ...]) -> "StrictPathQuery":
        """The same predicate over another (canonical, non-empty) path —
        in practice a slice of this one."""
        path = tuple(path)
        if not path:
            raise EmptyPathError("strict path query requires a non-empty path")
        return self._from_validated(
            path, self.interval, self.user, self.beta, self.shift_applied
        )

    def without_user(self) -> "StrictPathQuery":
        return self._from_validated(
            self.path, self.interval, None, self.beta, self.shift_applied
        )

    def without_beta(self) -> "StrictPathQuery":
        return self._from_validated(
            self.path, self.interval, self.user, None, self.shift_applied
        )

    def marked_shifted(self) -> "StrictPathQuery":
        return self._from_validated(
            self.path, self.interval, self.user, self.beta, True
        )
