"""Temporal predicates: fixed and periodic intervals (paper Section 2.3).

A *fixed* interval ``[ts, te)`` matches absolute timestamps.  A *periodic*
interval ``[ts, te)^R`` matches the same time-of-day window on every day,
e.g. "08:00-08:30 on every day".  Procedure 1 widens periodic intervals
through the ladder ``A = <alpha_1, ..., alpha_n>`` symmetrically around the
window centre; Procedure 6 adapts later sub-queries with Dai et al.'s
shift-and-enlarge.

Note: Procedure 6 line 4 literally reads ``Ii <- [ts+Si, te+Ri)``, which can
invert the interval when ``Si`` is large.  We implement the prose ("shifts
the beginning ... and enlarges it"): start += shift, duration += enlarge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from ..config import SECONDS_PER_DAY
from ..errors import IntervalError

__all__ = [
    "FixedInterval",
    "PeriodicInterval",
    "TimeInterval",
    "is_periodic",
]


@dataclass(frozen=True)
class FixedInterval:
    """Absolute half-open time interval ``[start, end)`` in seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if type(self.start) is not int or type(self.end) is not int:
            _check_bounds("fixed", start=self.start, end=self.end)
        if self.end <= self.start:
            raise IntervalError(
                f"fixed interval [{self.start}, {self.end}) is empty"
            )

    @property
    def size(self) -> int:
        """``alpha = te - ts``."""
        return self.end - self.start

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end


@dataclass(frozen=True)
class PeriodicInterval:
    """Time-of-day window ``[start_tod, start_tod + duration)`` daily.

    ``start_tod`` is stored modulo one day; windows may wrap midnight.
    A duration of one full day (or more, clamped) matches every timestamp.
    """

    start_tod: int
    duration: int

    def __post_init__(self) -> None:
        if type(self.start_tod) is not int or type(self.duration) is not int:
            _check_bounds(
                "periodic", start_tod=self.start_tod, duration=self.duration
            )
        if self.duration <= 0:
            raise IntervalError("periodic interval duration must be positive")
        object.__setattr__(self, "start_tod", self.start_tod % SECONDS_PER_DAY)
        object.__setattr__(
            self, "duration", min(self.duration, SECONDS_PER_DAY)
        )

    @classmethod
    def _trusted(cls, start_tod: int, duration: int) -> "PeriodicInterval":
        """A window from already canonical fields (``0 <= start_tod <
        SECONDS_PER_DAY``, ``0 < duration <= SECONDS_PER_DAY``, both
        finite), without :meth:`__post_init__`'s checks."""
        interval = object.__new__(cls)
        object.__setattr__(interval, "start_tod", start_tod)
        object.__setattr__(interval, "duration", duration)
        return interval

    @classmethod
    def around(cls, center_ts: int, size: int) -> "PeriodicInterval":
        """The window of width ``size`` centred at a timestamp's time of day.

        This is the paper's query derivation ``I^R_tr = [t0 - alpha_min/2,
        t0 + alpha_min/2)^R`` (Section 5.2).
        """
        if size <= 0:
            raise IntervalError("interval size must be positive")
        return cls(start_tod=(center_ts - size // 2) % SECONDS_PER_DAY, duration=size)

    @property
    def size(self) -> int:
        """``alpha = te - ts``."""
        return self.duration

    @property
    def center_tod(self) -> int:
        return (self.start_tod + self.duration // 2) % SECONDS_PER_DAY

    def contains(self, timestamp: int) -> bool:
        return (timestamp - self.start_tod) % SECONDS_PER_DAY < self.duration

    def widened_to(self, new_size: int) -> "PeriodicInterval":
        """``widen``: grow symmetrically to ``new_size`` (Procedure 1)."""
        if type(new_size) is not int:
            _check_bounds("widened", size=new_size)
        if new_size < self.duration:
            raise IntervalError("widen cannot shrink an interval")
        if new_size == self.duration:
            return self
        delta = new_size - self.duration
        # ``__post_init__``'s wrap and one-day clamp; its checks cannot
        # fail on a finite size above a positive duration.
        return PeriodicInterval._trusted(
            (self.start_tod - delta // 2) % SECONDS_PER_DAY,
            SECONDS_PER_DAY if SECONDS_PER_DAY < new_size else new_size,
        )

    def shrunk_to(self, new_size: int) -> "PeriodicInterval":
        """``shrink``: reduce symmetrically to ``new_size`` (Procedure 1)."""
        if new_size > self.duration:
            raise IntervalError("shrink cannot grow an interval")
        if new_size <= 0:
            raise IntervalError("interval size must be positive")
        delta = self.duration - new_size
        return PeriodicInterval(
            start_tod=self.start_tod + delta // 2, duration=new_size
        )

    def shifted_and_enlarged(self, shift: int, enlarge: int) -> "PeriodicInterval":
        """Shift-and-enlarge for later sub-queries (Section 4.2).

        ``shift`` = sum of earlier sub-path histogram minima (``S_i``),
        ``enlarge`` = sum of earlier histogram ranges (``R_i``).
        """
        if enlarge < 0:
            raise IntervalError("enlarge must be non-negative")
        return PeriodicInterval(
            start_tod=self.start_tod + shift,
            duration=self.duration + enlarge,
        )


TimeInterval = Union[FixedInterval, PeriodicInterval]


def _check_bounds(kind: str, **bounds: float) -> None:
    """Reject a bound that is a bool, not a real number, NaN or +-inf.

    Plain ints (the common case) pass without a call here: callers test
    ``type(value) is int`` first.
    """
    for name, value in bounds.items():
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, ValueError):
            finite = False
        except OverflowError:  # an int too large for a float is finite
            finite = isinstance(value, int)
        if not finite:
            raise IntervalError(
                f"{kind} interval {name} must be a finite number; "
                f"got {value!r}"
            )


def is_periodic(interval: TimeInterval) -> bool:
    """``isPeriodic`` of Procedures 5 and 6."""
    return isinstance(interval, PeriodicInterval)
