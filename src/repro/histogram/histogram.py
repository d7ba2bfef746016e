"""Travel-time histograms and discrete convolution (paper Section 2.3).

A histogram maps travel-time buckets of fixed width ``h`` to counts.  The
histogram of a path partitioned into sub-paths is the discrete convolution
of the sub-path histograms: ``H = H1 * H2 * ... * Hk``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

import numpy as np
import numpy.typing as npt

__all__ = ["Histogram"]


def _same_width(a: float, b: float) -> bool:
    """``np.isclose(a, b)`` (default tolerances) on two floats, in plain
    Python: the combine stage compares widths once per convolution, and
    numpy's array dispatch costs ~250x the arithmetic."""
    return a == b or (
        abs(a - b) <= 1e-8 + 1e-5 * abs(b) and math.isfinite(b)
    )


class Histogram:
    """Fixed-bucket-width histogram of travel times.

    Buckets are half-open intervals ``[i*h, (i+1)*h)``; only the occupied
    index range is stored (``offset`` = first occupied bucket index).
    """

    __slots__ = ("bucket_width", "offset", "counts")

    def __init__(
        self, bucket_width: float, offset: int, counts: npt.ArrayLike
    ) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket width must be positive")
        self.bucket_width = float(bucket_width)
        self.offset = int(offset)
        self.counts = np.asarray(counts, dtype=np.float64)
        if self.counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_values(cls, values: Iterable[float], bucket_width: float) -> "Histogram":
        """``createHistogram``: bucket a set of travel times."""
        if isinstance(values, np.ndarray):
            arr = values.astype(np.float64, copy=False)
        else:
            arr = np.asarray(list(values), dtype=np.float64)
        if arr.size == 0:
            return cls(bucket_width, 0, np.zeros(0))
        # NaN fails both comparisons, so one check rejects NaN, +-inf and
        # negatives before any of them reaches the integer bucketing.
        if not (arr.min() >= 0 and arr.max() < np.inf):
            raise ValueError("travel times must be finite and non-negative")
        buckets = np.floor_divide(arr, bucket_width).astype(np.int64)
        offset = int(buckets.min())
        counts = np.bincount(buckets - offset)
        return cls(bucket_width, offset, counts)

    @classmethod
    def from_dict(
        cls, bucket_counts: Dict[int, float], bucket_width: float
    ) -> "Histogram":
        """Build from a ``{bucket_index: count}`` mapping (test helper)."""
        if not bucket_counts:
            return cls(bucket_width, 0, np.zeros(0))
        offset = min(bucket_counts)
        size = max(bucket_counts) - offset + 1
        counts = np.zeros(size)
        for bucket, count in bucket_counts.items():
            counts[bucket - offset] = count
        return cls(bucket_width, offset, counts)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    # ------------------------------------------------------------------ #
    # Wire form (HTTP tier contract)
    # ------------------------------------------------------------------ #

    def to_wire(self) -> Dict[str, object]:
        """JSON-compatible wire form, inverse of :meth:`from_wire`.

        The single definition of the histogram payload used by
        ``TripQueryResult.to_dict`` — float64 counts round-trip exactly
        through JSON ``repr``, so a deserialised histogram is
        bit-identical.
        """
        return {
            "bucket_width": self.bucket_width,
            "offset": self.offset,
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "Histogram":
        return cls(
            payload["bucket_width"],  # type: ignore[arg-type]
            payload["offset"],  # type: ignore[arg-type]
            payload["counts"],  # type: ignore[arg-type]
        )

    @property
    def total(self) -> float:
        """Total mass (number of observations for count histograms)."""
        return float(self.counts.sum())

    def is_empty(self) -> bool:
        return self.total == 0

    @property
    def min_value(self) -> float:
        """Lower edge of the first occupied bucket (``H^min`` in the paper)."""
        occupied = np.nonzero(self.counts)[0]
        if occupied.size == 0:
            raise ValueError("histogram is empty")
        return (self.offset + int(occupied[0])) * self.bucket_width

    @property
    def max_value(self) -> float:
        """Upper edge of the last occupied bucket (``H^max``)."""
        occupied = np.nonzero(self.counts)[0]
        if occupied.size == 0:
            raise ValueError("histogram is empty")
        return (self.offset + int(occupied[-1]) + 1) * self.bucket_width

    @property
    def value_range(self) -> float:
        """``H^max - H^min``; used by shift-and-enlarge (Section 4.2)."""
        return self.max_value - self.min_value

    def mean(self) -> float:
        """Mass-weighted mean of bucket midpoints."""
        if self.is_empty():
            raise ValueError("histogram is empty")
        midpoints = (
            np.arange(self.counts.size) + self.offset + 0.5
        ) * self.bucket_width
        return float(np.average(midpoints, weights=self.counts))

    def quantile(self, q: float) -> float:
        """Value below which a fraction ``q`` of the mass lies.

        Linear interpolation inside the bucket that crosses the quantile;
        used by the risk-averse routing example (e.g. 95th percentile ETA).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.is_empty():
            raise ValueError("histogram is empty")
        cumulative = np.cumsum(self.counts)
        target = q * cumulative[-1]
        bucket = int(np.searchsorted(cumulative, target, side="left"))
        bucket = min(bucket, self.counts.size - 1)
        previous = cumulative[bucket - 1] if bucket else 0.0
        inside = self.counts[bucket]
        fraction = 0.0 if inside == 0 else (target - previous) / inside
        return (self.offset + bucket + fraction) * self.bucket_width

    def mass_at(self, value: float) -> float:
        """Fraction of total mass in the bucket containing ``value``.

        This is the paper's ``f(x, H)`` (Section 5.3.3).
        """
        if self.is_empty():
            return 0.0
        bucket = math.floor(value / self.bucket_width) - self.offset
        if not 0 <= bucket < self.counts.size:
            return 0.0
        return float(self.counts[bucket]) / self.total

    def count_in_range(self, lo: float, hi: float) -> float:
        """``B(H, [lo, hi))``: mass of buckets overlapping ``[lo, hi)``.

        Buckets partially covered contribute fractionally, which reduces to
        the paper's whole-bucket count when the range is bucket-aligned.
        """
        if lo >= hi or self.counts.size == 0:
            return 0.0
        h = self.bucket_width
        starts = (np.arange(self.counts.size) + self.offset) * h
        overlap = np.minimum(starts + h, hi) - np.maximum(starts, lo)
        weights = np.clip(overlap / h, 0.0, 1.0)
        return float(np.dot(weights, self.counts))

    def as_dict(self) -> Dict[int, float]:
        """``{bucket_index: count}`` for occupied buckets."""
        occupied = np.nonzero(self.counts)[0]
        return {
            int(self.offset + i): float(self.counts[i]) for i in occupied
        }

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #

    def convolve(self, other: "Histogram") -> "Histogram":
        """Discrete convolution ``self * other`` (paper Section 2.3).

        Convolving two count histograms yields a histogram over the sums of
        one draw from each; bucket indices add, so the offset of the result
        is the sum of offsets.
        """
        if not _same_width(self.bucket_width, other.bucket_width):
            raise ValueError("cannot convolve histograms of different widths")
        if self.counts.size == 0 or other.counts.size == 0:
            return Histogram(self.bucket_width, 0, np.zeros(0))
        counts = np.convolve(self.counts, other.counts)
        return Histogram(self.bucket_width, self.offset + other.offset, counts)

    def __mul__(self, other: "Histogram") -> "Histogram":
        return self.convolve(other)

    def merge(self, other: "Histogram") -> "Histogram":
        """Pointwise sum of two histograms (pooling two samples).

        Used when several per-window histograms of one segment are pooled
        into a single distribution (e.g. the segment-level baseline's
        fallback).
        """
        if not _same_width(self.bucket_width, other.bucket_width):
            raise ValueError("cannot merge histograms of different widths")
        if self.counts.size == 0:
            return Histogram(other.bucket_width, other.offset, other.counts)
        if other.counts.size == 0:
            return Histogram(self.bucket_width, self.offset, self.counts)
        offset = min(self.offset, other.offset)
        end = max(
            self.offset + self.counts.size,
            other.offset + other.counts.size,
        )
        counts = np.zeros(end - offset)
        counts[
            self.offset - offset : self.offset - offset + self.counts.size
        ] += self.counts
        counts[
            other.offset - offset : other.offset - offset + other.counts.size
        ] += other.counts
        return Histogram(self.bucket_width, offset, counts)

    def scaled_to_unit_mass(self) -> "Histogram":
        """Return a copy normalised to total mass 1."""
        total = self.total
        if total == 0:
            raise ValueError("cannot normalise an empty histogram")
        return Histogram(self.bucket_width, self.offset, self.counts / total)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            _same_width(self.bucket_width, other.bucket_width)
            and self.as_dict() == other.as_dict()
        )

    def __repr__(self) -> str:
        return (
            f"Histogram(h={self.bucket_width}, buckets={self.as_dict()!r})"
        )
