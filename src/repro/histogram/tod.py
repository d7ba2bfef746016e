"""Per-segment time-of-day histograms (paper Section 4.4, Figure 10b).

The accurate cardinality-estimator modes (BT-Acc / CSS-Acc) replace the
uniform time-of-day selectivity assumption with

    sel(P, [ts, te)^R) = B(H_e0, [ts, te)) / B(H_e0, [0, 24h))

where ``H_e`` is a histogram of entry times-of-day of all traversals of
segment ``e``.  When the index is temporally partitioned, one histogram is
kept per (segment, non-empty partition), which is what makes the store's
memory footprint explode at fine partition grain (Figure 10b).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..config import SECONDS_PER_DAY

__all__ = ["TimeOfDayHistogramStore"]


class TimeOfDayHistogramStore:
    """Histogram store mapping ``(edge, partition)`` to a ToD histogram."""

    def __init__(self, bucket_width_s: int = 600):
        if bucket_width_s <= 0 or bucket_width_s > SECONDS_PER_DAY:
            raise ValueError("bucket width must be within (0, 1 day]")
        self.bucket_width_s = int(bucket_width_s)
        self.n_buckets = -(-SECONDS_PER_DAY // self.bucket_width_s)  # ceil
        self._histograms: Dict[Tuple[int, int], np.ndarray] = {}

    @classmethod
    def from_segments(
        cls,
        bucket_width_s: int,
        edge_ids: np.ndarray,
        offsets: np.ndarray,
        partitions: np.ndarray,
        timestamps: np.ndarray,
    ) -> "TimeOfDayHistogramStore":
        """One histogram per ``(edge, partition)`` pair that occurs in
        traversal columns grouped by segment (``edge_ids[i]`` owns rows
        ``offsets[i]:offsets[i + 1]``), keyed in ascending pair order
        for ascending ``edge_ids``.  Counted one segment at a time, so
        no temporary is larger than a segment's rows."""
        store = cls(bucket_width_s=bucket_width_s)
        n_buckets = store.n_buckets
        bounds = offsets.tolist()
        for i, edge in enumerate(edge_ids.tolist()):
            lo, hi = bounds[i], bounds[i + 1]
            if lo == hi:
                continue
            ws = partitions[lo:hi].astype(np.int64)
            buckets = np.mod(timestamps[lo:hi], SECONDS_PER_DAY)
            buckets //= store.bucket_width_s
            counts = np.bincount(
                ws * n_buckets + buckets,
                minlength=(int(ws.max()) + 1) * n_buckets,
            ).reshape(-1, n_buckets)
            for partition in np.flatnonzero(counts.any(axis=1)).tolist():
                store._histograms[(edge, partition)] = counts[partition].copy()
        return store

    def __len__(self) -> int:
        return len(self._histograms)

    def total(self, edge: int, partition: int = 0) -> int:
        """``B(H_e, [0, 24h))`` — all traversals of the edge."""
        histogram = self._histograms.get((int(edge), int(partition)))
        return int(histogram.sum()) if histogram is not None else 0

    def count_window(
        self, edge: int, start_tod: int, duration: int, partition: int = 0
    ) -> float:
        """``B(H_e, window)`` for a periodic window, fractional at edges.

        ``start_tod`` is taken modulo one day; windows crossing midnight
        wrap around.  Buckets partially covered by the window contribute
        proportionally, so the estimate degrades gracefully for windows
        that are not bucket-aligned.
        """
        histogram = self._histograms.get((int(edge), int(partition)))
        if histogram is None or duration <= 0:
            return 0.0
        if duration >= SECONDS_PER_DAY:
            return float(histogram.sum())
        start = int(start_tod) % SECONDS_PER_DAY
        end = start + int(duration)
        if end <= SECONDS_PER_DAY:
            return self._count_linear(histogram, start, end)
        return self._count_linear(histogram, start, SECONDS_PER_DAY) + (
            self._count_linear(histogram, 0, end - SECONDS_PER_DAY)
        )

    def _count_linear(self, histogram: np.ndarray, lo: int, hi: int) -> float:
        h = self.bucket_width_s
        first, last = lo // h, (hi - 1) // h
        total = 0.0
        for bucket in range(first, last + 1):
            b_lo, b_hi = bucket * h, (bucket + 1) * h
            overlap = min(b_hi, hi) - max(b_lo, lo)
            total += histogram[bucket] * (overlap / h)
        return total

    def selectivity(
        self, edge: int, start_tod: int, duration: int, partition: int = 0
    ) -> float:
        """Formula (2): time-of-day selectivity from the histogram.

        Falls back to the uniform assumption (formula (1)) when the edge
        has no recorded traversals.
        """
        total = self.total(edge, partition)
        if total == 0:
            return min(1.0, duration / SECONDS_PER_DAY)
        return self.count_window(edge, start_tod, duration, partition) / total

    def size_in_bytes(self) -> int:
        """Modelled store size: 4 B per bucket + 32 B per histogram header.

        Mirrors the Figure 10b accounting where the per-histogram overhead
        is dwarfed by bucket payload at 1-minute grain.
        """
        return len(self._histograms) * (4 * self.n_buckets + 32)
