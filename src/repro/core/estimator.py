"""Cardinality estimation for strict path queries (paper Section 4.4).

Before dispatching a sub-query, the engine asks ``card(Q)`` for an estimate
``beta_hat`` of the result cardinality; if ``beta_hat < beta`` the split
function is applied immediately, saving the temporal index scan.

The estimate combines:

* ``c_P = ed - st`` — the exact number of path traversals, from the
  FM-index backward search (summed over temporal partitions),
* ``sel_tod`` — time-of-day selectivity of a periodic interval: uniform
  (formula 1) in the *Fast* modes, histogram-based (formula 2) in the
  *Acc* modes,
* ``sel_tf`` — time-frame selectivity of a fixed interval: the naive
  min/max ratio (formula 3) in the *BT* modes, the exact CSS-tree range
  count in the *CSS* modes,
* ``sel_u = 1/10`` for user predicates (Selinger et al.).

Modes: ``ISA`` (c_P only), ``BT-Fast``, ``BT-Acc``, ``CSS-Fast``,
``CSS-Acc``.
"""

from __future__ import annotations

from ..config import DEFAULT_USER_SELECTIVITY, SECONDS_PER_DAY
from ..errors import EstimatorError
from ..sntindex.reader import IndexReader
from .intervals import FixedInterval, is_periodic
from .spq import StrictPathQuery

__all__ = ["CardinalityEstimator", "ESTIMATOR_MODES"]

ESTIMATOR_MODES = ("ISA", "BT-Fast", "BT-Acc", "CSS-Fast", "CSS-Acc")


class CardinalityEstimator:
    """``card(Q) -> beta_hat`` in one of the paper's five modes.

    Works over any :class:`IndexReader`: per-partition ISA ranges,
    time-of-day selectivity, and segment statistics are protocol calls,
    and a sharded reader reproduces the monolithic statistics exactly
    (integer-exact counts, min/max time bounds).
    """

    def __init__(
        self,
        index: IndexReader,
        mode: str = "CSS-Fast",
        user_selectivity: float = DEFAULT_USER_SELECTIVITY,
    ):
        if mode not in ESTIMATOR_MODES:
            raise EstimatorError(
                f"unknown estimator mode {mode!r}; expected one of "
                f"{ESTIMATOR_MODES}"
            )
        if mode.startswith("CSS") and index.kind != "css":
            raise EstimatorError(
                "CSS estimator modes require a CSS-tree forest"
            )
        if not 0 < user_selectivity <= 1:
            raise EstimatorError("user selectivity must be in (0, 1]")
        self._index = index
        self.mode = mode
        self.user_selectivity = user_selectivity

    def estimate(self, query: StrictPathQuery, isa_ranges=None) -> float:
        """Return ``beta_hat`` for a sub-query.

        ``isa_ranges`` lets the engine share one FM-index backward search
        between the estimate and the subsequent retrieval.
        """
        index = self._index
        ranges = (
            isa_ranges
            if isa_ranges is not None
            else index.isa_ranges(query.path)
        )
        if not ranges:
            return 0.0
        if self.mode == "ISA":
            return float(sum(ed - st for _, st, ed in ranges))

        first_edge = query.path[0]
        sel_u = self.user_selectivity if query.user is not None else 1.0
        accurate = self.mode.endswith("Acc")

        estimate = 0.0
        for w, st, ed in ranges:
            c_p = ed - st
            if is_periodic(query.interval):
                sel_tod = self._sel_tod(
                    first_edge, query.interval, w, accurate
                )
                sel_tf = 1.0
            else:
                sel_tod = 1.0
                sel_tf = self._sel_tf(first_edge, query.interval)
            estimate += c_p * sel_tod * sel_tf * sel_u
        return estimate

    def _sel_tod(self, edge, interval, w: int, accurate: bool) -> float:
        """Formula (1) (uniform) or (2) (time-of-day histogram)."""
        if not accurate:
            return min(1.0, interval.duration / SECONDS_PER_DAY)
        return self._index.tod_store.selectivity(
            edge, interval.start_tod, interval.duration, partition=w
        )

    def _sel_tf(self, edge, interval: FixedInterval) -> float:
        """Formula (3) (naive min/max) or the exact CSS range count."""
        phi = self._index.edge_index(edge)
        if phi is None or len(phi) == 0:
            return 0.0
        if self.mode.startswith("CSS"):
            # "the number of entries for which ts <= t < te can be
            # obtained exactly in logarithmic time" (Section 4.4).
            return phi.count_fixed(interval.start, interval.end) / len(phi)
        t_lo, t_hi = phi.min_t(), phi.max_t()
        span = max(1, t_hi - t_lo)
        overlap = max(
            0, min(interval.end, t_hi + 1) - max(interval.start, t_lo)
        )
        return min(1.0, overlap / span)
