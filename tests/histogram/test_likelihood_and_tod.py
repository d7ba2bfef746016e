"""Tests for smoothed likelihood and time-of-day histogram stores."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SECONDS_PER_DAY
from repro.histogram import (
    Histogram,
    TimeOfDayHistogramStore,
    log_likelihood,
    smoothed_density,
)


class TestSmoothedDensity:
    def setup_method(self):
        self.h = Histogram.from_dict({10: 8, 11: 2}, bucket_width=10.0)

    def test_positive_everywhere(self):
        for x in [0.0, 50.0, 105.0, 500.0, 10_000.0]:
            assert smoothed_density(x, self.h, 0.99, 0.0, 20_000.0) > 0.0

    def test_mass_raises_density(self):
        inside = smoothed_density(105.0, self.h, 0.99, 0.0, 1000.0)
        outside = smoothed_density(500.0, self.h, 0.99, 0.0, 1000.0)
        assert inside > outside

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            smoothed_density(1.0, self.h, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            smoothed_density(1.0, self.h, 1.0, 0.0, 10.0)

    def test_support_bounds(self):
        with pytest.raises(ValueError):
            smoothed_density(1.0, self.h, 0.5, 10.0, 10.0)

    def test_empty_histogram_falls_back_to_uniform(self):
        empty = Histogram.from_values([], 10.0)
        expected = 0.01 * (1.0 / 100.0)
        assert smoothed_density(5.0, empty, 0.99, 0.0, 100.0) == pytest.approx(
            expected
        )

    def test_log_likelihood_is_log_of_density(self):
        x = 105.0
        density = smoothed_density(x, self.h, 0.99, 0.0, 1000.0)
        assert log_likelihood(x, self.h, 0.99, 0.0, 1000.0) == pytest.approx(
            math.log(density)
        )


def store_of(bucket_width_s, *groups):
    """A store over ``(edge, timestamps[, partition])`` groups, their
    rows grouped by edge in ascending edge order."""
    rows = {}
    for edge, times, *partition in groups:
        rows.setdefault(edge, []).extend(
            (t, partition[0] if partition else 0) for t in times
        )
    edge_ids = sorted(rows)
    ordered = [row for edge in edge_ids for row in rows[edge]]
    return TimeOfDayHistogramStore.from_segments(
        bucket_width_s,
        np.asarray(edge_ids, dtype=np.int64),
        np.cumsum([0] + [len(rows[edge]) for edge in edge_ids]),
        np.asarray([w for _, w in ordered], dtype=np.int32),
        np.asarray([t for t, _ in ordered], dtype=np.int64),
    )


class TestTimeOfDayStore:
    def test_add_and_total(self):
        store = store_of(3600, (7, [100, 7200, SECONDS_PER_DAY + 100]))
        assert store.total(7) == 3
        assert store.total(8) == 0
        assert len(store) == 1

    def test_count_window(self):
        # Two traversals at 08:xx, one at 20:xx.
        store = store_of(3600, (1, [8 * 3600 + 5, 8 * 3600 + 10, 20 * 3600]))
        assert store.count_window(1, 8 * 3600, 3600) == pytest.approx(2.0)
        assert store.count_window(1, 0, SECONDS_PER_DAY) == pytest.approx(3.0)

    def test_count_window_wraps_midnight(self):
        store = store_of(3600, (1, [23 * 3600 + 100, 600]))
        count = store.count_window(1, 23 * 3600, 7200)
        assert count == pytest.approx(2.0)

    def test_count_window_fractional_buckets(self):
        store = store_of(3600, (1, range(0, 3600, 60)))  # 60 in first hour
        # Half of the first bucket -> expect roughly half the count.
        assert store.count_window(1, 0, 1800) == pytest.approx(30.0)

    def test_selectivity_histogram_vs_uniform(self):
        # All mass in one hour: selectivity of that hour is 1.0.
        store = store_of(3600, (2, [9 * 3600 + 30] * 50))
        assert store.selectivity(2, 9 * 3600, 3600) == pytest.approx(1.0)
        assert store.selectivity(2, 14 * 3600, 3600) == pytest.approx(0.0)

    def test_selectivity_unknown_edge_uniform_fallback(self):
        store = TimeOfDayHistogramStore(bucket_width_s=3600)
        assert store.selectivity(99, 0, 3600) == pytest.approx(1 / 24)

    def test_partitioned_histograms_are_separate(self):
        store = store_of(3600, (1, [200], 1), (0, [5], 0), (1, [100], 0),
                         (1, [300], 1))
        assert store.total(1, partition=0) == 1
        assert store.total(1, partition=1) == 2
        assert len(store) == 3
        assert store.total(0, partition=0) == 1
        assert store.total(0, partition=1) == 0
        assert store.count_window(1, 0, 3600, partition=0) == 1
        assert store.count_window(1, 0, 3600, partition=1) == 2

    def test_bad_bucket_width(self):
        with pytest.raises(ValueError):
            TimeOfDayHistogramStore(bucket_width_s=0)
        with pytest.raises(ValueError):
            TimeOfDayHistogramStore(bucket_width_s=SECONDS_PER_DAY + 1)

    def test_memory_grows_with_finer_buckets(self):
        coarse = store_of(600, (1, [100]))
        fine = store_of(60, (1, [100]))
        assert fine.size_in_bytes() > coarse.size_in_bytes()

    def test_no_traversals_no_histograms(self):
        store = store_of(600)
        assert len(store) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(0, 3 * SECONDS_PER_DAY), min_size=1, max_size=100
    ),
    st.integers(0, SECONDS_PER_DAY - 1),
    st.integers(1, SECONDS_PER_DAY),
)
def test_property_tod_count_matches_model(timestamps, start, duration):
    store = store_of(60, (1, timestamps))
    counted = store.count_window(1, start, duration)
    # Model with bucket-resolution timestamps (store sees 60 s buckets).
    expected = 0.0
    for t in timestamps:
        bucket_start = ((t % SECONDS_PER_DAY) // 60) * 60
        # Fractional overlap of this traversal's bucket with the window.
        window = [(start, min(start + duration, SECONDS_PER_DAY))]
        if start + duration > SECONDS_PER_DAY:
            window.append((0, start + duration - SECONDS_PER_DAY))
        for w_lo, w_hi in window:
            overlap = min(bucket_start + 60, w_hi) - max(bucket_start, w_lo)
            if overlap > 0:
                expected += overlap / 60
    assert counted == pytest.approx(min(expected, len(timestamps)), abs=1e-6)
