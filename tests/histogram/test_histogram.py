"""Tests for travel-time histograms and convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histogram import Histogram
from repro.histogram.histogram import _same_width

from tests.paper_vectors import WORKED_CONVOLUTION, WORKED_H1, WORKED_H2


class TestConstruction:
    def test_from_values(self):
        h = Histogram.from_values([10.5, 11.2, 10.9, 25.0], bucket_width=1.0)
        assert h.as_dict() == {10: 2, 11: 1, 25: 1}

    def test_from_values_empty(self):
        h = Histogram.from_values([], bucket_width=5.0)
        assert h.is_empty()
        assert h.total == 0

    def test_from_values_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram.from_values([-1.0], bucket_width=1.0)

    @pytest.mark.parametrize(
        "values",
        [[np.nan], [np.inf], [1.0, np.nan], [-np.inf], [2.0, np.inf]],
        ids=["nan", "inf", "value-then-nan", "-inf", "value-then-inf"],
    )
    def test_from_values_non_finite_rejected(self, values):
        with pytest.raises(
            ValueError, match="travel times must be finite and non-negative"
        ):
            Histogram.from_values(values, bucket_width=1.0)

    def test_bad_bucket_width(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 0, [1])
        with pytest.raises(ValueError):
            Histogram(-2.0, 0, [1])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 0, [1, -1])

    def test_from_dict_roundtrip(self):
        mapping = {3: 2.0, 7: 1.0}
        h = Histogram.from_dict(mapping, bucket_width=2.0)
        assert h.as_dict() == mapping

    def test_bucketing_uses_floor(self):
        h = Histogram.from_values([9.99, 10.0], bucket_width=10.0)
        assert h.as_dict() == {0: 1, 1: 1}


class TestStatistics:
    def test_min_max_range(self):
        h = Histogram.from_dict({4: 1, 9: 3}, bucket_width=10.0)
        assert h.min_value == 40.0
        assert h.max_value == 100.0
        assert h.value_range == 60.0

    def test_min_max_on_empty_raise(self):
        h = Histogram.from_values([], bucket_width=1.0)
        with pytest.raises(ValueError):
            _ = h.min_value
        with pytest.raises(ValueError):
            _ = h.max_value

    def test_mean_uses_midpoints(self):
        h = Histogram.from_dict({0: 1, 1: 1}, bucket_width=10.0)
        assert h.mean() == pytest.approx(10.0)  # midpoints 5 and 15

    def test_quantile_bounds(self):
        h = Histogram.from_dict({0: 1, 9: 1}, bucket_width=1.0)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_quantile_rejects_out_of_range(self):
        h = Histogram.from_dict({0: 1}, bucket_width=1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_mass_at(self):
        h = Histogram.from_dict({2: 3, 3: 1}, bucket_width=1.0)
        assert h.mass_at(2.5) == pytest.approx(0.75)
        assert h.mass_at(3.0) == pytest.approx(0.25)
        assert h.mass_at(99.0) == 0.0

    def test_count_in_range_aligned(self):
        h = Histogram.from_dict({0: 2, 1: 3, 2: 5}, bucket_width=10.0)
        assert h.count_in_range(0, 20) == pytest.approx(5.0)
        assert h.count_in_range(10, 30) == pytest.approx(8.0)

    def test_count_in_range_fractional(self):
        h = Histogram.from_dict({0: 4}, bucket_width=10.0)
        assert h.count_in_range(0, 5) == pytest.approx(2.0)
        assert h.count_in_range(2.5, 7.5) == pytest.approx(2.0)

    def test_count_in_range_degenerate(self):
        h = Histogram.from_dict({0: 4}, bucket_width=10.0)
        assert h.count_in_range(5, 5) == 0.0
        assert h.count_in_range(7, 3) == 0.0


class TestConvolution:
    def test_paper_worked_example(self):
        # H1 = {[6,7):2, [7,8):1}, H2 = {[4,5):2, [5,6):1} (bucket width 1 s)
        # H1 * H2 = {[10,11):4, [11,12):4, [12,13):1}  (Section 2.3).
        h1 = Histogram.from_dict(WORKED_H1, bucket_width=1.0)
        h2 = Histogram.from_dict(WORKED_H2, bucket_width=1.0)
        assert (h1 * h2).as_dict() == WORKED_CONVOLUTION

    def test_convolution_commutative(self):
        h1 = Histogram.from_dict({1: 2, 3: 1}, bucket_width=1.0)
        h2 = Histogram.from_dict({0: 1, 2: 5}, bucket_width=1.0)
        assert (h1 * h2) == (h2 * h1)

    def test_convolution_total_is_product(self):
        h1 = Histogram.from_dict({1: 2, 3: 1}, bucket_width=1.0)
        h2 = Histogram.from_dict({0: 1, 2: 5}, bucket_width=1.0)
        assert (h1 * h2).total == pytest.approx(h1.total * h2.total)

    def test_convolution_width_mismatch(self):
        h1 = Histogram.from_dict({1: 1}, bucket_width=1.0)
        h2 = Histogram.from_dict({1: 1}, bucket_width=2.0)
        with pytest.raises(ValueError):
            h1.convolve(h2)

    def test_convolution_with_empty(self):
        h1 = Histogram.from_dict({1: 1}, bucket_width=1.0)
        empty = Histogram.from_values([], bucket_width=1.0)
        assert (h1 * empty).is_empty()

    def test_offsets_add(self):
        h1 = Histogram.from_dict({100: 1}, bucket_width=1.0)
        h2 = Histogram.from_dict({200: 1}, bucket_width=1.0)
        assert (h1 * h2).as_dict() == {300: 1}


WIDTH_GRID = [
    0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 2e-5, 2.0, 1e-8,
    2e-8, 5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1e300,
    1.00001e300, np.inf, -np.inf, np.nan,
]


def test_same_width_is_isclose():
    for a in WIDTH_GRID:
        for b in WIDTH_GRID:
            assert _same_width(a, b) == bool(np.isclose(a, b)), (a, b)


@pytest.mark.parametrize("combine", [Histogram.convolve, Histogram.merge])
def test_combining_different_widths_raises(combine):
    h1 = Histogram.from_dict({1: 1}, bucket_width=1.0)
    h2 = Histogram.from_dict({1: 1}, bucket_width=1.001)
    close = Histogram.from_dict({1: 1}, bucket_width=1.0 + 1e-9)
    with pytest.raises(ValueError, match="different widths"):
        combine(h1, h2)
    assert combine(h1, close).bucket_width == 1.0


class TestNormalisation:
    def test_scaled_to_unit_mass(self):
        h = Histogram.from_dict({0: 3, 1: 1}, bucket_width=1.0)
        unit = h.scaled_to_unit_mass()
        assert unit.total == pytest.approx(1.0)
        assert unit.mass_at(0.5) == pytest.approx(0.75)

    def test_scale_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram.from_values([], 1.0).scaled_to_unit_mass()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=50),
    st.sampled_from([1.0, 2.5, 10.0]),
)
def test_property_total_equals_count(values, width):
    h = Histogram.from_values(values, bucket_width=width)
    assert h.total == len(values)
    assert h.min_value <= min(values) < h.min_value + width or True
    # Every value lies inside [min_value, max_value).
    assert h.min_value <= min(values)
    assert max(values) < h.max_value


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=25),
    st.lists(st.integers(0, 40), min_size=1, max_size=25),
)
def test_property_convolution_matches_pairwise_sums(xs, ys):
    # For integer values and bucket width 1 the convolution equals the
    # histogram of all pairwise sums exactly.
    h1 = Histogram.from_values([float(x) for x in xs], 1.0)
    h2 = Histogram.from_values([float(y) for y in ys], 1.0)
    direct = Histogram.from_values(
        [float(x + y) for x in xs for y in ys], 1.0
    )
    assert (h1 * h2) == direct


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0, 500, allow_nan=False), min_size=1, max_size=40),
    st.floats(0.01, 0.99),
)
def test_property_quantile_monotone(values, q):
    h = Histogram.from_values(values, bucket_width=5.0)
    assert h.quantile(0.0) <= h.quantile(q) <= h.quantile(1.0)
