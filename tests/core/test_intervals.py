"""Tests for fixed and periodic time intervals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SECONDS_PER_DAY
from repro.core import FixedInterval, PeriodicInterval, is_periodic
from repro.errors import IntervalError


class TestFixedInterval:
    def test_contains(self):
        interval = FixedInterval(10, 20)
        assert interval.contains(10)
        assert interval.contains(19)
        assert not interval.contains(20)
        assert not interval.contains(9)

    def test_size(self):
        assert FixedInterval(10, 25).size == 15

    def test_empty_rejected(self):
        with pytest.raises(IntervalError):
            FixedInterval(10, 10)
        with pytest.raises(IntervalError):
            FixedInterval(10, 5)


class TestPeriodicInterval:
    def test_contains_same_day(self):
        interval = PeriodicInterval(start_tod=8 * 3600, duration=1800)
        assert interval.contains(8 * 3600 + 100)
        assert not interval.contains(9 * 3600)

    def test_contains_every_day(self):
        interval = PeriodicInterval(start_tod=8 * 3600, duration=1800)
        for day in range(5):
            assert interval.contains(day * SECONDS_PER_DAY + 8 * 3600 + 5)

    def test_wraps_midnight(self):
        interval = PeriodicInterval(start_tod=23 * 3600 + 1800, duration=3600)
        assert interval.contains(10 * SECONDS_PER_DAY + 23 * 3600 + 1801)
        assert interval.contains(4 * SECONDS_PER_DAY + 10 * 60)
        assert not interval.contains(12 * 3600)

    def test_around_centers_window(self):
        timestamp = 3 * SECONDS_PER_DAY + 8 * 3600
        interval = PeriodicInterval.around(timestamp, 900)
        assert interval.contains(timestamp)
        assert interval.contains(timestamp - 449)
        assert interval.contains(timestamp + 449)
        assert not interval.contains(timestamp + 451)

    def test_around_bad_size(self):
        with pytest.raises(IntervalError):
            PeriodicInterval.around(0, 0)

    def test_widened_keeps_center(self):
        interval = PeriodicInterval.around(8 * 3600, 900)
        widened = interval.widened_to(1800)
        assert widened.duration == 1800
        assert widened.center_tod == interval.center_tod

    def test_widen_cannot_shrink(self):
        interval = PeriodicInterval.around(8 * 3600, 1800)
        with pytest.raises(IntervalError):
            interval.widened_to(900)

    @pytest.mark.parametrize(
        "size", [float("nan"), float("inf"), True, "wide"]
    )
    def test_widen_rejects_non_finite_sizes(self, size):
        with pytest.raises(IntervalError):
            PeriodicInterval(start_tod=100, duration=600).widened_to(size)

    @pytest.mark.parametrize("start", [0, 300, 86_000])
    @pytest.mark.parametrize("new_size", [901, 1800, 3600.0, 86_400, 90_000])
    def test_widened_equals_the_constructed_window(self, start, new_size):
        interval = PeriodicInterval(start_tod=start, duration=900)
        wide = interval.widened_to(new_size)
        built = PeriodicInterval(
            start_tod=start - (new_size - 900) // 2, duration=new_size
        )
        assert wide == built
        assert type(wide.start_tod) is type(built.start_tod)
        assert type(wide.duration) is type(built.duration)

    def test_shrunk_keeps_center(self):
        interval = PeriodicInterval.around(8 * 3600, 7200)
        shrunk = interval.shrunk_to(900)
        assert shrunk.duration == 900
        assert shrunk.center_tod == interval.center_tod

    def test_shrink_cannot_grow(self):
        interval = PeriodicInterval.around(8 * 3600, 900)
        with pytest.raises(IntervalError):
            interval.shrunk_to(1800)

    def test_shift_and_enlarge(self):
        interval = PeriodicInterval(start_tod=8 * 3600, duration=900)
        adapted = interval.shifted_and_enlarged(shift=600, enlarge=300)
        assert adapted.start_tod == 8 * 3600 + 600
        assert adapted.duration == 1200

    def test_shift_never_inverts(self):
        # The literal Procedure-6 formula could produce an empty interval
        # for shift > size + enlarge; the prose semantics cannot.
        interval = PeriodicInterval(start_tod=0, duration=900)
        adapted = interval.shifted_and_enlarged(shift=100_000, enlarge=0)
        assert adapted.duration == 900

    def test_duration_clamped_to_day(self):
        interval = PeriodicInterval(start_tod=0, duration=2 * SECONDS_PER_DAY)
        assert interval.duration == SECONDS_PER_DAY
        assert interval.contains(12345)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(IntervalError):
            PeriodicInterval(start_tod=0, duration=0)

    def test_is_periodic(self):
        assert is_periodic(PeriodicInterval(0, 10))
        assert not is_periodic(FixedInterval(0, 10))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, SECONDS_PER_DAY - 1),
    st.integers(1, SECONDS_PER_DAY),
    st.integers(0, 10 * SECONDS_PER_DAY),
)
def test_property_periodic_membership_is_daily(start, duration, t):
    interval = PeriodicInterval(start_tod=start, duration=duration)
    assert interval.contains(t) == interval.contains(t + SECONDS_PER_DAY)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10 * SECONDS_PER_DAY),
    st.sampled_from([900, 1800, 2700, 3600, 5400, 7200]),
    st.sampled_from([1800, 2700, 3600, 5400, 7200]),
)
def test_property_widening_is_monotone(center, size, new_size):
    interval = PeriodicInterval.around(center, size)
    if new_size < size:
        return
    widened = interval.widened_to(new_size)
    # Every timestamp matched before is still matched after widening.
    for offset in range(-size // 2, size // 2, max(1, size // 7)):
        t = center + offset
        if interval.contains(t):
            assert widened.contains(t)
