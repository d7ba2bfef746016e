"""Procedure 3's early stop: a ``beta``-cut scan is the uncut scan's prefix.

:func:`first_segment_matches` filters a doubling prefix of the ascending
time-side rows and stops once ``beta`` rows match.  These suites hold
the cut scan to the first ``beta`` rows of the one-pass uncut scan on
the css, btree and sharded (with staging) readers, hold
``count_matches(limit=k)`` to ``min(k, full count)``, and check that the
filters really read only a prefix of the time side.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FixedInterval,
    PeriodicInterval,
    StrictPathQuery,
    generate_dataset,
)
from repro.config import SECONDS_PER_DAY
from repro.sntindex import count_matches, procedures
from repro.sntindex.procedures import first_segment_matches

from tests.core.conftest import PARTITION_DAYS, build_readers


@pytest.fixture(scope="module")
def world():
    """``(dataset, readers, trips)`` over the seed-0 tiny world."""
    dataset = generate_dataset("tiny", seed=0)
    readers = build_readers(
        dataset.trajectories, dataset.network.alphabet_size, PARTITION_DAYS
    )
    trips = [tr for tr in dataset.trajectories if len(tr) >= 2]
    return dataset, readers, trips


def scanned_indexes(readers, name):
    """The SNT-indexes a reader's scan runs on: itself, or each shard."""
    reader = readers[name]
    return reader.shards if name == "sharded" else [reader]


@st.composite
def intervals(draw, t_min, t_max):
    kind = draw(st.sampled_from(["fixed", "periodic", "wrapping"]))
    if kind == "fixed":
        start = draw(st.integers(t_min - SECONDS_PER_DAY, t_max))
        length = draw(st.integers(3600, 40 * SECONDS_PER_DAY))
        return FixedInterval(start, start + length)
    if kind == "periodic":
        return PeriodicInterval(
            start_tod=draw(st.integers(0, SECONDS_PER_DAY - 1)),
            duration=draw(st.integers(60, SECONDS_PER_DAY)),
        )
    # A window that wraps midnight.
    start_tod = draw(st.integers(20 * 3600, SECONDS_PER_DAY - 1))
    duration = draw(
        st.integers(SECONDS_PER_DAY - start_tod + 1, SECONDS_PER_DAY - 1)
    )
    return PeriodicInterval(start_tod=start_tod, duration=duration)


@st.composite
def scans(draw, trips):
    """``(query, exclude_ids)`` over a sub-path of one of ``trips``."""
    starts = [tr.start_time for tr in trips]
    trip = draw(st.sampled_from(trips))
    first = draw(st.integers(0, len(trip) - 1))
    length = draw(st.integers(1, min(4, len(trip) - first)))
    user = draw(st.sampled_from([None, trip.user_id]))
    query = StrictPathQuery(
        path=trip.path[first : first + length],
        interval=draw(intervals(min(starts), max(starts))),
        user=user,
    )
    exclude = ()
    if draw(st.booleans()):
        others = draw(
            st.lists(st.sampled_from(trips), max_size=30, unique_by=id)
        )
        exclude = tuple(sorted({trip.traj_id, *(t.traj_id for t in others)}))
    return query, exclude


@pytest.mark.parametrize("name", ["css", "btree", "sharded"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), beta=st.integers(1, 60))
def test_cut_scan_is_uncut_prefix(world, name, data, beta):
    _, readers, trips = world
    query, exclude = data.draw(scans(trips))
    for index in scanned_indexes(readers, name):
        uncut = first_segment_matches(index, query, exclude_ids=exclude)
        cut = first_segment_matches(
            index, query, exclude_ids=exclude, beta=beta
        )
        if uncut is None:
            assert cut is None
            continue
        assert cut is not None and cut[1] is uncut[1]
        assert cut[0].dtype == uncut[0].dtype
        assert np.array_equal(cut[0], uncut[0][:beta])


@pytest.mark.parametrize("name", ["css", "btree", "sharded"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), limit=st.integers(1, 60))
def test_count_limit_is_capped_full_count(world, name, data, limit):
    _, readers, trips = world
    query, exclude = data.draw(scans(trips))
    reader = readers[name]
    full = count_matches(
        reader, query.path, query.interval, user=query.user,
        exclude_ids=exclude,
    )
    capped = count_matches(
        reader, query.path, query.interval, user=query.user,
        exclude_ids=exclude, limit=limit,
    )
    assert capped == min(limit, full)


@pytest.mark.parametrize("name", ["css", "btree", "sharded"])
def test_beta_zero_returns_no_rows(world, name):
    _, readers, trips = world
    trip = max(trips, key=len)
    query = StrictPathQuery(
        path=trip.path[:2], interval=PeriodicInterval(0, SECONDS_PER_DAY)
    )
    for index in scanned_indexes(readers, name):
        matches = first_segment_matches(
            index, query, exclude_ids=(trip.traj_id,), beta=0
        )
        if matches is not None:
            assert matches[0].size == 0
            assert matches[0].dtype == np.int64


def busiest_edge(dataset, index):
    return max(
        range(dataset.network.alphabet_size),
        key=lambda e: len(index.edge_index(e) or ()),
    )


@pytest.mark.parametrize("name", ["css", "btree", "sharded"])
def test_every_beta_over_sparse_matches(world, name):
    """One user's traversals of the busiest edge are sparse among its
    rows, so most cuts need the doubled prefixes; every cut from 1 to
    past the match count is the uncut prefix."""
    dataset, readers, _ = world
    edge = busiest_edge(dataset, readers["css"])
    users = [tr.user_id for tr in dataset.trajectories if edge in tr.path]
    user = max(set(users), key=users.count)
    mine = [
        tr.traj_id for tr in dataset.trajectories
        if edge in tr.path and tr.user_id == user
    ]
    interval = FixedInterval(0, 2**40)
    query = StrictPathQuery(path=(edge,), interval=interval, user=user)
    doubled = 0
    for index in scanned_indexes(readers, name):
        uncut = first_segment_matches(index, query, exclude_ids=mine[:1])
        if uncut is None:
            continue
        rows = index.edge_index(edge).rows_fixed(interval.start, interval.end)
        for beta in range(1, uncut[0].size + 2):
            cut = first_segment_matches(
                index, query, exclude_ids=mine[:1], beta=beta
            )
            assert np.array_equal(cut[0], uncut[0][:beta])
            if beta <= uncut[0].size:
                reach = np.searchsorted(rows, uncut[0][beta - 1]) + 1
                doubled += reach > procedures._FIRST_CHUNK_BETAS * beta
    assert doubled


def test_beta_scan_filters_only_a_prefix(world, monkeypatch):
    """On the busiest edge, an all-time ``beta=1`` scan with an
    exclusion set hands the exclusion filter fewer rows than the time
    side selected."""
    dataset, readers, _ = world
    index = readers["css"]
    edge = busiest_edge(dataset, index)
    phi = index.edge_index(edge)
    interval = FixedInterval(phi.min_t(), phi.max_t() + 1)
    time_side = phi.rows_fixed(interval.start, interval.end)
    assert time_side.size == len(phi) > 8
    query = StrictPathQuery(path=(edge,), interval=interval)
    exclude = (int(phi.columns.d[time_side[0]]),)
    uncut, _ = first_segment_matches(index, query, exclude_ids=exclude)
    assert uncut.size > 1

    seen = []
    real = procedures._not_excluded

    def spy(d, ids):
        seen.append(int(d.size))
        return real(d, ids)

    monkeypatch.setattr(procedures, "_not_excluded", spy)
    cut, _ = first_segment_matches(
        index, query, exclude_ids=exclude, beta=1
    )
    assert np.array_equal(cut, uncut[:1])
    assert 0 < sum(seen) < time_side.size
