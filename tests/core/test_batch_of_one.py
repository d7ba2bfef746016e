"""A single query is a batch of one, and a batch round hashes each walk
once.

``QueryEngine.query(r)`` is ``run_batch([r])``: the deduplicating
executor is the only driver.  These properties keep that honest:

* ``db.query(r)`` and ``db.query_many([r])`` reach the same kernels the
  same number of times — equal calls of (and rows selected by)
  ``EdgeTemporalIndex.rows_fixed`` / ``rows_periodic`` and
  ``first_segment_matches`` — with equal answers and equal
  ``n_index_scans + n_cache_hits``, on the CSS and B+-tree monolithic
  indexes and on a multi-shard ``ShardedSNTIndex`` with a staging shard;
* a round groups its demands by hashing each ``FetchDemand.walk_key``
  exactly once (the key holds an interval whose ``__hash__`` runs in
  Python, which made repeated hashing the bulk of a small round's
  cost), with and without a shared cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EngineConfig,
    FixedInterval,
    PeriodicInterval,
    QueryEngine,
    SubQueryCache,
    TravelTimeDB,
    TripRequest,
)
from repro.config import SECONDS_PER_DAY
from repro.core.exec import FetchDemand
from repro.sntindex import procedures
from repro.temporal.forest import EdgeTemporalIndex

READERS = ("css", "btree", "sharded")


def _rows_of(result):
    if result is None:  # first_segment_matches: the path does not occur
        return 0
    if isinstance(result, tuple):  # first_segment_matches: (rows, columns)
        result = result[0]
    return int(result.size)


def counted(answer):
    """Run ``answer()`` with the three kernels counted: returns its
    result and ``{kernel: (calls, rows)}``."""
    work = {}

    def counting(name, kernel):
        work[name] = (0, 0)

        def wrapper(*args, **kwargs):
            result = kernel(*args, **kwargs)
            calls, rows = work[name]
            work[name] = (calls + 1, rows + _rows_of(result))
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for owner, name in (
            (EdgeTemporalIndex, "rows_fixed"),
            (EdgeTemporalIndex, "rows_periodic"),
            (procedures, "first_segment_matches"),
        ):
            patch.setattr(owner, name, counting(name, getattr(owner, name)))
        return answer(), work


def draw_requests(data, trips):
    """A few requests — whole trips and short prefixes, narrow windows
    that climb the widen ladder, a fixed interval, filters and cuts."""
    trip = trips[data.draw(st.integers(0, len(trips) - 1), label="trip")]
    length = data.draw(st.integers(2, len(trip.path)), label="length")
    intervals = (
        PeriodicInterval.around(trip.start_time, 300),
        PeriodicInterval.around(trip.start_time, 900),
        PeriodicInterval.around(trip.start_time - 3600, 900),
        FixedInterval(0, trip.start_time + SECONDS_PER_DAY),
    )
    request = st.builds(
        TripRequest,
        path=st.just(trip.path[:length]),
        interval=st.sampled_from(intervals),
        user=st.sampled_from((None, trip.user_id)),
        exclude_ids=st.sampled_from(((), (trip.traj_id,))),
        beta=st.sampled_from((None, 3, 40)),
    )
    return data.draw(
        st.lists(request, min_size=1, max_size=3, unique=True),
        label="requests",
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_batch_of_one_does_a_single_querys_kernel_work(world, data):
    dataset, readers, trips = world
    reader = data.draw(st.sampled_from(READERS), label="reader")
    config = EngineConfig()
    for request in draw_requests(data, trips):
        # Fresh cache=None sessions: nothing either path does can be
        # answered by what the other left behind.
        single, single_work = counted(
            lambda: TravelTimeDB(
                readers[reader], dataset.network, config, cache=None
            ).query(request)
        )
        (batched,), batched_work = counted(
            lambda: TravelTimeDB(
                readers[reader], dataset.network, config, cache=None
            ).query_many([request])
        )
        assert batched_work == single_work
        assert single_work["first_segment_matches"][0] >= 1

        assert batched.histogram == single.histogram
        assert batched.estimated_mean == single.estimated_mean
        assert (
            batched.n_index_scans + batched.n_cache_hits
            == single.n_index_scans + single.n_cache_hits
        )
        assert len(batched.outcomes) == len(single.outcomes)
        for got, want in zip(batched.outcomes, single.outcomes):
            assert got.query == want.query
            assert np.array_equal(got.values, want.values)
            assert got.from_fallback == want.from_fallback


class CountingKey:
    """A walk key that counts how often it is hashed."""

    __slots__ = ("key", "counter")

    def __init__(self, key, counter):
        self.key = key
        self.counter = counter

    def __hash__(self):
        self.counter[0] += 1
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, CountingKey) and self.key == other.key


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("cache", ["off", "memory"])
def test_a_round_hashes_each_walk_key_once(world, reader, cache):
    dataset, readers, trips = world
    requests = list(
        dict.fromkeys(
            TripRequest(
                path=trip.path[:6],
                interval=PeriodicInterval.around(trip.start_time, 300),
                exclude_ids=(trip.traj_id,),
                beta=20,
            )
            for trip in trips[:40]
        )
    )[:12]
    assert len(requests) == 12
    engine = QueryEngine(
        readers[reader],
        dataset.network,
        cache=SubQueryCache() if cache == "memory" else None,
    )
    hashes = [0]
    walk_key = FetchDemand.walk_key.fget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            FetchDemand,
            "walk_key",
            property(lambda demand: CountingKey(walk_key(demand), hashes)),
        )
        results, stats = engine.run_batch(requests)

    demands = sum(r.n_index_scans + r.n_cache_hits for r in results)
    assert demands == stats.planned_subqueries > len(requests)
    assert hashes[0] == demands
