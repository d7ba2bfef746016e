"""Batch-executor equivalence: every batch is sequential Procedure 6.

The ISSUE 5 acceptance property: the staged batch executor behind
``query_many`` and ``stream`` — which collects the planned
sub-queries of all in-flight trips, scans each unique
``(path, interval, user, beta, exclude)`` task once, and fans the
answer out to every owner — produces *byte-identical* histograms and
outcomes to the per-trip sequential loop, across estimator modes,
sharded vs. monolithic readers, and relaxation-triggering workloads.
The only permitted difference is accounting: per trip,
``n_index_scans + n_cache_hits`` equals the uncached sequential scan
count exactly (a deduplicated fan-out is a hit against the batch's own
just-scanned answer).

Since ISSUE 18 a "scan" on either side of that equation is one fetch
*demand* — a sub-query's whole widen-ladder walk, answered by one index
call — not one per rung; ``unique_subqueries`` likewise counts unique
walks.  The assertions are unchanged, their unit is.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    EngineConfig,
    FixedInterval,
    PeriodicInterval,
    QueryEngine,
    ShardedSNTIndex,
    SNTIndex,
    TravelTimeDB,
    TripRequest,
    generate_dataset,
)

PARTITION_DAYS = 7
N_SHARDS = 3
ESTIMATOR_MODES = (None, "CSS-Fast", "BT-Acc")


@pytest.fixture(scope="module")
def world():
    dataset = generate_dataset("tiny", seed=0)
    mono = SNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        partition_days=PARTITION_DAYS,
    )
    sharded = ShardedSNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        n_shards=N_SHARDS,
        partition_days=PARTITION_DAYS,
    )
    trips = [tr for tr in dataset.trajectories if len(tr) >= 6]
    return dataset, mono, sharded, trips


def assert_equivalent(sequential, batched):
    """Byte-identical answers; scans+hits invariant per trip."""
    assert len(batched) == len(sequential)
    for expected, actual in zip(sequential, batched):
        assert actual.histogram == expected.histogram
        assert actual.histogram.as_dict() == expected.histogram.as_dict()
        assert actual.estimated_mean == expected.estimated_mean
        assert actual.n_estimator_skips == expected.n_estimator_skips
        assert expected.n_cache_hits == 0  # reference is uncached
        assert (
            actual.n_index_scans + actual.n_cache_hits
            == expected.n_index_scans
        )
        assert len(actual.outcomes) == len(expected.outcomes)
        for out_expected, out_actual in zip(
            expected.outcomes, actual.outcomes
        ):
            assert out_actual.query == out_expected.query
            assert np.array_equal(out_actual.values, out_expected.values)
            assert out_actual.histogram == out_expected.histogram
            assert out_actual.from_fallback == out_expected.from_fallback


def draw_workload(data, index, trips):
    """A repeated-trip batch mixing easy, shared, and doomed sub-queries."""
    requests = []
    for _ in range(data.draw(st.integers(2, 4), label="distinct trips")):
        trip = trips[data.draw(st.integers(0, len(trips) - 1))]
        length = data.draw(st.integers(2, min(len(trip.path), 6)))
        shape = data.draw(st.sampled_from(("fixed", "periodic", "doomed")))
        if shape == "fixed":
            interval = FixedInterval(index.t_min, index.t_max)
            beta = data.draw(st.sampled_from((None, 5)))
        elif shape == "periodic":
            interval = PeriodicInterval.around(trip.start_time, 900)
            beta = data.draw(st.sampled_from((None, 10)))
        else:
            # Relaxation trigger: a narrow window that cannot satisfy a
            # huge beta walks the full ladder, splits, and ends in the
            # drop-everything fallback — per trip, inside the batch.
            interval = PeriodicInterval.around(trip.start_time, 300)
            beta = 200
        request = TripRequest(
            path=trip.path[:length],
            interval=interval,
            user=trip.user_id if data.draw(st.booleans()) else None,
            exclude_ids=(trip.traj_id,) if data.draw(st.booleans()) else (),
            beta=beta,
        )
        requests.extend([request] * data.draw(st.integers(1, 3)))
    return data.draw(st.permutations(requests))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_batch_dedup_bit_identical_to_sequential(world, data):
    dataset, mono, sharded, trips = world
    index = sharded if data.draw(st.booleans(), label="sharded") else mono
    config = EngineConfig(
        partitioner=data.draw(st.sampled_from(("pi_1", "pi_Z"))),
        splitter=data.draw(st.sampled_from(("regular", "longest_prefix"))),
        estimator_mode=data.draw(st.sampled_from(ESTIMATOR_MODES)),
    )
    requests = draw_workload(data, index, trips)

    # Reference: the per-trip sequential loop, uncached (the paper's
    # Procedure 6 exactly, one trip at a time).
    engine = QueryEngine(index, dataset.network, config)
    sequential = [engine.query(request) for request in requests]

    # With and without a shared cache backend (the latter exercises
    # in-batch-only dedup over per-trip caches).
    for cache in ("default", None):
        db = TravelTimeDB(index, dataset.network, config=config, cache=cache)
        results = db.query_many(requests)
        assert_equivalent(sequential, results)
        stats = db.last_dedup_stats
        assert stats.n_trips == len(requests)
        assert stats.unique_subqueries <= stats.planned_subqueries
        # Cross-check the executor's accounting against the per-result
        # counters: every demand resumes exactly once, as a scan or as
        # a hit (cache hit or dedup fan-out).
        assert stats.planned_subqueries == sum(
            r.n_index_scans + r.n_cache_hits for r in results
        )
        assert stats.n_index_scans == sum(
            r.n_index_scans for r in results
        )
        assert stats.cache_hits + stats.scans_saved == sum(
            r.n_cache_hits for r in results
        )
        # Every unique planned sub-query cost at most one scan.
        assert stats.n_index_scans <= stats.unique_subqueries

    # The session's own sequential loop over a shared cache: the PR-1
    # path, same equivalence.
    plain = TravelTimeDB(index, dataset.network, config=config)
    assert_equivalent(sequential, [plain.query(r) for r in requests])


def test_dedup_scans_repeated_batch_once(world):
    """k copies of one request cost exactly one cold scan set."""
    dataset, mono, _, trips = world
    trip = trips[0]
    request = TripRequest(
        path=trip.path[:4],
        interval=PeriodicInterval.around(trip.start_time, 900),
        beta=10,
    )
    solo = TravelTimeDB(mono, dataset.network).query_many([request])
    batch_db = TravelTimeDB(mono, dataset.network)
    results = batch_db.query_many([request] * 5)
    stats = batch_db.last_dedup_stats
    assert stats.n_index_scans == sum(r.n_index_scans for r in solo)
    assert stats.scans_saved == 4 * stats.n_index_scans
    for result in results:
        assert result.histogram == solo[0].histogram


def test_stream_dedup_preserves_order_and_answers(world):
    dataset, mono, _, trips = world
    requests = []
    for trip in trips[:6]:
        requests.append(
            TripRequest(
                path=trip.path[:4],
                interval=PeriodicInterval.around(trip.start_time, 900),
                beta=10,
            )
        )
    requests = requests * 2  # repeats across window chunks
    uncached = TravelTimeDB(mono, dataset.network, cache=None)
    reference = [uncached.query(request) for request in requests]
    db = TravelTimeDB(mono, dataset.network)
    streamed = list(db.stream(iter(requests), window=4))
    assert [r.request for r in streamed] == requests
    for expected, actual in zip(reference, streamed):
        assert actual.histogram == expected.histogram
        assert actual.estimated_mean == expected.estimated_mean
    # The stream's dedup accounting aggregates over every window chunk,
    # not just the final one.
    stats = db.last_dedup_stats
    assert stats.n_trips == len(requests)
