"""Oracle for the trip-level result memo (ISSUE 20).

A trip answer is a pure function of the request, the planner policy and
the index epoch, so a session with a cache backend answers a repeated
trip from the backend's ``trips`` section with one probe.  Everything a
memoised answer carries must equal what a ``cache=None`` session
computes from scratch — histogram, point estimate, every outcome, the
estimator skips and the demand count ``n_index_scans + n_cache_hits`` —
under every driver (``query``, ``query_many``, a windowed ``stream``;
all three are ``run_batch`` on the calling thread) and every reader
(CSS and B+-tree monolithic, multi-shard with a staging shard), and the
memo must never serve across anything that shapes an answer.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    EngineConfig,
    EstimatorMode,
    FixedInterval,
    PeriodicInterval,
    ShardedSNTIndex,
    SubQueryCache,
    TrajectorySet,
    TravelTimeDB,
    TripRequest,
)
from repro.config import SECONDS_PER_DAY
from repro.errors import QueryError

READERS = ("css", "btree", "sharded")

def assert_same_answer(actual, expected):
    assert actual.histogram == expected.histogram
    assert actual.estimated_mean == expected.estimated_mean
    assert actual.n_estimator_skips == expected.n_estimator_skips
    assert (
        actual.n_index_scans + actual.n_cache_hits
        == expected.n_index_scans + expected.n_cache_hits
    )
    assert len(actual.outcomes) == len(expected.outcomes)
    for got, want in zip(actual.outcomes, expected.outcomes):
        assert got.query == want.query
        assert got.query.shift_applied == want.query.shift_applied
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values, want.values)
        assert got.histogram == want.histogram
        assert got.from_fallback == want.from_fallback


# --------------------------------------------------------------------- #
# Drivers: name -> answer(db, requests)
# --------------------------------------------------------------------- #

DRIVERS = {
    "query": lambda db, rs: [db.query(r) for r in rs],
    "query_many": lambda db, rs: db.query_many(rs),
    "stream": lambda db, rs: list(db.stream(rs, window=3)),
}


def draw_variants(data, trips, reader):
    """A few requests for one path that differ in the fields a memo key
    could wrongly ignore: interval, user, beta, exclusions, estimator."""
    trip = trips[data.draw(st.integers(0, len(trips) - 1), label="trip")]
    path = trip.path[: data.draw(st.integers(2, 6), label="length")]
    intervals = (
        PeriodicInterval.around(trip.start_time, 300),
        PeriodicInterval.around(trip.start_time, 900),
        PeriodicInterval.around(trip.start_time - 3600, 900),
        FixedInterval(0, trip.start_time + SECONDS_PER_DAY),
    )
    modes = (None, "none", "ISA", "BT-Acc")
    if reader != "btree":
        modes += ("CSS-Fast",)
    variant = st.builds(
        TripRequest,
        path=st.just(path),
        interval=st.sampled_from(intervals),
        user=st.sampled_from((None, trip.user_id)),
        exclude_ids=st.sampled_from(((), (trip.traj_id,), (trip.traj_id, 3))),
        beta=st.sampled_from((None, 3, 40)),
        estimator=st.sampled_from(modes),
    )
    return data.draw(
        st.lists(variant, min_size=1, max_size=4, unique=True), label="pool"
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_repeated_trips_equal_the_uncached_session(world, data):
    dataset, readers, trips = world
    reader = data.draw(st.sampled_from(READERS), label="reader")
    index = readers[reader]
    pool = draw_variants(data, trips, reader)
    order = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=9),
        label="order",
    )
    # Equal requests are rebuilt, not re-submitted: the memo goes by
    # value, and the back-reference must be the object that was sent.
    requests = [TripRequest.from_dict(pool[i].to_dict()) for i in order]
    name = data.draw(st.sampled_from(sorted(DRIVERS)), label="driver")
    answer = DRIVERS[name]
    config = EngineConfig(
        partitioner=data.draw(st.sampled_from(("pi_1", "pi_Z", "pi_N"))),
        splitter=data.draw(st.sampled_from(("regular", "longest_prefix"))),
        estimator_mode=data.draw(
            st.sampled_from((None, "ISA", "BT-Fast")), label="default mode"
        ),
    )
    reference = TravelTimeDB(index, dataset.network, config, cache=None)
    db = TravelTimeDB(index, dataset.network, config)

    results = answer(db, requests)
    seen = set()
    for request, result in zip(requests, results):
        assert result.request is request
        assert_same_answer(result, reference.query(request))
        if request in seen:
            assert result.n_index_scans == 0
        seen.add(request)
    for request, result in zip(requests, answer(db, requests)):
        assert result.request is request
        assert result.n_index_scans == 0
        assert_same_answer(result, reference.query(request))
    assert db.cache_stats().trips.hits > 0


# --------------------------------------------------------------------- #
# What the key must and must not tell apart
# --------------------------------------------------------------------- #


def sample_request(trips, position=0, **changes):
    trip = trips[position]
    fields = dict(
        path=trip.path[:5],
        interval=PeriodicInterval.around(trip.start_time, 900),
        beta=10,
        exclude_ids=(trip.traj_id,),
    )
    fields.update(changes)
    return TripRequest(**fields)


def double_beta(sub_path, beta):
    return None if beta is None else 2 * beta


@pytest.mark.parametrize(
    "other",
    (
        EngineConfig(partitioner="pi_1"),
        EngineConfig(bucket_width_s=7.0),
        EngineConfig(beta_policy=double_beta),
        EngineConfig(ladder=(600, 7200)),
        EngineConfig(shift_and_enlarge=False),
    ),
    ids=("partitioner", "bucket_width_s", "beta_policy", "ladder", "shift"),
)
def test_sessions_sharing_a_cache_never_serve_each_other(world, other):
    dataset, readers, trips = world
    index, network = readers["css"], dataset.network
    cache = SubQueryCache()
    base = EngineConfig()
    first = TravelTimeDB(index, network, base, cache=cache)
    second = TravelTimeDB(index, network, other, cache=cache)
    request = sample_request(trips)
    for db, config in ((first, base), (second, other), (first, base)):
        assert_same_answer(
            db.query(request),
            TravelTimeDB(index, network, config, cache=None).query(request),
        )
    # Only the first session's second ask found a memoised trip.
    assert cache.stats().trips.hits == 1
    assert cache.stats().trips.size == 2
    # A third session configured like the first shares its entry.
    again = TravelTimeDB(index, network, EngineConfig(), cache=cache)
    assert again.query(request).n_index_scans == 0
    assert cache.stats().trips.hits == 2


def test_inherited_and_explicit_default_estimator_share_an_entry(world):
    dataset, readers, trips = world
    index, network = readers["css"], dataset.network
    config = EngineConfig(estimator_mode="ISA")
    db = TravelTimeDB(index, network, config)
    reference = TravelTimeDB(index, network, config, cache=None)
    request = sample_request(trips, beta=2000)
    inherited = db.query(request)
    assert inherited.n_estimator_skips > 0  # the estimator shaped it
    explicit = db.query(request.with_estimator(EstimatorMode.ISA))
    assert db.cache_stats().trips.hits == 1
    assert explicit.n_index_scans == 0
    assert_same_answer(explicit, inherited)

    disabled = request.with_estimator(EstimatorMode.NONE)
    unchecked = db.query(disabled)
    assert db.cache_stats().trips.hits == 1  # its own entry
    assert unchecked.n_estimator_skips == 0
    assert_same_answer(unchecked, reference.query(disabled))
    # Without an engine default, inheriting *is* disabling.
    plain = TravelTimeDB(index, network)
    plain.query(request)
    assert plain.query(disabled).n_index_scans == 0
    assert plain.cache_stats().trips.hits == 1


def test_returned_results_do_not_leak_into_later_hits(world):
    dataset, readers, trips = world
    db = TravelTimeDB(readers["css"], dataset.network)
    request = sample_request(trips)
    computed = db.query(request)
    n_outcomes = len(computed.outcomes)
    histogram = computed.histogram
    assert n_outcomes > 0
    computed.outcomes.clear()
    computed.request = None
    for answer in (
        lambda: db.query(request),
        lambda: db.query_many([request])[0],
        lambda: db.query_many([request, request])[1],
    ):
        replayed = answer()
        assert replayed.request is request
        assert len(replayed.outcomes) == n_outcomes
        assert replayed.histogram == histogram
        replayed.outcomes.pop()
        replayed.request = sample_request(trips, 1)
    # Twins inside one cold batch own their lists too.
    other = sample_request(trips, 2)
    first, twin = db.query_many([other, other])
    assert twin.n_index_scans == 0 and first.n_index_scans > 0
    first.outcomes.clear()
    assert len(twin.outcomes) > 0
    assert len(db.query(other).outcomes) == len(twin.outcomes)


def test_a_failed_trip_is_not_memoised(world):
    """The memo never keeps a trip that raised, whichever driver asked."""
    dataset, readers, trips = world
    db = TravelTimeDB(
        readers["css"], dataset.network, EngineConfig(max_relaxations=1)
    )
    doomed = sample_request(
        trips,
        interval=PeriodicInterval.around(trips[0].start_time + 40_000, 60),
        beta=500,
    )
    for _ in range(2):
        with pytest.raises(QueryError, match="relaxation limit"):
            db.query(doomed)
        with pytest.raises(QueryError, match="relaxation limit"):
            db.query_many([doomed, doomed])
    assert db.cache_stats().trips.size == 0


# --------------------------------------------------------------------- #
# Batch accounting of replayed trips
# --------------------------------------------------------------------- #


def test_dedup_stats_account_replayed_trips_like_a_sequential_pass(world):
    dataset, readers, trips = world
    index, network = readers["css"], dataset.network
    config = EngineConfig()
    a, b = sample_request(trips, 0), sample_request(trips, 3)
    solo = TravelTimeDB(index, network, cache=None)
    demands = {r: solo.query(r).n_index_scans for r in (a, b)}

    # Without a shared cache the fold is still a pure function of the
    # batch; with one, the second batch is all memo.
    for cache in (None, "default"):
        db = TravelTimeDB(index, network, config, cache=cache)
        results, stats = db.query_many_with_stats([a, a, b, a])
        assert [r.n_index_scans for r in results] == [
            demands[a], 0, demands[b], 0
        ]
        assert [r.n_cache_hits for r in results] == [0, demands[a], 0, demands[a]]
        assert stats.n_trips == 4
        assert stats.planned_subqueries == 3 * demands[a] + demands[b]
        assert stats.n_index_scans == demands[a] + demands[b]
        assert stats.cache_hits == 0
        # The in-batch twins are what dedup saved.
        assert stats.scans_saved == 2 * demands[a]

    results, stats = db.query_many_with_stats([b, a, b])
    assert all(r.n_index_scans == 0 for r in results)
    assert stats.n_trips == 3
    assert stats.planned_subqueries == demands[a] + 2 * demands[b]
    assert stats.cache_hits == stats.planned_subqueries
    assert stats.n_index_scans == stats.scans_saved == 0
    assert stats.unique_subqueries == stats.n_rounds == 0


# --------------------------------------------------------------------- #
# The wire text a memoised answer keeps (ISSUE 24)
# --------------------------------------------------------------------- #


def test_wire_text_is_encoded_once_and_is_no_part_of_the_value(world):
    dataset, readers, trips = world
    db = TravelTimeDB(readers["css"], dataset.network)
    request = sample_request(trips)
    first, twin = db.query_many([request, sample_request(trips)])
    replay = db.query(request)
    assert first.n_index_scans > 0
    assert twin.n_index_scans == replay.n_index_scans == 0
    untouched = dataclasses.replace(first, _wire={})
    for result in (first, twin, replay):
        assert result.to_json() == json.dumps(result.to_dict())
        assert result.to_json() == result.to_json()
    # One encoding of the histogram and outcomes, spliced by every copy;
    # the texts part ways at the counters.
    answer = json.dumps(
        {key: first.to_dict()[key] for key in ("histogram", "outcomes")}
    )[:-1]
    assert first._wire is twin._wire is replay._wire
    assert first._wire["answer"][1] == answer
    for result in (first, twin, replay):
        assert result.to_json().startswith(answer + ', "n_index_scans": ')
    assert first.to_json() != twin.to_json()
    # The cache is not part of the value.
    assert untouched._wire == {} and untouched == first
    assert "_wire" not in repr(first) and "answer" not in repr(first)
    assert set(first.to_dict()) == set(untouched.to_dict())
    # A copy owns its outcomes list: editing it re-encodes, for it alone.
    replay.outcomes.pop()
    assert replay.to_json() == json.dumps(replay.to_dict())
    assert twin.to_json() == json.dumps(twin.to_dict())
    assert twin.to_json().startswith(answer)


def test_no_stale_wire_text_after_an_append(world):
    dataset, _, trips = world
    # The newest week arrives by append(), as in conftest's reader.
    t_min = min(tr.start_time for tr in dataset.trajectories)

    def week(tr):
        return (tr.start_time - t_min) // (7 * SECONDS_PER_DAY)

    newest = max(week(tr) for tr in dataset.trajectories)
    late = [tr for tr in dataset.trajectories if week(tr) == newest]
    index = ShardedSNTIndex.build(
        TrajectorySet(
            [tr for tr in dataset.trajectories if week(tr) < newest]
        ),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=7,
    )
    late_trip = max(trips, key=lambda tr: tr.start_time)
    db = TravelTimeDB(index, dataset.network)
    request = TripRequest(
        path=late_trip.path[:5],
        interval=FixedInterval(0, late_trip.start_time + SECONDS_PER_DAY),
    )
    db.query(request)
    before = db.query(request)  # the memo's answer, text filled below
    assert before.n_index_scans == 0
    assert before.to_json().startswith(before._wire["answer"][1])
    index.append(late)
    after = db.query(request)
    assert after.n_index_scans > 0 and after._wire is not before._wire
    assert after.to_json() == json.dumps(after.to_dict())
    assert sum(o.values.size for o in after.outcomes) > sum(
        o.values.size for o in before.outcomes
    )
    assert not after.to_json().startswith(before._wire["answer"][1])
