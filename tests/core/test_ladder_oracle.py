"""Rung-by-rung oracle for the one-call ladder walk (ISSUE 18).

The fetch stage resolves a sub-query's whole widen ladder as one item
of an ``IndexReader.walk_ladder_many`` call and the machine is told which rung
answered.  The oracles here do it the way Procedure 1 is written — scan
a rung with the scalar ``get_travel_times``, fail, ``modify_subquery``,
re-plan, scan the next — and everything the new walk returns must equal
what that loop produces: the rung, its values and ``n_matched``, the
failed rungs' results, the estimator skip count and the relaxation-limit
error, on the CSS and B+-tree monolithic indexes and on a multi-shard
``ShardedSNTIndex`` with a staging shard.
"""

from collections import deque

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
    StrictPathQuery,
    SubQueryCache,
    TravelTimeDB,
    TripRequest,
)
from repro.config import DEFAULT_INTERVAL_LADDER_S, SECONDS_PER_DAY
from repro.core.intervals import is_periodic
from repro.core.plan import (
    PlanPolicy,
    SubQueryTask,
    apply_shift_enlarge,
    canonical_exclude,
    make_split_fn,
    plan_trip,
    wants_shift_enlarge,
)
from repro.core.splitting import modify_subquery, widen_rungs
from repro.errors import QueryError
from repro.histogram.histogram import Histogram
from repro.network import Edge, RoadCategory, RoadNetwork, ZoneType
from repro.trajectories import Trajectory, TrajectoryPoint

READERS = ("css", "btree", "sharded")
DEFAULT_LADDER = tuple(DEFAULT_INTERVAL_LADDER_S)
LADDERS = (
    DEFAULT_LADDER,
    (600,),
    (300, 1000, 4001),
    (900, 43_200, SECONDS_PER_DAY),
    # A top no window can reach: every widening past one day is clamped,
    # so only the relaxation budget ends this ladder.
    (900, SECONDS_PER_DAY + 3600),
)
EIGHT = 8 * 3600


# --------------------------------------------------------------------- #
# The oracles
# --------------------------------------------------------------------- #


def is_widening(sub, replacement):
    """Whether ``modify_subquery`` answered with Stage 1 (one wider rung)."""
    return (
        len(replacement) == 1
        and is_periodic(replacement[0].interval)
        and replacement[0].path == sub.path
        and replacement[0].user == sub.user
    )


def rung_by_rung(index, network, query, ladder, exclude_ids):
    """Procedure 1's widen stage as written: one scalar scan per rung."""
    walk = []
    while True:
        result = index.get_travel_times(
            query, fallback_tt=network.estimate_tt, exclude_ids=exclude_ids
        )
        walk.append((query, result))
        if not result.is_empty:
            return walk
        replacement = modify_subquery(query, ladder, index.t_max)
        if not is_widening(query, replacement):
            return walk
        query = replacement[0]


def assert_same_result(actual, expected):
    assert actual.values.dtype == expected.values.dtype
    assert np.array_equal(actual.values, expected.values)
    assert actual.n_matched == expected.n_matched
    assert actual.insufficient == expected.insufficient
    assert actual.from_fallback == expected.from_fallback


def assert_walk_matches(index, network, query, ladder, exclude_ids=()):
    """``walk_ladder_many`` (one item, and grouped) against the
    rung-by-rung loop; returns the expected walk."""
    expected = rung_by_rung(index, network, query, ladder, exclude_ids)
    asked = []

    def wider():
        asked.append(True)
        return widen_rungs(query, ladder, limit=50)

    # A fixed window in the corpus's first half day: on the sharded
    # reader it starts inside the first sealed shard's time span and
    # routes to that shard alone, while the periodic items route to
    # every shard.
    local = query.with_interval(
        FixedInterval(index.t_min, index.t_min + SECONDS_PER_DAY // 2)
    )
    if isinstance(index, ShardedSNTIndex):
        first_shard = index.entries[0]
        assert first_shard.t_lo <= index.t_min <= first_shard.t_hi
        assert index.route(local.interval) == [0]
    local_item = (local, lambda: widen_rungs(local, ladder, limit=50), (), None)

    grouped = index.walk_ladder_many(
        [
            (query, wider, exclude_ids, None),
            (query.without_beta(), wider, (), None),
            local_item,
        ],
        fallback_tt=network.estimate_tt,
    )
    walks = [
        # One item, ranges from the planner — a single query's round.
        index.walk_ladder_many(
            [(query, wider, exclude_ids, index.isa_ranges(query.path))],
            fallback_tt=network.estimate_tt,
        )[0],
        # Grouped form, ranges left to the reader, beside a second item
        # on the same first edge and one that routes to a single shard.
        grouped[0],
    ]
    for walk in walks:
        assert len(walk) == len(expected)
        for actual, (_, wanted) in zip(walk, expected):
            assert_same_result(actual, wanted)
    (alone,) = index.walk_ladder_many(
        [local_item], fallback_tt=network.estimate_tt
    )
    assert len(grouped[2]) == len(alone) == 1
    assert_same_result(grouped[2][0], alone[0])
    # The wider rungs are only ever asked for after a failure.
    if not expected[0][1].is_empty:
        assert len(asked) == 0
    return expected


def sequential_trip(index, network, config, estimator, request):
    """Procedure 6 with the rung-by-rung relaxation loop (the engine's
    behaviour before ISSUE 18), on the unchanged pure planner functions.

    Returns ``(outcomes, n_skips, n_walks)`` — ``n_walks`` counts the
    ladder walks that reached the index at least once, the per-demand
    scan accounting — or raises the relaxation-limit ``QueryError``.
    """
    policy = PlanPolicy.from_config(config)
    exclude = canonical_exclude(request.exclude_ids)
    split_fn = make_split_fn(policy, index, exclude)
    # (sub-query, whether its walk already reached the index)
    queue = deque(
        (sub, False) for sub in plan_trip(policy, request.to_spq(), network)
    )
    outcomes, spent = [], [0]
    n_skips = n_walks = 0
    shift_s = enlarge_s = 0.0

    def relax(sub, fetched):
        spent[0] += 1
        if spent[0] > policy.max_relaxations:
            raise QueryError("relaxation limit exceeded")
        replacement = modify_subquery(sub, policy.ladder, index.t_max, split_fn)
        same_walk = fetched and is_widening(sub, replacement)
        queue.extendleft(reversed([(q, same_walk) for q in replacement]))

    while queue:
        sub, fetched = queue.popleft()
        ranges = index.isa_ranges(sub.path)
        if wants_shift_enlarge(policy, sub, bool(outcomes)):
            sub = apply_shift_enlarge(sub, shift_s, enlarge_s)
        if (
            estimator is not None
            and sub.beta is not None
            and estimator.estimate(sub, isa_ranges=ranges) < sub.beta
        ):
            n_skips += 1
            relax(sub, fetched)
            continue
        result = index.get_travel_times(
            sub, fallback_tt=network.estimate_tt, exclude_ids=exclude
        )
        n_walks += not fetched
        if result.is_empty:
            relax(sub, True)
            continue
        histogram = Histogram.from_values(result.values, policy.bucket_width_s)
        outcomes.append((sub, result))
        shift_s += histogram.min_value
        enlarge_s += histogram.value_range
    return outcomes, n_skips, n_walks


def run_or_error(function):
    try:
        return function(), None
    except QueryError as error:
        return None, str(error)


def assert_trip_matches(actual, expected):
    outcomes, n_skips, n_walks = expected
    assert actual.n_estimator_skips == n_skips
    assert actual.n_index_scans + actual.n_cache_hits == n_walks
    assert len(actual.outcomes) == len(outcomes)
    for outcome, (sub, result) in zip(actual.outcomes, outcomes):
        assert outcome.query == sub
        assert outcome.query.shift_applied == sub.shift_applied
        assert np.array_equal(outcome.values, result.values)
        assert outcome.from_fallback == result.from_fallback


# --------------------------------------------------------------------- #
# Properties over the generated world
# --------------------------------------------------------------------- #

SIZES = (60, 300, 450, 900, 901, 1000, 1800, 3599, 7200, 50_000,
         SECONDS_PER_DAY - 1, SECONDS_PER_DAY)


def draw_query(data, trips):
    trip = trips[data.draw(st.integers(0, len(trips) - 1), label="trip")]
    length = data.draw(st.integers(1, 6), label="length")
    offset = data.draw(st.integers(0, len(trip.path) - length))
    centre = trip.start_time + data.draw(
        st.sampled_from((0, 450, -3600, 40_000)), label="centre offset"
    )
    query = StrictPathQuery(
        path=trip.path[offset : offset + length],
        interval=PeriodicInterval.around(
            centre, data.draw(st.sampled_from(SIZES), label="size")
        ),
        user=trip.user_id if data.draw(st.booleans(), label="user") else None,
        beta=data.draw(st.sampled_from((None, 1, 3, 10, 40, 200))),
    )
    exclude_ids = data.draw(
        st.sampled_from(
            ((), (trip.traj_id,), (trip.traj_id + 7, 3, trip.traj_id, 3),
             tuple(range(400, 0, -3)))
        ),
        label="exclude",
    )
    return query, exclude_ids


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_walk_ladder_equals_rung_by_rung(world, data):
    dataset, readers, trips = world
    index = readers[data.draw(st.sampled_from(READERS), label="reader")]
    query, exclude_ids = draw_query(data, trips)
    # Ladders whose top is reachable; the clamped one needs a budget.
    ladder = data.draw(st.sampled_from(LADDERS[:-1]), label="ladder")
    assert_walk_matches(index, dataset.network, query, ladder, exclude_ids)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_trips_equal_the_rung_by_rung_engine(world, data):
    dataset, readers, trips = world
    reader = data.draw(st.sampled_from(READERS), label="reader")
    index = readers[reader]
    query, exclude_ids = draw_query(data, trips)
    ladder = data.draw(st.sampled_from(LADDERS), label="ladder")
    tight = (1, 2, 3, 5, 8)
    config = EngineConfig(
        partitioner=data.draw(st.sampled_from(("pi_1", "pi_Z", "pi_N"))),
        splitter=data.draw(st.sampled_from(("regular", "longest_prefix"))),
        ladder=ladder,
        estimator_mode=data.draw(
            st.sampled_from(
                (None, "ISA", "BT-Fast", "BT-Acc")
                + (() if reader == "btree" else ("CSS-Fast", "CSS-Acc"))
            ),
            label="estimator",
        ),
        max_relaxations=data.draw(
            st.sampled_from(
                tight if ladder[-1] > SECONDS_PER_DAY else tight + (10_000,)
            ),
            label="max_relaxations",
        ),
        shift_and_enlarge=data.draw(st.booleans(), label="shift"),
    )
    request = TripRequest.from_spq(query, exclude_ids=exclude_ids)
    engine = QueryEngine(index, dataset.network, config)
    expected, error = run_or_error(
        lambda: sequential_trip(
            index, dataset.network, config, engine.estimator, request
        )
    )

    db = TravelTimeDB(index, dataset.network, config=config)
    drivers = (
        lambda: engine.query(request),
        # The session's sequential loop and its batch, the second pass
        # answered by the cache the first one filled, rung by rung.
        lambda: db.query(request),
        lambda: db.query_many([request])[0],
        lambda: db.query_many([request, request])[1],
    )
    for driver in drivers:
        actual, raised = run_or_error(driver)
        assert raised == error
        if error is None:
            assert_trip_matches(actual, expected)


def test_one_dedup_batch_mixing_estimator_modes(world):
    """Trips that share a first rung but not an estimator are separate
    walks: which rungs a walk tries is the estimator's decision."""
    dataset, readers, trips = world
    index = readers["sharded"]
    modes = ("none", "ISA", "CSS-Fast", "CSS-Acc")
    requests = [
        TripRequest(
            path=trip.path[:4],
            interval=PeriodicInterval.around(trip.start_time, 300),
            beta=25,
            estimator=mode,
        )
        for trip in trips[:8]
        for mode in modes
    ]
    engine = QueryEngine(index, dataset.network)
    db = TravelTimeDB(index, dataset.network)
    batched = db.query_many(requests)
    assert sum(r.n_estimator_skips for r in batched) > 0
    for request, actual in zip(requests, batched):
        expected = engine.query(request)
        assert actual.histogram == expected.histogram
        assert actual.n_estimator_skips == expected.n_estimator_skips
        assert (
            actual.n_index_scans + actual.n_cache_hits
            == expected.n_index_scans
        )
        assert [o.query for o in actual.outcomes] == [
            o.query for o in expected.outcomes
        ]


# --------------------------------------------------------------------- #
# Explicit cases on crafted data
# --------------------------------------------------------------------- #


def chain_network(n_edges=4):
    network = RoadNetwork()
    for vertex in range(n_edges + 1):
        network.add_vertex(vertex, (float(vertex * 100), 0.0))
    for edge_id in range(1, n_edges + 1):
        network.add_edge(
            Edge(edge_id, edge_id - 1, edge_id, RoadCategory.PRIMARY,
                 ZoneType.CITY, 100.0, 50.0)
        )
    return network


def crafted(tods, edges=(1, 2), days=5, user=1):
    """One trajectory over ``edges`` per (day, time of day)."""
    rows = []
    for day in range(days):
        for tod in tods:
            t, points = day * SECONDS_PER_DAY + tod, []
            for k, edge in enumerate(edges):
                points.append(TrajectoryPoint(edge, t, 10.0 + len(rows) % 7))
                t += 10 + k
            rows.append(Trajectory(len(rows), user, points))
    return rows


@pytest.fixture(scope="module", params=READERS)
def crafted_reader(request, readers_over):
    network = chain_network()

    def build(rows):
        return readers_over(rows, network.alphabet_size, 1)[request.param]

    return network, build


def rung_sizes(walk):
    return [query.interval.size for query, _ in walk]


def test_window_wrapping_midnight(crafted_reader):
    network, build = crafted_reader
    index = build(crafted([SECONDS_PER_DAY - 120, 30, 1500]))
    query = StrictPathQuery(
        path=(1, 2),
        interval=PeriodicInterval(SECONDS_PER_DAY - 450, 900),
        beta=12,  # 10 in the first window, 15 once 00:25 is inside
    )
    walk = assert_walk_matches(index, network, query, DEFAULT_LADDER)
    assert rung_sizes(walk) == [900, 1800, 2700, 3600]
    assert walk[-1][0].interval.start_tod > walk[-1][0].interval.duration
    assert [result.n_matched for _, result in walk] == [10, 10, 10, 12]


def test_duration_reaching_a_full_day(crafted_reader):
    network, build = crafted_reader
    index = build(crafted([EIGHT, EIGHT + 43_000, EIGHT - 600]))
    ladder = (900, 43_200, SECONDS_PER_DAY)
    query = StrictPathQuery(
        path=(1, 2), interval=PeriodicInterval.around(EIGHT, 900), beta=12
    )
    walk = assert_walk_matches(index, network, query, ladder)
    assert rung_sizes(walk) == [900, 43_200, SECONDS_PER_DAY]
    assert [r.n_matched for _, r in walk] == [5, 10, 12]
    # An enlarged window that starts off the ladder — all of the day but
    # 07:45:27-07:53:47 — and is clamped at one day on its way up.
    enlarged = query.with_interval(
        PeriodicInterval.around(EIGHT, 900).shifted_and_enlarged(77, 85_000)
    )
    walk = assert_walk_matches(index, network, enlarged, ladder)
    assert rung_sizes(walk) == [85_900, SECONDS_PER_DAY]
    assert [r.n_matched for _, r in walk] == [10, 12]


def test_ties_at_a_rung_edge(crafted_reader):
    network, build = crafted_reader
    # Two trajectories a day share 07:45:00 and two share 08:15:00.
    index = build(crafted([EIGHT - 900, EIGHT - 900, EIGHT + 900, EIGHT + 900]))
    query = StrictPathQuery(
        path=(1, 2), interval=PeriodicInterval.around(EIGHT, 900), beta=7
    )
    # The second rung starts (inclusive) at 07:45:00 and ends (exclusive)
    # at 08:15:00; beta cuts inside a pair of equal timestamps.
    walk = assert_walk_matches(index, network, query, DEFAULT_LADDER)
    assert [r.n_matched for _, r in walk] == [0, 7]
    assert walk[1][0].interval == PeriodicInterval(EIGHT - 900, 1800)
    # A first rung ending exactly on the tie, a second one second past it.
    later = query.with_interval(PeriodicInterval(EIGHT, 900))
    walk = assert_walk_matches(index, network, later, (900, 902))
    assert [r.n_matched for _, r in walk] == [0, 7]
    assert walk[1][0].interval == PeriodicInterval(EIGHT - 1, 902)


def test_exactly_beta_matches(crafted_reader):
    network, build = crafted_reader
    index = build(crafted([EIGHT + 1000]))
    for beta, sizes in ((5, [900, 1800, 2700]), (6, list(DEFAULT_LADDER))):
        query = StrictPathQuery(
            path=(1, 2), interval=PeriodicInterval.around(EIGHT, 900),
            beta=beta,
        )
        walk = assert_walk_matches(index, network, query, DEFAULT_LADDER)
        assert rung_sizes(walk) == sizes
        assert walk[-1][1].insufficient == (beta == 6)


def test_every_rung_failing_splits_then_falls_back(crafted_reader):
    network, build = crafted_reader
    index = build(crafted([EIGHT], edges=(1, 2, 3)))
    engine = QueryEngine(index, network, EngineConfig(partitioner="pi_N"))
    request = TripRequest(
        path=(1, 2, 3), interval=PeriodicInterval.around(EIGHT, 900), beta=50
    )
    result = engine.query(request)
    expected = sequential_trip(index, network, engine.config, None, request)
    assert_trip_matches(result, expected)
    # Whole path, then halves, then single edges: every walk fails all
    # six rungs, and each single edge ends on the all-data rung.
    assert [o.query.path for o in result.outcomes] == [(1,), (2,), (3,)]
    assert all(o.query.beta is None for o in result.outcomes)
    assert result.n_index_scans == expected[2] == 8
    # An edge nobody drove: the single-edge walk ends in estimateTT.
    request = TripRequest(
        path=(4,), interval=PeriodicInterval.around(EIGHT, 900), beta=2
    )
    result = engine.query(request)
    assert_trip_matches(
        result, sequential_trip(index, network, engine.config, None, request)
    )
    assert [o.from_fallback for o in result.outcomes] == [True]


@pytest.mark.parametrize("held", range(5))
def test_cache_already_holding_the_first_rungs(crafted_reader, held):
    network, build = crafted_reader
    index = build(crafted([EIGHT + 1500]))
    query = StrictPathQuery(
        path=(1, 2), interval=PeriodicInterval.around(EIGHT, 900), beta=4
    )
    walk = rung_by_rung(index, network, query, DEFAULT_LADDER, ())
    assert rung_sizes(walk) == [900, 1800, 2700, 3600]
    cache = SubQueryCache()
    engine = QueryEngine(index, network, cache=cache)
    for sub, result in walk[:held]:
        cache.put_result(SubQueryTask(sub, ()).key, result)
    result = engine.query(TripRequest.from_spq(query))
    assert [o.query for o in result.outcomes] == [walk[-1][0]]
    assert np.array_equal(result.outcomes[0].values, walk[-1][1].values)
    # One demand, one account: an index scan unless the cache held the
    # whole walk.
    assert (result.n_index_scans, result.n_cache_hits) == (
        (0, 1) if held == len(walk) else (1, 0)
    )
    # Every rung tried is stored under its own key, as the rung-by-rung
    # walk would have left it.
    for sub, wanted in walk:
        assert_same_result(
            cache.get_result(SubQueryTask(sub, ()).key), wanted
        )
