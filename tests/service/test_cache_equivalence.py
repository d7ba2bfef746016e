"""Cache/batch equivalence: the fast paths are bit-identical to Procedure 6.

The serving layer (``TravelTimeDB.query_many`` over the shared
``SubQueryCache``) must return *exactly* what a sequential uncached
engine returns — same histograms, same per-sub-query values, same point
estimates — across partitioners, splitters, and estimator
configurations.  The only permitted difference is accounting: cached
runs trade index scans for cache hits, and the sum
``n_index_scans + n_cache_hits`` is invariant.

Since ISSUE 18 both counters tick once per fetch *demand* (a
sub-query's whole widen-ladder walk): a scan if the index was asked for
any rung of it, a hit if the cache held every rung the walk needed.
The assertions are unchanged, their unit is.
"""

import numpy as np
import pytest

from repro import (
    CardinalityEstimator,
    EngineConfig,
    QueryEngine,
    SubQueryCache,
    TravelTimeDB,
    TripRequest,
)
from repro.experiments import build_workload

from tests.typed_api import as_requests, run_trip

PARTITIONERS = ("pi_1", "pi_Z", "pi_ZC")
SPLITTERS = ("regular", "longest_prefix")
N_QUERIES = 6


@pytest.fixture(scope="module")
def workload():
    return build_workload("tiny", seed=0)


@pytest.fixture(scope="module")
def jobs(workload):
    specs = workload.queries[:N_QUERIES]
    queries = [
        spec.to_query("temporal", 900, workload.t_max, 10) for spec in specs
    ]
    exclude_ids = [(spec.traj_id,) for spec in specs]
    return queries, exclude_ids


def assert_equivalent(sequential, serviced):
    """Histograms, outcomes, and scan-adjusted stats must match exactly."""
    assert len(sequential) == len(serviced)
    for expected, actual in zip(sequential, serviced):
        assert actual.histogram == expected.histogram
        assert actual.histogram.as_dict() == expected.histogram.as_dict()
        assert actual.estimated_mean == expected.estimated_mean
        assert actual.n_estimator_skips == expected.n_estimator_skips
        # Cached runs replace scans with hits one for one.
        assert expected.n_cache_hits == 0
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


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("splitter", SPLITTERS)
def test_batched_cached_equals_sequential(
    workload, jobs, partitioner, splitter
):
    queries, exclude_ids = jobs
    config = EngineConfig(partitioner=partitioner, splitter=splitter)
    # A bare QueryEngine is uncached (its cache parameter defaults to
    # per-trip); config.cache_enabled only matters to session layers.
    engine = QueryEngine(workload.index, workload.network, config)
    sequential = [
        run_trip(engine, query, exclude_ids=excluded)
        for query, excluded in zip(queries, exclude_ids)
    ]

    db = TravelTimeDB(workload.index, workload.network, config=config)
    requests = as_requests(queries, exclude_ids)
    # The cold batch shares walks across its trips (a later owner of a
    # shared walk accounts a hit); the warm one is answered from the
    # cache — the scans + hits sum is the sequential scan count in both.
    cold = db.query_many(requests)
    warm = db.query_many(requests)
    assert_equivalent(sequential, cold)
    assert_equivalent(sequential, warm)
    # The warm pass answers the whole batch from cache.
    assert sum(result.n_index_scans for result in warm) == 0
    assert sum(result.n_cache_hits for result in warm) == sum(
        result.n_index_scans for result in sequential
    )


@pytest.mark.parametrize("estimator_mode", (None, "CSS-Fast", "CSS-Acc"))
def test_equivalence_with_cardinality_estimator(
    workload, jobs, estimator_mode
):
    queries, exclude_ids = jobs
    estimator = (
        CardinalityEstimator(workload.index, mode=estimator_mode)
        if estimator_mode is not None
        else None
    )
    engine = QueryEngine(
        workload.index, workload.network, estimator=estimator
    )
    sequential = [
        run_trip(engine, query, exclude_ids=excluded)
        for query, excluded in zip(queries, exclude_ids)
    ]
    config = EngineConfig(estimator_mode=estimator_mode)
    db = TravelTimeDB(workload.index, workload.network, config=config)
    requests = as_requests(queries, exclude_ids)
    cold = db.query_many(requests)
    warm = db.query_many(requests)
    assert_equivalent(sequential, cold)
    assert_equivalent(sequential, warm)
    if estimator_mode is not None:
        # The estimator keeps firing on cached runs (its skip accounting
        # is part of the equivalence contract, not cached away).
        assert sum(r.n_estimator_skips for r in warm) == sum(
            r.n_estimator_skips for r in sequential
        )


def test_results_preserve_submission_order(workload, jobs):
    queries, exclude_ids = jobs
    db = TravelTimeDB(workload.index, workload.network)
    requests = as_requests(queries, exclude_ids)
    batched = db.query_many(requests)
    streamed = list(db.stream(iter(requests), window=4))
    assert [r.request for r in batched] == requests
    assert [r.request for r in streamed] == requests
    for a, b in zip(batched, streamed):
        assert a.histogram == b.histogram
        assert [o.query.path for o in a.outcomes] == [
            o.query.path for o in b.outcomes
        ]


def test_exclude_ids_are_part_of_the_cache_key(workload, jobs):
    """Different exclusions must never share a cached result."""
    queries, exclude_ids = jobs
    db = TravelTimeDB(workload.index, workload.network)
    engine = QueryEngine(workload.index, workload.network)
    excluded = db.query_many(as_requests(queries, exclude_ids))
    included = db.query_many(as_requests(queries))  # no exclusions, warm
    for query, excl, with_excl, without_excl in zip(
        queries, exclude_ids, excluded, included
    ):
        assert with_excl.histogram == run_trip(
            engine, query, exclude_ids=excl
        ).histogram
        assert without_excl.histogram == run_trip(engine, query).histogram


def test_cache_disabled_service_matches_too(workload, jobs):
    queries, exclude_ids = jobs
    engine = QueryEngine(workload.index, workload.network)
    sequential = [
        run_trip(engine, query, exclude_ids=excluded)
        for query, excluded in zip(queries, exclude_ids)
    ]
    db = TravelTimeDB(workload.index, workload.network, cache=None)
    results = db.query_many(as_requests(queries, exclude_ids))
    assert db.cache_stats() is None
    # Without a cache only the batch itself shares: a walk an earlier
    # trip of the batch scanned is a hit for the later ones.
    assert_equivalent(sequential, results)
    assert sum(r.n_index_scans for r in results) == (
        db.last_dedup_stats.n_index_scans
    )


def test_shared_cache_across_services(workload, jobs):
    """One SubQueryCache can back several service instances."""
    queries, exclude_ids = jobs
    shared = SubQueryCache()
    first = TravelTimeDB(workload.index, workload.network, cache=shared)
    second = TravelTimeDB(workload.index, workload.network, cache=shared)
    requests = as_requests(queries, exclude_ids)
    first.query_many(requests)
    warm = second.query_many(requests)
    assert sum(result.n_index_scans for result in warm) == 0


def test_repeated_batches_replay_memoised_trips(workload, jobs):
    """A batch asked again is answered from the cache's trips section —
    still exactly the sequential answers — and ``clear_cache`` empties
    that section with the others."""
    queries, exclude_ids = jobs
    engine = QueryEngine(workload.index, workload.network)
    sequential = [
        run_trip(engine, query, exclude_ids=excluded)
        for query, excluded in zip(queries, exclude_ids)
    ]
    requests = as_requests(queries, exclude_ids)
    drivers = (
        lambda db: [db.query(request) for request in requests],
        lambda db: db.query_many(requests),
    )
    for answer in drivers:
        db = TravelTimeDB(workload.index, workload.network)
        assert_equivalent(sequential, answer(db))
        warm = answer(db)
        assert_equivalent(sequential, warm)
        assert sum(result.n_index_scans for result in warm) == 0
        stats = db.cache_stats().trips
        assert (stats.hits, stats.size) == (len(requests), len(requests))

        db.clear_cache()
        assert db.cache_stats().trips.size == 0
        cold = answer(db)
        assert_equivalent(sequential, cold)
        assert sum(result.n_index_scans for result in cold) > 0


def test_shared_cache_rejects_different_index_or_network(workload):
    """Cache keys carry no data identity, so sharing across another
    index *or network* must fail loudly instead of returning wrong
    answers (fallback results embed the network's estimateTT)."""
    from repro.experiments import build_workload

    shared = SubQueryCache()
    TravelTimeDB(workload.index, workload.network, cache=shared)
    other = build_workload("tiny", seed=1)
    with pytest.raises(ValueError, match="bound to a different"):
        TravelTimeDB(other.index, other.network, cache=shared)
    with pytest.raises(ValueError, match="bound to a different"):
        TravelTimeDB(workload.index, other.network, cache=shared)
    # The binding is permanent — clear() empties but does not unbind
    # (an in-flight trip could repopulate after the clear).
    shared.clear()
    with pytest.raises(ValueError, match="bound to a different"):
        TravelTimeDB(other.index, other.network, cache=shared)
    # Same pair keeps working.
    TravelTimeDB(workload.index, workload.network, cache=shared)


def test_engine_rejects_mismatched_index_network_pair(workload):
    """A mismatched pair would answer silently wrong (unknown edges get
    empty ISA ranges + the wrong network's fallback); the engine — and
    therefore TravelTimeDB/open_db — must refuse it up front."""
    from repro import Edge, QueryEngine, RoadCategory
    from repro.errors import QueryError
    from repro.network import RoadNetwork, ZoneType

    foreign = RoadNetwork()
    foreign.add_vertex(1, (0.0, 0.0))
    foreign.add_vertex(2, (1.0, 0.0))
    foreign.add_edge(
        Edge(
            workload.index.alphabet_size + 5,
            1,
            2,
            RoadCategory.PRIMARY,
            ZoneType.CITY,
            100.0,
            50.0,
        )
    )
    with pytest.raises(QueryError, match="alphabet"):
        QueryEngine(workload.index, foreign)
    with pytest.raises(QueryError, match="alphabet"):
        TravelTimeDB(workload.index, foreign)


def test_invalid_cache_and_workers_raise(workload, jobs):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        TravelTimeDB(workload.index, workload.network, cache="bogus")
    # Deduplication is the only batch path, and the fan-out width is no
    # longer a parameter anywhere.
    with pytest.raises(ConfigurationError, match="always on"):
        EngineConfig(dedup_subqueries=False)
    with pytest.raises(TypeError):
        EngineConfig(n_workers=2)
    db = TravelTimeDB(workload.index, workload.network)
    requests = as_requests(*jobs)
    with pytest.raises(TypeError):
        db.query_many(requests, n_workers=2)
    with pytest.raises(ConfigurationError):
        db.stream(requests, window=0)
