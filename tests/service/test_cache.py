"""Unit tests for the service-layer LRU caches, and the session's
cross-query cache as the engine drives it."""

import threading

import numpy as np
import pytest

from repro import (
    ShardedSNTIndex,
    SNTIndex,
    TrajectorySet,
    TravelTimeDB,
    TripRequest,
    generate_dataset,
)
from repro.core.intervals import FixedInterval, PeriodicInterval
from repro.errors import ConfigurationError, ReproError
from repro.service import LRUCache, SubQueryCache

PARTITION_DAYS = 7


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite refreshes recency
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_unbounded_cache_never_evicts(self):
        cache = LRUCache(None)
        for i in range(1000):
            cache.put(i, i)
        assert len(cache) == 1000
        assert cache.stats().evictions == 0

    def test_none_values_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(4).put("a", None)

    def test_max_entries_is_public(self):
        assert LRUCache(7).max_entries == 7
        assert LRUCache(None).max_entries is None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    @pytest.mark.parametrize("bound", (0, -1, True, 2.5, "3"))
    def test_rejects_bounds_it_cannot_honour(self, bound):
        """Only ``None`` or an ``int`` >= 1 (not a ``bool``) bounds a
        section; anything else is a typed error up front.
        ConfigurationError is both a ReproError and a ValueError (the
        legacy contract)."""
        with pytest.raises(ConfigurationError, match="max_entries"):
            LRUCache(bound)
        with pytest.raises(ValueError):
            LRUCache(bound)
        with pytest.raises(ReproError):
            LRUCache(bound)
        for section in ("max_ranges", "max_results", "max_histograms"):
            with pytest.raises(ConfigurationError, match="max_entries"):
                SubQueryCache(**{section: bound})

    def test_stats_counters(self):
        cache = LRUCache(1)
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        cache.put("b", 2)  # evicts "a"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.size == 1
        assert stats.max_size == 1
        assert stats.hit_rate == 0.5

    def test_concurrent_access_is_consistent(self):
        cache = LRUCache(128)
        errors = []

        def worker(base: int) -> None:
            try:
                for i in range(500):
                    key = (base + i) % 64
                    cache.put(key, key)
                    value = cache.get(key)
                    assert value is None or value == key
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestSubQueryCache:
    def test_sections_are_independent(self):
        cache = SubQueryCache(max_ranges=2, max_results=2, max_histograms=2)
        cache.put_ranges((1, 2), [(0, 0, 3)])
        assert cache.get_ranges((1, 2)) == [(0, 0, 3)]
        assert cache.get_result(("anything",)) is None
        stats = cache.stats()
        assert stats.ranges.size == 1
        assert stats.results.size == 0

    def test_put_result_freezes_values(self):
        import numpy as np

        from repro.sntindex.procedures import TravelTimeResult

        cache = SubQueryCache()
        result = TravelTimeResult(np.asarray([1.0, 2.0]), 2)
        cache.put_result("key", result)
        cached = cache.get_result("key")
        assert not cached.values.flags.writeable

    def test_clear_and_summary(self):
        cache = SubQueryCache()
        cache.put_ranges((1,), [(0, 0, 1)])
        cache.clear()
        assert cache.get_ranges((1,)) is None
        assert "ranges" in cache.stats().summary()


# --------------------------------------------------------------------- #
# The session's cache, driven through TravelTimeDB
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def world():
    dataset = generate_dataset("tiny", seed=0)
    index = SNTIndex.build(
        dataset.trajectories, dataset.network.alphabet_size
    )
    trips = [tr for tr in dataset.trajectories if len(tr) >= 6]
    return dataset, index, trips


def requests_for(trips, count=6):
    return [
        TripRequest(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
            exclude_ids=(trip.traj_id,),
        )
        for trip in trips[:count]
    ]


def assert_bit_identical(expected, actual):
    assert actual.histogram == expected.histogram
    assert actual.histogram.as_dict() == expected.histogram.as_dict()
    assert actual.estimated_mean == expected.estimated_mean
    assert len(actual.outcomes) == len(expected.outcomes)
    for out_expected, out_actual in zip(expected.outcomes, actual.outcomes):
        assert out_actual.query == out_expected.query
        assert np.array_equal(out_actual.values, out_expected.values)
        assert out_actual.histogram == out_expected.histogram
        assert out_actual.from_fallback == out_expected.from_fallback


def _split_for_append(dataset):
    """Older-bucket trajectories as the base corpus, the newest partition
    bucket as the appendable tail (mirrors the sharded-equivalence
    suite's split: buckets are anchored at the corpus t_min)."""
    trajectories = list(dataset.trajectories)
    t_min = min(tr.start_time for tr in trajectories)
    window = PARTITION_DAYS * 86_400
    cut = max((tr.start_time - t_min) // window for tr in trajectories)
    base = [
        tr for tr in trajectories if (tr.start_time - t_min) // window < cut
    ]
    tail = [
        tr for tr in trajectories if (tr.start_time - t_min) // window == cut
    ]
    assert base and tail
    return base, tail


def test_lru_eviction_and_stats():
    cache = SubQueryCache(max_ranges=2, max_results=2, max_histograms=2)
    paths = [(1, 2), (3, 4), (5, 6)]
    for i, path in enumerate(paths):
        assert cache.get_ranges(path) is None  # miss, counted
        cache.put_ranges(path, [(0, i, i + 1)])
    stats = cache.stats()
    assert stats.ranges.misses == 3
    assert stats.ranges.max_size == 2
    assert stats.ranges.size == 2
    assert stats.ranges.evictions == 1

    # The most recent entries are hits.
    assert cache.get_ranges((5, 6)) == [(0, 2, 3)]
    assert cache.get_ranges((3, 4)) == [(0, 1, 2)]
    assert cache.stats().ranges.hits == 2
    # The evicted entry is gone for good.
    assert cache.get_ranges((1, 2)) is None

    cache.clear()
    assert cache.get_ranges((3, 4)) is None


def test_cache_spec_resolution(world):
    dataset, index, _ = world

    def session_cache(cache):
        return TravelTimeDB(index, dataset.network, cache=cache).engine.cache

    def bounds(cache):
        return {section.max_size for section in vars(cache.stats()).values()}

    assert session_cache(None) is None
    default = session_cache("default")
    assert isinstance(default, SubQueryCache)
    assert bounds(default) == {65_536}
    assert bounds(session_cache(SubQueryCache(16, 16, 16))) == {16}


@pytest.mark.parametrize("spec", ("bogus", "shared", "shared:", "shared:/x"))
def test_cache_spec_validation(world, spec):
    """Only ``"default"`` names a cache; other strings are refused."""
    dataset, index, _ = world
    with pytest.raises(ConfigurationError, match="cache must be"):
        TravelTimeDB(index, dataset.network, cache=spec)


def test_binding_rejects_a_second_index_or_network(world):
    dataset, index, _ = world
    cache = SubQueryCache()
    cache.bind_index(index, dataset.network)
    cache.bind_index(index, dataset.network)  # same pair: fine
    with pytest.raises(ValueError, match="bound to a different"):
        cache.bind_index(index, None)
    with pytest.raises(ValueError, match="bound to a different"):
        cache.bind_index(SNTIndex.build(
            dataset.trajectories, dataset.network.alphabet_size
        ), dataset.network)


def test_trip_section_is_lru_bounded(world):
    """``max_results`` bounds the trips section too."""
    dataset, index, trips = world
    cache = SubQueryCache(max_ranges=2, max_results=2, max_histograms=2)
    db = TravelTimeDB(index, dataset.network, cache=cache)
    requests = requests_for(trips, 3)
    for request in requests:
        db.query(request)
    stats = cache.stats().trips
    assert (stats.misses, stats.size, stats.max_size) == (3, 2, 2)
    assert stats.evictions == 1
    assert db.query(requests[2]).n_index_scans == 0
    assert cache.stats().trips.hits == 1
    assert "trips: 1 hits / 3 misses" in cache.stats().summary()


def test_append_between_identical_queries_drops_the_memo(world):
    """``sync_epoch`` empties the trips section with the others: the
    same request after an ``append()`` gets the post-append answer."""
    dataset, _, _ = world
    base, tail = _split_for_append(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    db = TravelTimeDB(sharded, dataset.network)
    # A whole-history predicate, so the appended tail changes the answer.
    trip = max(tail, key=len)
    request = TripRequest(
        path=trip.path[:4], interval=FixedInterval(0, 2**40)
    )
    before = db.query(request)
    assert db.query(request).n_index_scans == 0
    assert db.cache_stats().trips.hits == 1

    sharded.append(tail)
    after = db.query(request)
    assert after.n_index_scans > 0  # recomputed, not replayed
    assert db.cache_stats().trips.hits == 1
    expected = TravelTimeDB(sharded, dataset.network, cache=None).query(
        request
    )
    assert_bit_identical(expected, after)
    assert after.histogram != before.histogram
    assert_bit_identical(expected, db.query(request))  # memoised again
    assert db.cache_stats().trips.hits == 2


def test_clear_empties_the_trip_section(world):
    dataset, index, trips = world
    request = requests_for(trips, 1)[0]
    db = TravelTimeDB(index, dataset.network)
    db.query(request)
    assert db.cache_stats().trips.size == 1
    db.clear_cache()
    assert db.cache_stats().trips.size == 0
    assert db.query(request).n_index_scans > 0
