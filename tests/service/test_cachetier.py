"""The cross-process shared cache tier (ISSUE 4).

Three contracts are enforced here:

1. **Protocol** — ``SubQueryCache`` and ``SharedCacheTier`` (the same
   class with a ``SqliteCacheStore`` behind it) both satisfy
   ``CacheBackend``; LRU eviction and hit/miss accounting are observable
   through the protocol alone, whichever backend is plugged in.
2. **Bit-identity** — answers with the shared tier on are exactly the
   uncached answers, on every batch surface, in forked processes, and
   across a second *fresh* handle (a new process's view of the store).
3. **Epoch invalidation across processes** — entries written before an
   ``append()`` are never served after the epoch bump, even by handles
   (or forked workers) that never observed the append call.
"""

import numpy as np
import pytest

from repro import (
    EngineConfig,
    QueryEngine,
    ShardedSNTIndex,
    StrictPathQuery,
    SubQueryCache,
    TrajectorySet,
    TravelTimeDB,
    TripRequest,
    generate_dataset,
)
from repro.core.engine import SubQueryOutcome, TripQueryResult
from repro.core.intervals import FixedInterval, PeriodicInterval
from repro.errors import ConfigurationError
from repro.forkpool import fork_map
from repro.histogram.histogram import Histogram
from repro.service import CacheBackend, SharedCacheTier, resolve_cache_backend
from repro.sntindex.procedures import TravelTimeResult

PARTITION_DAYS = 7


@pytest.fixture(scope="module")
def world():
    dataset = generate_dataset("tiny", seed=0)
    from repro import SNTIndex

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


# --------------------------------------------------------------------- #
# Protocol conformance + LRU/stat accounting through the protocol
# --------------------------------------------------------------------- #


def backend_factories(tmp_path, bound=2):
    """Both backends with in-process sections of ``bound`` entries
    (``None`` = unbounded: the store never has to answer)."""
    return {
        "memory": lambda: SubQueryCache(
            max_ranges=bound, max_results=bound, max_histograms=bound
        ),
        "shared": lambda: SharedCacheTier(
            tmp_path / "tier", config=EngineConfig(), max_entries=bound
        ),
    }


@pytest.mark.parametrize("kind", ("memory", "shared"))
def test_backends_satisfy_protocol(kind, tmp_path):
    backend = backend_factories(tmp_path)[kind]()
    assert isinstance(backend, CacheBackend)


@pytest.mark.parametrize("kind", ("memory", "shared"))
def test_lru_eviction_and_stats_through_protocol(kind, tmp_path):
    """Eviction and hit/miss counters behave identically through the
    CacheBackend protocol, whichever implementation is plugged in."""
    backend: CacheBackend = backend_factories(tmp_path)[kind]()
    paths = [(1, 2), (3, 4), (5, 6)]
    for i, path in enumerate(paths):
        assert backend.get_ranges(path) is None  # miss, counted
        backend.put_ranges(path, [(0, i, i + 1)])
    stats = backend.stats()
    assert stats.ranges.misses == 3
    assert stats.ranges.max_size == 2
    assert stats.ranges.size == 2  # in-memory layer is LRU-bounded
    assert stats.ranges.evictions == 1

    # The most recent entries are hits in both backends.
    assert backend.get_ranges((5, 6)) == [(0, 2, 3)]
    assert backend.get_ranges((3, 4)) == [(0, 1, 2)]
    stats = backend.stats()
    assert stats.ranges.hits == 2
    if kind == "memory":
        # The evicted entry is gone for good in-process...
        assert backend.get_ranges((1, 2)) is None
    else:
        # ... but the shared store still holds it (store is unbounded,
        # epoch-collected): an L1 eviction is not a data loss.
        assert backend.get_ranges((1, 2)) == [(0, 0, 1)]
        assert backend.tier_stats().shared_hits["ranges"] >= 1

    backend.clear()
    assert backend.get_ranges((3, 4)) is None


def test_result_wire_form_round_trips_bit_identically():
    values = np.asarray([1.5, 2.25, 1e-7, 12345.6789], dtype=np.float64)
    result = TravelTimeResult(
        values=values, n_matched=7, from_fallback=False, insufficient=False
    )
    wire = result.to_wire()
    # The wire payload carries plain Python floats (values.tolist()), so
    # json round-trips them through repr without narrowing.
    assert all(type(v) is float for v in wire["values"])
    assert wire["values"] == [float(v) for v in values]
    back = TravelTimeResult.from_wire(wire)
    assert np.array_equal(back.values, result.values)
    assert back.values.dtype == np.float64
    assert not back.values.flags.writeable  # cached values are immutable
    assert back.n_matched == 7
    assert (back.from_fallback, back.insufficient) == (False, False)


# --------------------------------------------------------------------- #
# resolve_cache_backend / config spec
# --------------------------------------------------------------------- #


def test_cache_spec_resolution(world, tmp_path):
    dataset, index, _ = world
    assert resolve_cache_backend(EngineConfig(cache="off"), index) is None
    assert isinstance(
        resolve_cache_backend(EngineConfig(), index), SubQueryCache
    )
    with pytest.raises(ConfigurationError, match="cache must be"):
        EngineConfig(cache=None)
    memory = resolve_cache_backend(EngineConfig(cache="memory"), index)
    assert isinstance(memory, SubQueryCache)
    tier = resolve_cache_backend(
        EngineConfig(cache=f"shared:{tmp_path / 'tier'}"), index
    )
    assert isinstance(tier, SharedCacheTier)
    # 'shared' without a disk-loaded index has no directory to live in.
    with pytest.raises(ConfigurationError, match="not loaded from disk"):
        resolve_cache_backend(EngineConfig(cache="shared"), index)


def test_cache_spec_validation():
    with pytest.raises(ConfigurationError, match="cache must be"):
        EngineConfig(cache="bogus")
    with pytest.raises(ConfigurationError, match="cache must be"):
        EngineConfig(cache="shared:")
    with pytest.raises(ConfigurationError, match="beta_policy"):
        EngineConfig(cache="shared", beta_policy=lambda path, beta: beta)


def test_cache_identity_excludes_serving_knobs():
    base = EngineConfig()
    assert base.cache_identity() == base.replace(
        cache="off", cache_entries=16
    ).cache_identity()
    assert (
        base.cache_identity()
        != base.replace(bucket_width_s=42.0).cache_identity()
    )
    with pytest.raises(ConfigurationError, match="beta_policy"):
        EngineConfig(beta_policy=lambda path, beta: beta).cache_identity()


def test_differently_configured_sessions_never_share_entries(
    world, tmp_path
):
    """Same directory, different EngineConfig identity: zero shared hits."""
    dataset, index, trips = world
    requests = requests_for(trips, 3)
    spec = f"shared:{tmp_path / 'tier'}"
    db_a = TravelTimeDB(
        index, dataset.network, config=EngineConfig(cache=spec)
    )
    db_a.query_many(requests)
    db_b = TravelTimeDB(
        index,
        dataset.network,
        config=EngineConfig(cache=spec, bucket_width_s=60.0),
    )
    results = db_b.query_many(requests)
    assert sum(r.n_cache_hits for r in results) == 0
    tier = db_b.engine.cache
    assert sum(tier.tier_stats().shared_hits.values()) == 0


def test_tier_rejects_store_of_different_world(world, tmp_path):
    dataset, index, trips = world
    other = generate_dataset("tiny", seed=1)
    from repro import SNTIndex

    other_index = SNTIndex.build(
        other.trajectories, other.network.alphabet_size
    )
    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")
    TravelTimeDB(index, dataset.network, config=spec).query_many(
        requests_for(trips, 1)
    )
    with pytest.raises(ValueError, match="fingerprint"):
        TravelTimeDB(other_index, other.network, config=spec).query_many(
            requests_for([tr for tr in other.trajectories if len(tr) >= 6], 1)
        )


# --------------------------------------------------------------------- #
# Bit-identity with the tier on/off, across batch surfaces and processes
# --------------------------------------------------------------------- #


def test_tier_answers_bit_identical_across_fanout_modes(world, tmp_path):
    dataset, index, trips = world
    requests = requests_for(trips, 6)
    uncached = TravelTimeDB(index, dataset.network, cache=None)
    expected = uncached.query_many(requests)

    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")
    db = TravelTimeDB(index, dataset.network, config=spec)
    for results in (
        db.query_many(requests),                      # cold, one batch
        db.query_many(requests),                      # warm, one batch
        list(db.stream(requests, window=2)),          # warm, windowed
    ):
        for want, got in zip(expected, results):
            assert_bit_identical(want, got)

    # A second fresh handle (another process's view of the store)
    # answers the whole workload from shared hits, still bit-identical.
    db2 = TravelTimeDB(index, dataset.network, config=spec)
    warm = db2.query_many(requests)
    assert sum(r.n_index_scans for r in warm) == 0
    for want, got in zip(expected, warm):
        assert_bit_identical(want, got)


def test_forked_workers_write_through_the_shared_tier(world, tmp_path):
    """Sessions in forked processes open the tier itself: entries a
    worker computes are visible to fresh sessions afterwards."""
    dataset, index, trips = world
    requests = requests_for(trips, 4)
    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")

    def answer_in_child(request):
        return TravelTimeDB(index, dataset.network, config=spec).query(
            request
        )

    fork_map(answer_in_child, requests, workers=2)

    fresh = TravelTimeDB(index, dataset.network, config=spec)
    warm = fresh.query_many(requests)
    assert sum(r.n_index_scans for r in warm) == 0
    assert sum(r.n_cache_hits for r in warm) > 0


# --------------------------------------------------------------------- #
# Epoch invalidation observed across processes
# --------------------------------------------------------------------- #


def _split_for_append(dataset):
    """Older-bucket trajectories as the base corpus, the newest partition
    bucket as the appendable tail (mirrors the sharded-equivalence
    suite's split: buckets are anchored at the corpus t_min)."""
    trajectories = list(dataset.trajectories)
    t_min = min(tr.start_time for tr in trajectories)
    window = PARTITION_DAYS * 86_400
    buckets = sorted(
        {(tr.start_time - t_min) // window for tr in trajectories}
    )
    cut = buckets[-1]
    base = [
        tr for tr in trajectories if (tr.start_time - t_min) // window < cut
    ]
    tail = [
        tr for tr in trajectories if (tr.start_time - t_min) // window == cut
    ]
    return base, tail


def test_rebuilt_index_over_changed_data_never_shares(world, tmp_path):
    """An in-memory rebuild over *changed* trajectory data (e.g. the CLI
    re-building after the world file was edited) restarts at epoch 0
    with no token — the content-derived base lineage must still keep it
    apart from the previous build's entries."""
    dataset, index, trips = world
    from repro import SNTIndex, TrajectorySet

    shrunk = SNTIndex.build(
        TrajectorySet(list(dataset.trajectories)[:-20]),
        dataset.network.alphabet_size,
    )
    assert shrunk.epoch == index.epoch == 0  # indistinguishable by epoch
    requests = requests_for(trips, 3)
    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")
    TravelTimeDB(index, dataset.network, config=spec).query_many(requests)
    results = TravelTimeDB(shrunk, dataset.network, config=spec).query_many(
        requests
    )
    assert sum(r.n_cache_hits for r in results) == 0  # nothing crossed
    expected = TravelTimeDB(shrunk, dataset.network, cache=None).query_many(
        requests
    )
    for want, got in zip(expected, results):
        assert_bit_identical(want, got)


def test_epoch_bump_invalidates_across_handles(world, tmp_path):
    """Two handles onto one store: entries stamped before an epoch bump
    are unreachable afterwards, whichever handle reads."""
    dataset, _, _ = world
    base, tail = _split_for_append(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    config = EngineConfig()
    writer = SharedCacheTier(tmp_path / "tier", config=config)
    reader = SharedCacheTier(tmp_path / "tier", config=config)
    writer.bind_index(sharded, dataset.network)
    reader.bind_index(sharded, dataset.network)

    key = ((1, 2), FixedInterval(0, 100), None, None, ())
    writer.put_result(
        key,
        TravelTimeResult(
            values=np.asarray([1.0]), n_matched=1, from_fallback=False
        ),
    )
    assert reader.get_result(key) is not None  # visible across handles

    sharded.append(tail)  # bumps the epoch
    writer.sync_epoch(sharded)
    assert writer.get_result(key) is None  # stale entry unreachable
    # The reader handle syncs independently and must not see it either.
    reader.sync_epoch(sharded)
    assert reader.get_result(key) is None


def test_same_epoch_number_different_appends_never_share(world, tmp_path):
    """Epoch numbers are per-object ordinal counters: two sessions that
    independently append *different* tails to copies of one saved index
    both land on epoch N+1, but must never serve each other's entries
    (the ``epoch_token`` lineage keeps them apart)."""
    dataset, _, _ = world
    base, tail = _split_for_append(dataset)
    built = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    saved = built.save(tmp_path / "index")
    from repro import load_any_index

    index_a = load_any_index(saved)
    index_b = load_any_index(saved)
    half = len(tail) // 2 or 1
    index_a.append(tail[:half])
    index_b.append(tail)  # a *different* mutation, same epoch number
    assert index_a.epoch == index_b.epoch

    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")
    trips = [tr for tr in base if len(tr) >= 6]
    requests = requests_for(trips, 3)
    db_a = TravelTimeDB(index_a, dataset.network, config=spec)
    db_a.query_many(requests)  # populates the store at (N+1, lineage A)
    db_b = TravelTimeDB(index_b, dataset.network, config=spec)
    results_b = db_b.query_many(requests)
    assert sum(r.n_cache_hits for r in results_b) == 0  # nothing crossed
    expected = TravelTimeDB(index_b, dataset.network, cache=None).query_many(
        requests
    )
    for want, got in zip(expected, results_b):
        assert_bit_identical(want, got)

    # The lineage survives persistence: saving both mutated states and
    # reloading must keep them distinguishable (else two saved states at
    # the same epoch would collide after a cold start).
    reloaded_a = load_any_index(index_a.save(tmp_path / "saved-a"))
    reloaded_b = load_any_index(index_b.save(tmp_path / "saved-b"))
    assert reloaded_a.epoch == reloaded_b.epoch
    assert reloaded_a.epoch_token == index_a.epoch_token
    assert reloaded_b.epoch_token == index_b.epoch_token
    assert reloaded_a.epoch_token != reloaded_b.epoch_token


def test_append_invalidation_observed_by_forked_process(world, tmp_path):
    """End to end: warm the tier, append, and let a *forked worker
    process* answer the same workload — stale shared entries must never
    be served, so the worker's answers equal a fresh uncached engine
    over the appended index."""
    dataset, _, _ = world
    base, tail = _split_for_append(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    trips = [tr for tr in base if len(tr) >= 6]
    requests = requests_for(trips, 5)
    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")

    db = TravelTimeDB(sharded, dataset.network, config=spec)
    pre_append = db.query_many(requests)  # warms the shared store
    assert sum(r.n_index_scans for r in pre_append) > 0

    sharded.append(tail)

    def answer_in_child(request):
        # Fresh tier handle in the worker, as a separate serving process
        # would build it.
        child_db = TravelTimeDB(sharded, dataset.network, config=spec)
        return child_db.query(request)

    forked = fork_map(answer_in_child, requests, workers=2)
    uncached = TravelTimeDB(sharded, dataset.network, cache=None)
    expected = uncached.query_many(requests)
    changed = 0
    for want, got, before in zip(expected, forked, pre_append):
        assert_bit_identical(want, got)
        if want.histogram != before.histogram:
            changed += 1
    # The append actually changed some answers — otherwise serving a
    # stale entry would be indistinguishable from a correct one.
    assert changed > 0


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #


def test_close_keeps_entries_clear_drops_them(world, tmp_path):
    dataset, index, trips = world
    requests = requests_for(trips, 3)
    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")
    with TravelTimeDB(index, dataset.network, config=spec) as db:
        db.query_many(requests)
    # close() ran; the store must still warm the next session.
    db2 = TravelTimeDB(index, dataset.network, config=spec)
    warm = db2.query_many(requests)
    assert sum(r.n_index_scans for r in warm) == 0
    # clear() drops this configuration's entries for good.
    db2.clear_cache()
    db3 = TravelTimeDB(index, dataset.network, config=spec)
    cold = db3.query_many(requests)
    assert sum(r.n_index_scans for r in cold) > 0


def test_tier_binding_rejects_second_index_per_handle(world, tmp_path):
    dataset, index, _ = world
    tier = SharedCacheTier(tmp_path / "tier", config=EngineConfig())
    tier.bind_index(index, dataset.network)
    tier.bind_index(index, dataset.network)  # same pair: fine
    with pytest.raises(ValueError, match="bound to a different"):
        tier.bind_index(index, None)


# --------------------------------------------------------------------- #
# Store-size bound (ISSUE 5: bound the store within an epoch)
# --------------------------------------------------------------------- #


def test_store_bound_evicts_oldest_without_breaking_bit_identity(
    world, tmp_path
):
    """A tiny ``max_store_entries`` forces constant eviction; every
    answer must still be exactly the uncached one — eviction can only
    ever cost a recomputation."""
    dataset, index, trips = world
    requests = requests_for(trips, 6)
    config = EngineConfig()
    reference = TravelTimeDB(
        index, dataset.network, config=config, cache=None
    ).query_many(requests)

    tier = SharedCacheTier(
        tmp_path / "tier",
        config=config,
        max_entries=2,  # small L1 so reads actually exercise the store
        max_store_entries=5,
    )
    db = TravelTimeDB(index, dataset.network, config=config, cache=tier)
    first = db.query_many(requests)
    assert tier.tier_stats().db_entries <= 5
    # Second pass: most entries were evicted, so this mixes store hits
    # with forced recomputations — answers must not change either way.
    second = db.query_many(requests)
    assert tier.tier_stats().db_entries <= 5
    for expected, a, b in zip(reference, first, second):
        assert_bit_identical(expected, a)
        assert_bit_identical(expected, b)


def test_store_bound_survives_worker_spawn_and_epoch_sync(
    world, tmp_path
):
    dataset, index, trips = world
    tier = SharedCacheTier(
        tmp_path / "tier", config=EngineConfig(), max_store_entries=3
    )
    db = TravelTimeDB(index, dataset.network, cache=tier)
    db.query_many(requests_for(trips, 6))
    assert tier.tier_stats().db_entries <= 3
    # A worker's own handle onto the same file (another serving
    # process) writes under the bound it was given.
    worker = SharedCacheTier(
        tmp_path / "tier", config=EngineConfig(), max_store_entries=3
    )
    TravelTimeDB(index, dataset.network, cache=worker).query_many(
        requests_for(trips[6:], 6)
    )
    assert worker.tier_stats().db_entries <= 3
    # sync_epoch's GC path enforces the bound too (no epoch change
    # needed for the invariant to hold afterwards).
    tier.sync_epoch(index)
    assert tier.tier_stats().db_entries <= 3


def test_store_bound_validation_and_config_wiring(world, tmp_path):
    dataset, index, _ = world
    with pytest.raises(ConfigurationError, match="max_store_entries"):
        SharedCacheTier(
            tmp_path / "t1", config=EngineConfig(), max_store_entries=0
        )
    with pytest.raises(ConfigurationError, match="cache_store_entries"):
        EngineConfig(cache_store_entries=0)
    config = EngineConfig(
        cache=f"shared:{tmp_path / 't2'}", cache_store_entries=7
    )
    backend = resolve_cache_backend(config, index)
    assert isinstance(backend, SharedCacheTier)
    assert backend.store.max_store_entries == 7
    # Serving plumbing: the store bound never shapes answers, so it is
    # excluded from the cross-process cache identity.
    assert config.cache_identity() == EngineConfig().cache_identity()


# --------------------------------------------------------------------- #
# TTL: max_age_s / EngineConfig.cache_ttl_s (time-bounded entries)
# --------------------------------------------------------------------- #


def _backdate(tier, seconds):
    """Age every store row by ``seconds`` (simulated wall-clock)."""
    tier.store.connection().execute(
        "UPDATE entries SET created_at = created_at - ?", (float(seconds),)
    )


class TestSharedTierTTL:
    def test_ttl_validation_and_config_wiring(self, world, tmp_path):
        dataset, index, _ = world
        with pytest.raises(ConfigurationError, match="max_age_s"):
            SharedCacheTier(
                tmp_path / "t1", config=EngineConfig(), max_age_s=0
            )
        with pytest.raises(ConfigurationError, match="cache_ttl_s"):
            EngineConfig(cache_ttl_s=-5)
        config = EngineConfig(
            cache=f"shared:{tmp_path / 't2'}", cache_ttl_s=60.0
        )
        backend = resolve_cache_backend(config, index)
        assert isinstance(backend, SharedCacheTier)
        assert backend.store.max_age_s == 60.0
        # Expiry only ever forces recomputation, never a different
        # answer, so the TTL is excluded from the cache identity.
        assert config.cache_identity() == EngineConfig().cache_identity()

    def test_stale_entries_are_misses_for_fresh_handles(self, tmp_path):
        """Reads are stamp-filtered: an expired row is a miss in every
        process, whether or not GC has reclaimed it yet."""
        directory = tmp_path / "tier"
        writer = SharedCacheTier(
            directory, config=EngineConfig(), max_age_s=60.0
        )
        writer.put_ranges((1, 2), [(0, 1, 2)])

        def fresh(**kwargs):
            return SharedCacheTier(
                directory, config=EngineConfig(), **kwargs
            )

        # Within the TTL a second handle serves it through the store.
        assert fresh(max_age_s=60.0).get_ranges((1, 2)) == [(0, 1, 2)]
        _backdate(writer, 3600)
        assert fresh(max_age_s=60.0).get_ranges((1, 2)) is None
        # TTL is per-handle opt-in: a handle without one still serves
        # the old row (age never changes correctness, only freshness).
        assert fresh().get_ranges((1, 2)) == [(0, 1, 2)]

    def test_write_side_gc_reclaims_stale_rows(self, tmp_path):
        tier = SharedCacheTier(
            tmp_path / "tier", config=EngineConfig(), max_age_s=10.0
        )
        for i in range(4):
            tier.put_ranges((i, i + 1), [(0, i, i + 1)])
        _backdate(tier, 3600)

        def n_rows():
            return tier.store.connection().execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()[0]

        assert n_rows() == 4
        tier.store.last_expiry_gc = 0.0  # defeat amortisation: GC must fire
        tier.put_ranges((9, 10), [(0, 0, 1)])
        assert n_rows() == 1  # only the fresh write survives

    def test_sync_epoch_steady_state_runs_amortised_expiry(
        self, world, tmp_path
    ):
        dataset, index, _ = world
        tier = SharedCacheTier(
            tmp_path / "tier", config=EngineConfig(), max_age_s=10.0
        )
        tier.sync_epoch(index)
        tier.put_ranges((1, 2), [(0, 1, 2)])
        _backdate(tier, 3600)
        tier.store.last_expiry_gc = 0.0
        # Epoch unchanged — the per-trip steady-state path — still
        # reclaims stale rows (amortised).
        tier.sync_epoch(index)
        assert tier.store.connection().execute(
            "SELECT COUNT(*) FROM entries"
        ).fetchone()[0] == 0

    def test_pre_ttl_store_migrates_in_place(self, tmp_path):
        """A store written before the created_at column existed gains it
        on open; its rows stamp 0 and expire once a TTL is configured."""
        import sqlite3

        directory = tmp_path / "tier"
        directory.mkdir()
        legacy = sqlite3.connect(str(directory / "subquery_cache.sqlite"))
        legacy.execute(
            "CREATE TABLE entries ("
            "  section TEXT NOT NULL,"
            "  ident TEXT NOT NULL,"
            "  key TEXT NOT NULL,"
            "  epoch INTEGER NOT NULL,"
            "  lineage TEXT NOT NULL,"
            "  payload TEXT NOT NULL,"
            "  PRIMARY KEY (section, ident, key, epoch, lineage)"
            ")"
        )
        legacy.commit()
        legacy.close()
        tier = SharedCacheTier(
            directory, config=EngineConfig(), max_age_s=60.0
        )
        columns = {
            row[1]
            for row in tier.store.connection().execute(
                "PRAGMA table_info(entries)"
            )
        }
        assert "created_at" in columns
        # New writes are stamped and served normally.
        tier.put_ranges((1, 2), [(0, 1, 2)])
        assert tier.get_ranges((1, 2)) == [(0, 1, 2)]

    def test_expired_entries_recompute_identically(self, world, tmp_path):
        """End to end: after expiry a fresh session recomputes — answers
        stay bit-identical to the uncached baseline, hits drop to zero."""
        dataset, index, trips = world
        requests = requests_for(trips, 3)
        baseline = TravelTimeDB(
            index, dataset.network,
            config=EngineConfig(cache="off"),
        ).query_many(requests)
        spec = EngineConfig(
            cache=f"shared:{tmp_path / 'tier'}", cache_ttl_s=3600.0
        )
        db_warm = TravelTimeDB(index, dataset.network, config=spec)
        db_warm.query_many(requests)
        _backdate(db_warm.engine.cache, 7200)
        db_cold = TravelTimeDB(index, dataset.network, config=spec)
        results = db_cold.query_many(requests)
        tier = db_cold.engine.cache
        assert sum(tier.tier_stats().shared_hits.values()) == 0
        for expected, actual in zip(baseline, results):
            assert_bit_identical(expected, actual)


# --------------------------------------------------------------------- #
# The trips section (ISSUE 20): whole answers, same stamps, same store
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ("memory", "shared"))
def test_trip_section_is_lru_bounded_through_the_protocol(
    kind, world, tmp_path
):
    """``max_results`` / ``max_entries`` bound the trips section too."""
    dataset, index, trips = world
    backend = backend_factories(tmp_path)[kind]()
    db = TravelTimeDB(index, dataset.network, cache=backend)
    requests = requests_for(trips, 3)
    for request in requests:
        db.query(request)
    stats = backend.stats().trips
    assert (stats.misses, stats.size, stats.max_size) == (3, 2, 2)
    assert stats.evictions == 1
    assert db.query(requests[2]).n_index_scans == 0
    assert backend.stats().trips.hits == 1
    assert "trips: 1 hits / 3 misses" in backend.stats().summary()
    if kind == "shared":
        # L1 evicted the first trip; the store still answers it.
        assert db.query(requests[0]).n_index_scans == 0
        assert backend.tier_stats().shared_hits["trips"] == 1
        assert "trips: 1 l1 / 1 shared hits" in (
            backend.tier_stats().summary()
        )


@pytest.mark.parametrize("kind", ("memory", "shared"))
def test_append_between_identical_queries_drops_the_memo(
    kind, world, tmp_path
):
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
    config = EngineConfig(
        cache="memory" if kind == "memory" else f"shared:{tmp_path / 'tier'}"
    )
    db = TravelTimeDB(sharded, dataset.network, config=config)
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


def test_second_handle_answers_a_trip_from_the_store(world, tmp_path):
    """A trip one handle computed is one store read for the next —
    bit-identical after the JSON round trip, accounted as all hits."""
    dataset, index, trips = world
    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")
    request = requests_for(trips, 1)[0]
    expected = TravelTimeDB(index, dataset.network, cache=None).query(request)
    computed = TravelTimeDB(index, dataset.network, config=spec).query(
        request
    )
    assert_bit_identical(expected, computed)

    second = TravelTimeDB(index, dataset.network, config=spec)
    replayed = second.query(request)
    assert second.tier_stats().shared_hits["trips"] == 1
    # Nothing else was read: the trip row answered the whole request.
    assert sum(second.tier_stats().shared_hits.values()) == 1
    assert_bit_identical(expected, replayed)
    assert replayed.request is request
    assert replayed.n_index_scans == 0
    assert replayed.n_cache_hits == expected.n_index_scans
    assert replayed.n_estimator_skips == expected.n_estimator_skips
    for outcome in replayed.outcomes:
        assert not outcome.values.flags.writeable
    # Promoted into L1: the next ask never reaches the store.
    assert second.query(request).n_index_scans == 0
    assert second.tier_stats().l1_hits["trips"] == 1
    assert second.tier_stats().shared_hits["trips"] == 1


def test_trip_rows_respect_identity_and_lineage(world, tmp_path):
    dataset, index, trips = world
    tier_dir = tmp_path / "tier"
    request = requests_for(trips, 1)[0]
    spec = EngineConfig(cache=f"shared:{tier_dir}")
    TravelTimeDB(index, dataset.network, config=spec).query(request)

    # Another cache_identity() over the same store: a miss, own answer.
    other = spec.replace(partitioner="pi_1")
    assert other.cache_identity() != spec.cache_identity()
    db = TravelTimeDB(index, dataset.network, config=other)
    result = db.query(request)
    assert db.tier_stats().shared_hits["trips"] == 0
    assert_bit_identical(
        TravelTimeDB(
            index, dataset.network, config=other, cache=None
        ).query(request),
        result,
    )

    # Another lineage (a build over different data, same epoch number).
    from repro import SNTIndex

    shrunk = SNTIndex.build(
        TrajectorySet(list(dataset.trajectories)[:-20]),
        dataset.network.alphabet_size,
    )
    db = TravelTimeDB(shrunk, dataset.network, config=spec)
    result = db.query(request)
    assert db.tier_stats().shared_hits["trips"] == 0
    assert_bit_identical(
        TravelTimeDB(shrunk, dataset.network, cache=None).query(request),
        result,
    )


def test_clear_empties_the_trip_section(world, tmp_path):
    dataset, index, trips = world
    spec = EngineConfig(cache=f"shared:{tmp_path / 'tier'}")
    request = requests_for(trips, 1)[0]
    db = TravelTimeDB(index, dataset.network, config=spec)
    db.query(request)
    assert db.cache_stats().trips.size == 1
    db.clear_cache()
    assert db.cache_stats().trips.size == 0
    assert db.query(request).n_index_scans > 0  # L1 and store both empty
    # ... also for a handle that opens the directory afterwards.
    db.clear_cache()
    fresh = TravelTimeDB(index, dataset.network, config=spec)
    assert fresh.query(request).n_index_scans > 0
    assert fresh.tier_stats().shared_hits["trips"] == 0


# --------------------------------------------------------------------- #
# One cache class (ISSUE 22): the promotion re-check, the on-disk
# contract, and memory == shared when the store never has to answer
# --------------------------------------------------------------------- #

_RESULT_KEY = ((3, 1, 4), FixedInterval(100, 5000), 7, 5, (9, 2))
_TRIP_INTERVAL = PeriodicInterval(28_800, 900)
# (path, interval, user, exclude_ids, beta, resolved estimator, policy)
_TRIP_KEY = ((3, 1), _TRIP_INTERVAL, None, (9,), 5, ("CSS-Fast", 0.5), None)


def _sample_entries():
    """One fixed entry per section: ``section -> (key, value)``."""
    trip_histogram = Histogram(10.0, 3, [2.0])
    return {
        "ranges": ((3, 1, 4), [(0, 2, 5), (1, 7, 11)]),
        "results": (
            _RESULT_KEY,
            TravelTimeResult(
                values=np.asarray([12.5, 40.0, 1e-7]),
                n_matched=4,
                from_fallback=False,
                insufficient=True,
            ),
        ),
        "histograms": (
            (_RESULT_KEY, 10.0),
            Histogram(10.0, 1, [2.0, 0.0, 1.0]),
        ),
        "trips": (
            _TRIP_KEY,
            TripQueryResult(
                histogram=trip_histogram,
                outcomes=[
                    SubQueryOutcome(
                        query=StrictPathQuery(
                            path=(3, 1), interval=_TRIP_INTERVAL, beta=5
                        ),
                        values=np.asarray([30.0, 31.5]),
                        histogram=trip_histogram,
                        from_fallback=False,
                    )
                ],
                n_index_scans=0,
                n_estimator_skips=1,
                elapsed_s=0.25,
                n_cache_hits=2,
            ),
        ),
    }


def _put_samples(backend):
    entries = _sample_entries()
    backend.put_ranges(*entries["ranges"])
    backend.put_result(*entries["results"])
    backend.put_histogram(*entries["histograms"])
    backend.put_trip(*entries["trips"])
    return entries


def _build_sharded(dataset):
    base, tail = _split_for_append(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    return sharded, tail


_PROBES = {
    "get_ranges": ("ranges", lambda tier, key: tier.get_ranges(key), None),
    "get_result": ("results", lambda tier, key: tier.get_result(key), None),
    "get_results_many": (
        "results", lambda tier, key: tier.get_results_many([key]), {}
    ),
    "get_trip": ("trips", lambda tier, key: tier.get_trip(key), None),
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_append_during_the_store_read_never_promotes_the_row(
    probe, world, tmp_path, monkeypatch
):
    """The interleaving the bind-lock re-check exists for: the store
    read matches at the old stamp, *then* the index is appended to and
    the handle adopts the new epoch, *then* the rows come back.  They
    must be a miss and must not land in the in-process section, where
    they would be served as a post-append answer."""
    dataset, _, _ = world
    sharded, tail = _build_sharded(dataset)
    section, ask, miss = _PROBES[probe]
    writer = SharedCacheTier(tmp_path / "tier", config=EngineConfig())
    writer.bind_index(sharded, dataset.network)
    key, _ = _put_samples(writer)[section]
    # A second handle: empty sections, so the probe reaches the store.
    tier = SharedCacheTier(tmp_path / "tier", config=EngineConfig())
    tier.bind_index(sharded, dataset.network)
    old_epoch = sharded.epoch
    read = tier.store.get_many
    raced = []

    def read_then_append(section_, keys, stamp):
        rows = read(section_, keys, stamp)
        if not raced:
            assert list(rows) == [key]  # the old stamp did match
            sharded.append(tail)
            tier.sync_epoch(sharded)
            raced.append(stamp)
        return rows

    monkeypatch.setattr(tier.store, "get_many", read_then_append)
    assert ask(tier, key) == miss
    assert raced and sharded.epoch > old_epoch
    stats = getattr(tier.stats(), section)
    assert (stats.size, stats.hits, stats.misses) == (0, 0, 1)
    assert tier.tier_stats().shared_hits[section] == 0
    # ... and at the new epoch the row is unreachable for good.
    assert ask(tier, key) == miss
    assert getattr(tier.stats(), section).size == 0


#: What ``_sample_entries`` looks like on disk — taken from the tree
#: before ISSUE 22 (`SharedCacheTier` with its own L1 and SQL), so a
#: store written by either side keeps serving the other.
_GOLDEN_REQUEST = (
    '{"beta":5,"estimator":null,"exclude_ids":[9,2],"interval":'
    '{"end":5000,"start":100,"type":"fixed"},"path":[3,1,4],"user":7}'
)
_GOLDEN_ROWS = [
    ("ranges", '{"path":[3,1,4]}', "[[0,2,5],[1,7,11]]"),
    (
        "results",
        _GOLDEN_REQUEST,
        '{"from_fallback":false,"insufficient":true,"n_matched":4,'
        '"values":[12.5,40.0,1e-07]}',
    ),
    (
        "histograms",
        '{"bucket_width":10.0,"request":' + _GOLDEN_REQUEST + "}",
        '{"bucket_width":10.0,"counts":[2.0,0.0,1.0],"offset":1}',
    ),
    (
        "trips",
        '{"beta":5,"estimator":["CSS-Fast",0.5],"exclude_ids":[9],'
        '"interval":{"duration":900,"start_tod":28800,"type":"periodic"},'
        '"path":[3,1],"user":null}',
        '{"elapsed_s":0.25,"histogram":{"bucket_width":10.0,"counts":[2.0],'
        '"offset":3},"n_cache_hits":2,"n_estimator_skips":1,'
        '"n_index_scans":0,"outcomes":[{"beta":5,"from_fallback":false,'
        '"histogram":{"bucket_width":10.0,"counts":[2.0],"offset":3},'
        '"interval":{"duration":900,"start_tod":28800,"type":"periodic"},'
        '"path":[3,1],"shift_applied":false,"user":null,'
        '"values":[30.0,31.5]}],"request":null}',
    ),
]
_GOLDEN_IDENT = (  # sha256 of the identity string "golden"
    "dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d"
)
_GOLDEN_SCHEMA = [
    "CREATE TABLE entries (  section TEXT NOT NULL,  ident TEXT NOT NULL,"
    "  key TEXT NOT NULL,  epoch INTEGER NOT NULL,  lineage TEXT NOT NULL,"
    "  payload TEXT NOT NULL,  created_at REAL NOT NULL DEFAULT 0,"
    "  PRIMARY KEY (section, ident, key, epoch, lineage))",
    "CREATE TABLE meta (  key TEXT PRIMARY KEY, value TEXT NOT NULL)",
]


def _assert_samples_served(tier):
    entries = _sample_entries()
    assert tier.get_ranges(entries["ranges"][0]) == entries["ranges"][1]
    result = tier.get_result(_RESULT_KEY)
    assert np.array_equal(result.values, entries["results"][1].values)
    assert not result.values.flags.writeable
    assert (result.n_matched, result.from_fallback, result.insufficient) == (
        4, False, True
    )
    assert tier.get_results_many([_RESULT_KEY]).keys() == {_RESULT_KEY}
    assert tier.get_histogram((_RESULT_KEY, 10.0)) == entries["histograms"][1]
    assert_bit_identical(entries["trips"][1], tier.get_trip(_TRIP_KEY))


def test_rows_written_are_byte_equal_to_the_golden_store(tmp_path):
    tier = SharedCacheTier(tmp_path / "tier", identity="golden")
    _put_samples(tier)
    conn = tier.store.connection()
    assert conn.execute(
        "SELECT section, key, payload FROM entries ORDER BY rowid"
    ).fetchall() == _GOLDEN_ROWS
    # Unbound handle: epoch 0, no lineage; ident is the identity's hash.
    assert conn.execute(
        "SELECT DISTINCT ident, epoch, lineage FROM entries"
    ).fetchall() == [(_GOLDEN_IDENT, 0, "")]
    assert [
        row[0]
        for row in conn.execute(
            "SELECT sql FROM sqlite_master WHERE type='table' ORDER BY name"
        )
    ] == _GOLDEN_SCHEMA


def test_hand_inserted_golden_rows_are_served(tmp_path):
    """The other direction: rows an older build wrote (here: inserted
    literally, with no write time, as a pre-TTL build left them)."""
    tier = SharedCacheTier(tmp_path / "tier", identity="golden")
    tier.store.connection().executemany(
        "INSERT INTO entries (section, ident, key, epoch, lineage, payload)"
        " VALUES (?, ?, ?, 0, '', ?)",
        [
            (section, _GOLDEN_IDENT, key, payload)
            for section, key, payload in _GOLDEN_ROWS
        ],
    )
    _assert_samples_served(tier)
    shared_hits = tier.tier_stats().shared_hits
    assert shared_hits == {
        "ranges": 1, "results": 1, "histograms": 1, "trips": 1
    }
    # Promoted: the second round never reaches the store.
    _assert_samples_served(tier)
    assert tier.tier_stats().shared_hits == shared_hits


def _scripted_session(backend, dataset):
    """Puts, gets, ``clear()`` and an epoch bump through ``CacheBackend``
    alone; returns everything observable (returns + hit/size stats)."""
    sharded, tail = _build_sharded(dataset)
    entries = _sample_entries()
    other_key = ((2, 7), FixedInterval(0, 50), None, None, ())
    absent_key = ((8,), FixedInterval(0, 1), None, None, ())
    log = []

    def observe(value):
        if isinstance(value, TravelTimeResult):
            value = ("result", value.values.tolist(), value.n_matched)
        elif isinstance(value, TripQueryResult):
            value = ("trip", value.histogram.as_dict(), value.n_cache_hits)
        log.append(value)

    def observe_stats():
        stats = backend.stats()
        log.append({
            name: (section.hits, section.misses, section.size)
            for name in ("ranges", "results", "histograms", "trips")
            for section in [getattr(stats, name)]
        })

    backend.bind_index(sharded, dataset.network)
    backend.sync_epoch(sharded)
    for _ in range(2):  # second round: after clear()
        observe(backend.get_ranges(entries["ranges"][0]))
        observe(backend.get_result(_RESULT_KEY))
        observe(backend.get_trip(_TRIP_KEY))
        backend.put_ranges(*entries["ranges"])
        backend.put_results_many(
            [entries["results"], (other_key, entries["results"][1])]
        )
        backend.put_histogram(*entries["histograms"])
        backend.put_trip(*entries["trips"])
        observe(backend.get_ranges(entries["ranges"][0]))
        observe(sorted(
            backend.get_results_many([_RESULT_KEY, other_key, absent_key]),
            key=repr,
        ))
        observe(backend.get_result(other_key))
        observe(backend.get_histogram(entries["histograms"][0]))
        observe(backend.get_histogram((_RESULT_KEY, 99.0)))
        observe(backend.get_trip(_TRIP_KEY))
        observe_stats()
        backend.clear()
        observe_stats()
    backend.put_ranges(*entries["ranges"])
    sharded.append(tail)
    backend.sync_epoch(sharded)
    observe(backend.get_ranges(entries["ranges"][0]))
    observe_stats()
    return log


def test_unbounded_memory_and_shared_are_observationally_identical(
    world, tmp_path
):
    """With unbounded in-process sections the store never has to answer,
    so the two backends are the same object to a ``CacheBackend``
    client: same returns, same hits, misses and sizes, step by step."""
    dataset, _, _ = world
    factories = backend_factories(tmp_path, bound=None)
    memory = _scripted_session(factories["memory"](), dataset)
    shared_backend = factories["shared"]()
    shared = _scripted_session(shared_backend, dataset)
    assert memory == shared
    # The script did exercise hits, misses, clear() and the epoch drop.
    assert memory[:4] == [None, None, None, [(0, 2, 5), (1, 7, 11)]]
    assert memory[9]["results"] == (3, 2, 2)  # hits, misses, size
    assert memory[10]["results"] == (3, 2, 0)  # ... after clear()
    assert memory[-2] is None and memory[-1]["ranges"] == (2, 3, 0)
    assert sum(shared_backend.tier_stats().shared_hits.values()) == 0
