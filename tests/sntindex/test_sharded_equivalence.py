"""Sharded-index equivalence: bit-identical to the monolithic SNT-index.

The ``ShardedSNTIndex`` contract (ISSUE 2): over the same corpus and
``partition_days``, every trip query answers *bit-identically* to the
monolithic index — histograms, estimated means, per-sub-query value
arrays, scan counts — across partitioners, splitters, and estimator
modes; including fixed intervals straddling shard boundaries, global
beta cuts that span shards, and queries after ``append()`` through the
staging shard.  Random workloads are drawn with hypothesis; the
deterministic tests pin the seams (append ordering, epoch-based cache
invalidation, persistence, parallel builds, process fan-out).

"Scan counts" are ``n_index_scans`` — since ISSUE 18 one per fetch
demand (a sub-query's whole widen-ladder walk), on both readers; a
sharded walk that climbs its ladder costs two shard fan-outs however
many rungs it tries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CardinalityEstimator,
    EngineConfig,
    FixedInterval,
    PeriodicInterval,
    QueryEngine,
    ShardedSNTIndex,
    SNTIndex,
    StrictPathQuery,
    SubQueryCache,
    TrajectorySet,
    TravelTimeDB,
    TripRequest,
    generate_dataset,
)
from repro.config import SECONDS_PER_DAY
from repro.errors import IndexError_, PersistenceError, ShardError
from repro.sntindex.sharded import load_any_index, read_any_meta

from tests.typed_api import as_requests, run_trip


PARTITION_DAYS = 7
N_SHARDS = 3
PARTITIONERS = ("pi_1", "pi_Z", "pi_ZC")
SPLITTERS = ("regular", "longest_prefix")
ESTIMATOR_MODES = (None, "ISA", "BT-Fast", "BT-Acc", "CSS-Fast", "CSS-Acc")


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


@pytest.fixture(scope="module")
def engines(world):
    """One (monolithic, sharded) engine pair per configuration, cached."""
    dataset, mono, sharded, _ = world
    cache = {}

    def pair(partitioner: str, splitter: str, mode):
        key = (partitioner, splitter, mode)
        if key not in cache:
            cache[key] = tuple(
                QueryEngine(
                    index,
                    dataset.network,
                    EngineConfig(partitioner=partitioner, splitter=splitter),
                    estimator=(
                        CardinalityEstimator(index, mode)
                        if mode is not None
                        else None
                    ),
                )
                for index in (mono, sharded)
            )
        return cache[key]

    return pair


def assert_bit_identical(expected, actual):
    assert actual.histogram == expected.histogram
    assert actual.histogram.as_dict() == expected.histogram.as_dict()
    assert actual.estimated_mean == expected.estimated_mean
    assert actual.n_index_scans == expected.n_index_scans
    assert actual.n_estimator_skips == expected.n_estimator_skips
    assert len(actual.outcomes) == len(expected.outcomes)
    for out_expected, out_actual in zip(expected.outcomes, actual.outcomes):
        assert out_actual.query == out_expected.query
        assert np.array_equal(out_actual.values, out_expected.values)
        assert out_actual.histogram == out_expected.histogram
        assert out_actual.from_fallback == out_expected.from_fallback


# --------------------------------------------------------------------- #
# Structure
# --------------------------------------------------------------------- #


def test_shard_structure_matches_monolithic(world):
    dataset, mono, sharded, trips = world
    assert sharded.n_shards == N_SHARDS
    assert sharded.n_partitions == mono.n_partitions
    assert (sharded.t_min, sharded.t_max) == (mono.t_min, mono.t_max)
    assert sharded.alphabet_size == mono.alphabet_size
    for trip in trips[:50]:
        assert sharded.isa_ranges(trip.path) == mono.isa_ranges(trip.path)
        assert sharded.path_traversal_count(
            trip.path
        ) == mono.path_traversal_count(trip.path)


def test_user_container_matches_monolithic(world):
    dataset, mono, sharded, _ = world
    from repro.errors import MissingUserError, UnknownTrajectoryError

    max_id = mono.users.size - 1
    for traj_id in range(0, max_id + 1, max(1, max_id // 200)):
        assert sharded.has_trajectory(traj_id) == mono.has_trajectory(
            traj_id
        )
        if mono.has_trajectory(traj_id):
            assert sharded.user_of(traj_id) == mono.user_of(traj_id)
        else:
            with pytest.raises(MissingUserError):
                sharded.user_of(traj_id)
    with pytest.raises(UnknownTrajectoryError):
        sharded.user_of(max_id + 1)
    with pytest.raises(UnknownTrajectoryError):
        sharded.user_of(-1)


def test_edge_stats_match_monolithic(world):
    dataset, mono, sharded, trips = world
    lo, hi = mono.t_min, (mono.t_min + mono.t_max) // 2
    for trip in trips[:30]:
        for edge in trip.path[:3]:
            phi_mono = mono.edge_index(edge)
            phi_shard = sharded.edge_index(edge)
            if phi_mono is None:
                assert phi_shard is None
                continue
            assert len(phi_shard) == len(phi_mono)
            assert phi_shard.min_t() == phi_mono.min_t()
            assert phi_shard.max_t() == phi_mono.max_t()
            assert phi_shard.count_fixed(lo, hi) == phi_mono.count_fixed(
                lo, hi
            )
            assert phi_shard.supports_fast_count


# --------------------------------------------------------------------- #
# Random workloads (hypothesis)
# --------------------------------------------------------------------- #


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_workloads_bit_identical(world, engines, data):
    dataset, mono, sharded, trips = world
    trip = trips[data.draw(st.integers(0, len(trips) - 1), label="trip")]
    partitioner = data.draw(st.sampled_from(PARTITIONERS))
    splitter = data.draw(st.sampled_from(SPLITTERS))
    mode = data.draw(st.sampled_from(ESTIMATOR_MODES))
    beta = data.draw(st.sampled_from((None, 1, 5, 10, 50)))
    shape = data.draw(
        st.sampled_from(("periodic", "user", "fixed", "fixed-straddle"))
    )

    if shape in ("periodic", "user"):
        width = data.draw(st.sampled_from((900, 3600)))
        interval = PeriodicInterval.around(trip.start_time, width)
        user = trip.user_id if shape == "user" else None
    elif shape == "fixed":
        interval = FixedInterval(mono.t_min, mono.t_max)
        user = None
    else:
        # Straddle a shard boundary: the window is centred on the first
        # shard's upper traversal-time bound.
        boundary = sharded.router.entries[0].t_hi
        half = data.draw(st.sampled_from((3600, SECONDS_PER_DAY)))
        interval = FixedInterval(boundary - half, boundary + half)
        user = None

    query = StrictPathQuery(
        path=trip.path, interval=interval, user=user, beta=beta
    )
    engine_mono, engine_sharded = engines(partitioner, splitter, mode)
    expected = run_trip(engine_mono, query, exclude_ids=(trip.traj_id,))
    actual = run_trip(engine_sharded, query, exclude_ids=(trip.traj_id,))
    assert_bit_identical(expected, actual)


# --------------------------------------------------------------------- #
# Routing
# --------------------------------------------------------------------- #


def test_fixed_interval_prunes_shards(world):
    dataset, mono, sharded, trips = world
    first = sharded.router.entries[0]
    last = sharded.router.entries[-1]
    assert first.t_hi < last.t_lo  # slices are disjoint in time
    before = sharded.shard_stats()
    engine = QueryEngine(sharded, dataset.network)
    query = StrictPathQuery(
        path=trips[0].path,
        interval=FixedInterval(first.t_lo, first.t_hi - 1),
        beta=None,
    )
    run_trip(engine, query)
    after = sharded.shard_stats()
    assert after.n_shards_pruned > before.n_shards_pruned
    assert after.per_shard_scans[last.label] == before.per_shard_scans[
        last.label
    ]
    assert after.prune_rate > 0


# --------------------------------------------------------------------- #
# Append / staging
# --------------------------------------------------------------------- #


def _split_by_bucket(dataset, cut_from_end=2):
    trajectories = list(dataset.trajectories)
    t_min = min(tr.start_time for tr in trajectories)
    window = PARTITION_DAYS * SECONDS_PER_DAY
    buckets = sorted({(tr.start_time - t_min) // window
                      for tr in trajectories})
    cut = buckets[-cut_from_end]
    base = [
        tr for tr in trajectories if (tr.start_time - t_min) // window < cut
    ]
    tails = [
        [
            tr
            for tr in trajectories
            if (tr.start_time - t_min) // window == bucket
        ]
        for bucket in buckets
        if bucket >= cut
    ]
    return base, tails


def test_append_is_bit_identical_to_full_rebuild(world):
    dataset, mono, _, trips = world
    base, tails = _split_by_bucket(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    epoch = sharded.epoch
    for tail in tails:
        assert sharded.append(tail) == len(tail)
    assert sharded.epoch == epoch + len(tails)
    assert sharded.has_staging
    assert sharded.n_partitions == mono.n_partitions

    engine_mono = QueryEngine(
        mono, dataset.network, EngineConfig(splitter="regular")
    )
    engine_sharded = QueryEngine(
        sharded, dataset.network, EngineConfig(splitter="regular")
    )
    for trip in trips[:20]:
        query = StrictPathQuery(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
        )
        assert_bit_identical(
            run_trip(engine_mono, query, exclude_ids=(trip.traj_id,)),
            run_trip(engine_sharded, query, exclude_ids=(trip.traj_id,)),
        )

    # Sealing the staging shard is pure bookkeeping: answers and epoch
    # are unchanged, and the shard count grows by one.
    shards_before = sharded.n_shards
    sharded.seal_staging()
    assert not sharded.has_staging
    assert sharded.n_shards == shards_before
    assert sharded.epoch == epoch + len(tails)
    query = StrictPathQuery(
        path=trips[0].path,
        interval=PeriodicInterval.around(trips[0].start_time, 900),
        beta=10,
    )
    assert_bit_identical(
        run_trip(engine_mono, query, exclude_ids=(trips[0].traj_id,)),
        run_trip(engine_sharded, query, exclude_ids=(trips[0].traj_id,)),
    )


def test_append_rejects_misuse(world):
    dataset, _, _, _ = world
    base, tails = _split_by_bucket(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    epoch = sharded.epoch
    # Backfilling into a sealed window is refused...
    with pytest.raises(ShardError):
        sharded.append([base[0]])
    # ... as are id collisions with indexed trajectories ...
    with pytest.raises(ShardError):
        sharded.append([base[-1]])
    # ... and duplicate ids within one batch.
    with pytest.raises(ShardError):
        sharded.append([tails[0][0], tails[0][0]])
    assert sharded.epoch == epoch  # failed appends leave the index alone
    assert sharded.append([]) == 0
    assert sharded.epoch == epoch


def test_build_rejects_misconfiguration(world):
    dataset, _, _, _ = world
    with pytest.raises(ShardError):
        ShardedSNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            partition_days=None,
        )
    with pytest.raises(ShardError):
        ShardedSNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            n_shards=0,
            partition_days=PARTITION_DAYS,
        )
    with pytest.raises(IndexError_):
        ShardedSNTIndex.build(
            TrajectorySet([]),
            dataset.network.alphabet_size,
            partition_days=PARTITION_DAYS,
        )


def test_append_invalidates_shared_cache(world):
    """Post-append answers through a warm cache match a fresh rebuild.

    Without the epoch-based invalidation the service would keep serving
    pre-append histograms for repeated sub-paths — the comparison against
    the from-scratch monolithic index over the combined corpus would
    fail.
    """
    dataset, mono, _, trips = world
    base, tails = _split_by_bucket(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    cache = SubQueryCache()
    db = TravelTimeDB(sharded, dataset.network, cache=cache)
    queries = [
        StrictPathQuery(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
        )
        for trip in trips[:10]
    ]
    db.query_many(as_requests(queries))  # warm the cache (pre-append state)
    assert cache.stats().ranges.size > 0

    for tail in tails:
        sharded.append(tail)
    post_append = db.query_many(as_requests(queries))

    engine_mono = QueryEngine(mono, dataset.network)
    for query, actual in zip(queries, post_append):
        assert_bit_identical(run_trip(engine_mono, query), actual)


def test_router_stats_survive_appends(world):
    dataset, _, _, _ = world
    base, tails = _split_by_bucket(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    engine = QueryEngine(sharded, dataset.network)
    first = sharded.router.entries[0]
    query = StrictPathQuery(
        path=base[0].path,
        interval=FixedInterval(first.t_lo, first.t_hi - 1),
        beta=None,
    )
    run_trip(engine, query)
    before = sharded.shard_stats()
    assert before.n_dispatches > 0 and before.n_shards_pruned > 0
    for tail in tails:
        sharded.append(tail)
    after = sharded.shard_stats()
    assert after.n_dispatches == before.n_dispatches
    assert after.n_shards_pruned == before.n_shards_pruned
    assert after.n_shard_scans == before.n_shard_scans
    sharded.seal_staging()
    assert sharded.shard_stats().n_dispatches == before.n_dispatches


def test_module_level_procedures_route_through_sharded_index(world):
    """The top-level retrieval functions accept a sharded reader too."""
    from repro import count_matches, get_travel_times

    dataset, mono, sharded, trips = world
    for trip in trips[:10]:
        query = StrictPathQuery(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
        )
        expected = get_travel_times(mono, query)
        actual = get_travel_times(sharded, query)
        assert np.array_equal(actual.values, expected.values)
        assert actual.n_matched == expected.n_matched
        assert count_matches(
            sharded, trip.path, query.interval, limit=5
        ) == count_matches(mono, trip.path, query.interval, limit=5)


def test_count_matches_limit_does_not_overcount_scans(world):
    """The limit early-return must not claim scans on unreached shards."""
    dataset, _, _, trips = world
    sharded = ShardedSNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        n_shards=N_SHARDS,
        partition_days=PARTITION_DAYS,
    )
    # A single-edge path over the full history matches plenty, so a
    # limit of 1 is satisfied by the first shard alone.
    edge = trips[0].path[0]
    count = sharded.count_matches(
        (edge,), FixedInterval(0, sharded.t_max), limit=1
    )
    assert count == 1
    stats = sharded.shard_stats()
    assert stats.n_dispatches == 1
    assert stats.n_shard_scans == 1  # later shards were never reached


def test_manifest_scalar_corruption_rejected_before_shard_load(
    world, tmp_path
):
    import json

    dataset, _, sharded, _ = world
    target = sharded.save(tmp_path / "sharded-index")
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["partition_days"] = None
    manifest_path.write_text(json.dumps(manifest))
    # Poison a shard payload: were the shards read before the scalar
    # checks, the error would name the payload, not partition_days.
    (target / "shard_0000" / "payload" / "users.npy").write_bytes(b"garbage")
    with pytest.raises(PersistenceError, match="partition_days"):
        load_any_index(target)


def test_v1_manifest_refused_with_rebuild_hint(world, tmp_path):
    import json

    from repro.errors import IndexFormatError

    _, _, sharded, _ = world
    target = sharded.save(tmp_path / "sharded-index")
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexFormatError, match="rebuild.*repro index"):
        load_any_index(target)


def test_foreign_shard_in_manifest_rejected(world, tmp_path):
    """A shard copied in from a different build must not load."""
    import shutil

    dataset, _, sharded, _ = world
    target = sharded.save(tmp_path / "seven-day")
    other = ShardedSNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        n_shards=N_SHARDS,
        partition_days=3,  # same world, different partition layout
    )
    other_dir = other.save(tmp_path / "three-day")
    shutil.rmtree(target / "shard_0001")
    shutil.copytree(other_dir / "shard_0001", target / "shard_0001")
    with pytest.raises(PersistenceError, match="different build"):
        load_any_index(target)


def test_spawn_empty_copies_cache_bounds():
    cache = SubQueryCache(max_ranges=7, max_results=5, max_histograms=3)
    fresh = cache.spawn_for_worker()
    stats = fresh.stats()
    assert (
        stats.ranges.max_size,
        stats.results.max_size,
        stats.histograms.max_size,
    ) == (7, 5, 3)
    assert stats.ranges.size == 0


def test_cache_sync_epoch_clears_sections():
    class FakeIndex:
        epoch = 0

    index = FakeIndex()
    cache = SubQueryCache()
    cache.bind_index(index, None)
    cache.put_ranges((1, 2), [(0, 0, 1)])
    assert cache.get_ranges((1, 2)) is not None
    cache.sync_epoch(index)  # same epoch: nothing dropped
    assert cache.stats().ranges.size == 1
    index.epoch += 1
    cache.sync_epoch(index)
    assert cache.stats().ranges.size == 0


# --------------------------------------------------------------------- #
# Parallel build / process fan-out
# --------------------------------------------------------------------- #


def test_parallel_build_equals_inline_build(world):
    dataset, mono, _, trips = world
    parallel = ShardedSNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        n_shards=4,
        partition_days=PARTITION_DAYS,
        build_workers=2,
    )
    assert parallel.n_partitions == mono.n_partitions
    engine_mono = QueryEngine(mono, dataset.network)
    engine_parallel = QueryEngine(parallel, dataset.network)
    for trip in trips[:10]:
        assert parallel.isa_ranges(trip.path) == mono.isa_ranges(trip.path)
        query = StrictPathQuery(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
        )
        assert_bit_identical(
            run_trip(engine_mono, query, exclude_ids=(trip.traj_id,)),
            run_trip(engine_parallel, query, exclude_ids=(trip.traj_id,)),
        )


def test_process_fanout_matches_threaded_batches(world):
    dataset, mono, sharded, trips = world
    db = TravelTimeDB(sharded, dataset.network, cache=None)
    queries = [
        StrictPathQuery(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
        )
        for trip in trips[:8]
    ]
    exclude_ids = [(trip.traj_id,) for trip in trips[:8]]
    requests = as_requests(queries, exclude_ids)
    threaded = db.query_many(requests)
    forked = db.query_many(requests, n_workers=2, use_processes=True)
    for expected, actual in zip(threaded, forked):
        assert_bit_identical(expected, actual)


# --------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------- #


def test_sharded_persistence_roundtrip(world, tmp_path):
    dataset, mono, _, trips = world
    base, tails = _split_by_bucket(dataset)
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    for tail in tails:
        sharded.append(tail)
    target = sharded.save(
        tmp_path / "sharded-index", extra={"note": "test"}
    )

    layout, manifest = read_any_meta(target)
    assert layout == "sharded"
    assert manifest["epoch"] == sharded.epoch
    assert manifest["extra"] == {"note": "test"}

    loaded = load_any_index(
        target, expected_alphabet_size=dataset.network.alphabet_size
    )
    assert isinstance(loaded, ShardedSNTIndex)
    assert loaded.epoch == sharded.epoch
    assert loaded.n_partitions == mono.n_partitions
    assert loaded.has_staging

    engine_mono = QueryEngine(mono, dataset.network)
    engine_loaded = QueryEngine(loaded, dataset.network)
    for trip in trips[:10]:
        query = StrictPathQuery(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
        )
        assert_bit_identical(
            run_trip(engine_mono, query, exclude_ids=(trip.traj_id,)),
            run_trip(engine_loaded, query, exclude_ids=(trip.traj_id,)),
        )

    # Appends keep working after a cold start: the staged tail was
    # persisted alongside the staging shard.
    assert loaded._staged  # noqa: SLF001 - intentional white-box check
    with pytest.raises(ShardError):
        loaded.append([base[0]])


def test_load_any_index_detects_monolithic(world, tmp_path):
    dataset, mono, _, _ = world
    target = mono.save(tmp_path / "mono-index")
    layout, _ = read_any_meta(target)
    assert layout == "monolithic"
    loaded = load_any_index(
        target, expected_alphabet_size=dataset.network.alphabet_size
    )
    assert isinstance(loaded, SNTIndex)


def test_load_any_index_rejects_unknown_dir(tmp_path):
    (tmp_path / "stray.txt").write_text("not an index")
    with pytest.raises(PersistenceError):
        read_any_meta(tmp_path)
    with pytest.raises(PersistenceError):
        load_any_index(tmp_path)


def test_sharded_load_rejects_wrong_alphabet(world, tmp_path):
    dataset, _, sharded, _ = world
    target = sharded.save(tmp_path / "sharded-index")
    with pytest.raises(PersistenceError, match="alphabet"):
        load_any_index(
            target,
            expected_alphabet_size=dataset.network.alphabet_size + 1,
        )


def test_service_cold_start_from_sharded_dir(world, tmp_path):
    dataset, mono, sharded, trips = world
    import repro

    target = sharded.save(tmp_path / "sharded-index")
    db = repro.open_db(target, network=dataset.network)
    engine_mono = QueryEngine(mono, dataset.network)
    query = StrictPathQuery(
        path=trips[0].path,
        interval=PeriodicInterval.around(trips[0].start_time, 900),
        beta=10,
    )
    assert_bit_identical(
        run_trip(engine_mono, query, exclude_ids=(trips[0].traj_id,)),
        db.query(
            TripRequest.from_spq(query, exclude_ids=(trips[0].traj_id,))
        ),
    )


# --------------------------------------------------------------------- #
# Shard lifecycle (ISSUE 9): object-store page-in + compacted layouts
# --------------------------------------------------------------------- #


def test_object_store_pagein_answers_identically(world, tmp_path):
    """Saving to and loading from an ``object://`` store is transparent:
    the paged-in index answers bit-identically to the monolithic one."""
    dataset, mono, sharded, trips = world
    uri = f"object://{tmp_path}/remote?cache={tmp_path}/cache"
    sharded.save(uri, extra={"note": "object-store"})

    layout, manifest = read_any_meta(uri)
    assert layout == "sharded"
    assert manifest["extra"] == {"note": "object-store"}

    loaded = load_any_index(
        uri, expected_alphabet_size=dataset.network.alphabet_size
    )
    assert isinstance(loaded, ShardedSNTIndex)
    assert loaded.n_shards == sharded.n_shards

    engine_mono = QueryEngine(mono, dataset.network)
    engine_loaded = QueryEngine(loaded, dataset.network)
    for trip in trips[:10]:
        query = StrictPathQuery(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
        )
        assert_bit_identical(
            run_trip(engine_mono, query, exclude_ids=(trip.traj_id,)),
            run_trip(engine_loaded, query, exclude_ids=(trip.traj_id,)),
        )


def test_monolithic_object_store_roundtrip(world, tmp_path):
    dataset, mono, _, trips = world
    uri = f"object://{tmp_path}/remote?cache={tmp_path}/cache"
    mono.save(uri)
    loaded = load_any_index(
        uri, expected_alphabet_size=dataset.network.alphabet_size
    )
    assert isinstance(loaded, SNTIndex)
    engine_mono = QueryEngine(mono, dataset.network)
    engine_loaded = QueryEngine(loaded, dataset.network)
    query = StrictPathQuery(
        path=trips[0].path,
        interval=PeriodicInterval.around(trips[0].start_time, 900),
    )
    assert_bit_identical(
        run_trip(engine_mono, query), run_trip(engine_loaded, query)
    )


def test_compacted_saved_layout_equivalent_across_modes(world, tmp_path):
    """Compact on disk, reload, and run the estimator-mode sweep: the
    compacted layout must stay inside the equivalence envelope."""
    from repro.sntindex.compaction import compact_index_dir

    dataset, mono, sharded, trips = world
    target = sharded.save(tmp_path / "to-compact")
    report = compact_index_dir(target)
    assert report.did_compact
    loaded = load_any_index(
        target, expected_alphabet_size=dataset.network.alphabet_size
    )
    assert loaded.n_shards < sharded.n_shards

    for mode in ESTIMATOR_MODES:
        config = EngineConfig(estimator_mode=mode)
        engine_compacted = QueryEngine(
            loaded, dataset.network, config=config
        )
        engine_oracle = QueryEngine(mono, dataset.network, config=config)
        for trip in trips[:5]:
            query = StrictPathQuery(
                path=trip.path,
                interval=PeriodicInterval.around(trip.start_time, 900),
                beta=10,
            )
            assert_bit_identical(
                run_trip(engine_oracle, query, exclude_ids=(trip.traj_id,)),
                run_trip(
                    engine_compacted, query, exclude_ids=(trip.traj_id,)
                ),
            )
