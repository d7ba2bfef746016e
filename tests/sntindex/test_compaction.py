"""Compaction: merged shards must answer bit-identically (ISSUE 9).

The merge concatenates adjacent shards' aligned temporal partitions, so
its correctness claim is exactly the sharded-equivalence claim one
level up: for every query, every estimator mode, and every
append/compact interleaving, the compacted index returns the same
bytes as the uncompacted one and as the monolithic Procedure 6 oracle.
Property-based sampling (hypothesis) drives the query space; the stats
tests pin the satellite-2 fix (``shard_stats`` staying internally
consistent across appends, seals, and compactions).
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EngineConfig,
    FixedInterval,
    PeriodicInterval,
    ShardedSNTIndex,
    SNTIndex,
    StrictPathQuery,
    TrajectorySet,
    generate_dataset,
    open_db,
)
from repro.config import SECONDS_PER_DAY
from repro.core.engine import QueryEngine
from repro.errors import ShardError
from repro.sntindex.compaction import compact_index_dir, merge_shard_indexes

from tests.typed_api import as_requests, run_trip

PARTITION_DAYS = 7
N_SHARDS = 3
ESTIMATOR_MODES = (None, "ISA", "BT-Fast", "BT-Acc", "CSS-Fast", "CSS-Acc")


@pytest.fixture(scope="module")
def world():
    dataset = generate_dataset("tiny", seed=0)
    mono = SNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        partition_days=PARTITION_DAYS,
    )
    trips = [tr for tr in dataset.trajectories if len(tr) >= 6]
    return dataset, mono, trips


def _build_sharded(dataset, n_shards=N_SHARDS):
    return ShardedSNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        n_shards=n_shards,
        partition_days=PARTITION_DAYS,
    )


@pytest.fixture(scope="module")
def compacted(world):
    """One fully compacted copy, shared by the read-only tests."""
    dataset, _, _ = world
    sharded = _build_sharded(dataset)
    report = sharded.compact()
    assert report.did_compact and sharded.n_shards == 1
    return sharded


def _interval_for(trip, choice):
    if choice == "periodic":
        return PeriodicInterval.around(trip.start_time, 900)
    if choice == "narrow":
        return FixedInterval(trip.start_time - SECONDS_PER_DAY,
                             trip.start_time + SECONDS_PER_DAY)
    return FixedInterval(0, 10**10)


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
# Merge equivalence
# --------------------------------------------------------------------- #


class TestMergeEquivalence:
    @given(
        trip_index=st.integers(min_value=0, max_value=10**6),
        interval=st.sampled_from(["full", "narrow", "periodic"]),
        beta=st.sampled_from([None, 5, 20]),
        prefix=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_compacted_matches_monolithic(
        self, world, compacted, trip_index, interval, beta, prefix
    ):
        dataset, mono, trips = world
        trip = trips[trip_index % len(trips)]
        query = StrictPathQuery(
            path=trip.path[:prefix],
            interval=_interval_for(trip, interval),
            beta=beta,
        )
        expected = run_trip(QueryEngine(mono, dataset.network), query)
        actual = run_trip(QueryEngine(compacted, dataset.network), query)
        assert_bit_identical(expected, actual)

    @pytest.mark.parametrize("mode", ESTIMATOR_MODES)
    def test_estimator_modes_agree(self, world, compacted, mode):
        dataset, mono, trips = world
        config = EngineConfig(estimator_mode=mode)
        engine_mono = QueryEngine(mono, dataset.network, config=config)
        engine_compact = QueryEngine(
            compacted, dataset.network, config=config
        )
        for trip in trips[:8]:
            query = StrictPathQuery(
                path=trip.path[:4],
                interval=PeriodicInterval.around(trip.start_time, 900),
                beta=10,
            )
            assert_bit_identical(
                run_trip(engine_mono, query, exclude_ids=(trip.traj_id,)),
                run_trip(
                    engine_compact, query, exclude_ids=(trip.traj_id,)
                ),
            )

    def test_partial_compaction_matches(self, world):
        """Compact, then append and seal one more slice: a merged shard
        beside an unmerged one answers bit-identically too."""
        dataset, mono, trips = world
        base, tails = _split_by_bucket(dataset, cut_from_end=1)
        sharded = ShardedSNTIndex.build(
            TrajectorySet(base),
            dataset.network.alphabet_size,
            n_shards=N_SHARDS,
            partition_days=PARTITION_DAYS,
        )
        report = sharded.compact()
        assert report.did_compact
        sharded.append(tails[0])
        sharded.seal_staging()
        assert sharded.n_shards == 2 and not sharded.has_staging
        engine_mono = QueryEngine(mono, dataset.network)
        engine = QueryEngine(sharded, dataset.network)
        for trip in trips[:10]:
            query = StrictPathQuery(
                path=trip.path[:3],
                interval=PeriodicInterval.around(trip.start_time, 900),
            )
            assert_bit_identical(
                run_trip(engine_mono, query), run_trip(engine, query)
            )

    def test_merge_rejects_disagreeing_shards(self, world):
        dataset, _, _ = world
        a = _build_sharded(dataset)
        other = SNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            partition_days=PARTITION_DAYS,
            kind="btree",
        )
        with pytest.raises(ShardError, match="disagree"):
            merge_shard_indexes([a._sealed[0].index, other])

    def test_epoch_bumps_iff_compacting(self, world):
        dataset, _, _ = world
        sharded = _build_sharded(dataset)
        report = sharded.compact()
        assert report.did_compact
        assert sharded.epoch == report.epoch == 1
        noop = sharded.compact()  # one shard left: nothing to merge
        assert not noop.did_compact
        assert sharded.epoch == 1


# --------------------------------------------------------------------- #
# Append / compact / append cycles
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
    tail_pool = [tr for tr in trajectories if tr not in base]
    tails = [
        TrajectorySet(
            [tr for tr in tail_pool
             if (tr.start_time - t_min) // window == bucket]
        )
        for bucket in buckets[-cut_from_end:]
    ]
    return base, [tail for tail in tails if len(tail)]


class TestAppendCompactCycles:
    def test_append_compact_append_matches_monolithic(self, world):
        dataset, mono, trips = world
        base, tails = _split_by_bucket(dataset)
        assert len(tails) >= 2
        sharded = ShardedSNTIndex.build(
            TrajectorySet(base),
            dataset.network.alphabet_size,
            n_shards=2,
            partition_days=PARTITION_DAYS,
        )
        sharded.append(tails[0])
        sharded.seal_staging()
        report = sharded.compact()
        assert report.did_compact
        for tail in tails[1:]:
            sharded.append(tail)
        sharded.seal_staging()
        # Second compaction folds the newly sealed tail in as well.
        sharded.compact()
        assert sharded.n_shards == 1
        engine_mono = QueryEngine(mono, dataset.network)
        engine = QueryEngine(sharded, dataset.network)
        for trip in trips[:15]:
            for interval in ("full", "narrow", "periodic"):
                query = StrictPathQuery(
                    path=trip.path[:3],
                    interval=_interval_for(trip, interval),
                )
                assert_bit_identical(
                    run_trip(engine_mono, query), run_trip(engine, query)
                )

    def test_compaction_preserves_staging(self, world):
        dataset, mono, _ = world
        base, tails = _split_by_bucket(dataset)
        sharded = ShardedSNTIndex.build(
            TrajectorySet(base),
            dataset.network.alphabet_size,
            n_shards=2,
            partition_days=PARTITION_DAYS,
        )
        for tail in tails:  # all into the (unsealed) staging shard
            sharded.append(tail)
        report = sharded.compact()
        assert report.did_compact
        assert sharded.n_shards == 2  # 1 merged + staging
        engine_mono = QueryEngine(mono, dataset.network)
        engine = QueryEngine(sharded, dataset.network)
        trip = list(tails[0])[0]
        query = StrictPathQuery(
            path=trip.path[:3], interval=FixedInterval(0, 10**10)
        )
        # mono covers the whole corpus, and so does base + staged tails:
        # compaction must leave the staging shard untouched.
        assert_bit_identical(
            run_trip(engine_mono, query), run_trip(engine, query)
        )


# --------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------- #


class TestCompactIndexDir:
    def test_monolithic_dir_rejected(self, world, tmp_path):
        _, mono, _ = world
        target = mono.save(tmp_path / "mono")
        with pytest.raises(ShardError, match="monolithic"):
            compact_index_dir(target)

    def test_on_disk_roundtrip(self, world, tmp_path):
        dataset, mono, trips = world
        sharded = _build_sharded(dataset)
        target = sharded.save(
            tmp_path / "idx", extra={"origin": "compaction-test"}
        )
        report = compact_index_dir(target)
        assert report.did_compact
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["extra"] == {"origin": "compaction-test"}
        assert manifest["epoch"] == 1
        assert len(manifest["shards"]) == report.n_sealed_after

        from repro.sntindex.sharded import load_sharded_index

        loaded = load_sharded_index(target)
        engine_mono = QueryEngine(mono, dataset.network)
        engine = QueryEngine(loaded, dataset.network)
        for trip in trips[:10]:
            query = StrictPathQuery(
                path=trip.path[:3],
                interval=PeriodicInterval.around(trip.start_time, 900),
            )
            assert_bit_identical(
                run_trip(engine_mono, query), run_trip(engine, query)
            )

    def test_noop_compaction_writes_nothing(self, world, tmp_path):
        dataset, _, _ = world
        sharded = _build_sharded(dataset)
        sharded.compact()
        target = sharded.save(tmp_path / "idx")
        before = (target / "manifest.json").read_bytes()
        report = compact_index_dir(target)
        assert not report.did_compact
        assert (target / "manifest.json").read_bytes() == before

    @staticmethod
    def _assert_answers_like_mono(world, target):
        dataset, mono, trips = world
        engine_mono = QueryEngine(mono, dataset.network)
        queries = [
            StrictPathQuery(
                path=trip.path[:3],
                interval=PeriodicInterval.around(trip.start_time, 900),
            )
            for trip in trips[:10]
        ]
        with open_db(str(target), network=dataset.network) as db:
            answers = db.query_many(as_requests(queries))
        for query, answer in zip(queries, answers):
            assert_bit_identical(run_trip(engine_mono, query), answer)

    def test_manifest_with_an_epoch_token_still_loads(self, world, tmp_path):
        """Manifests written while the index carried a mutation token
        hold an ``"epoch_token"`` field; it is ignored on load."""
        dataset, _, _ = world
        target = _build_sharded(dataset).save(tmp_path / "idx")
        manifest_path = target / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "epoch_token" not in manifest
        manifest["epoch_token"] = "0f" * 16
        manifest_path.write_text(json.dumps(manifest, indent=2))
        self._assert_answers_like_mono(world, target)

    def test_leftover_cache_file_is_ignored(self, world, tmp_path):
        """An index directory may still hold the SQLite file an on-disk
        cache once kept under ``cache/``; it neither stops the index
        from opening or compacting nor changes an answer."""
        import sqlite3

        dataset, _, _ = world
        target = _build_sharded(dataset).save(tmp_path / "idx")
        (target / "cache").mkdir()
        leftover = sqlite3.connect(target / "cache" / "subquery_cache.sqlite")
        with leftover:
            leftover.execute("CREATE TABLE entries (k TEXT, v TEXT)")
            leftover.execute("INSERT INTO entries VALUES ('k', 'v')")
        leftover.close()
        self._assert_answers_like_mono(world, target)
        assert compact_index_dir(target).did_compact
        self._assert_answers_like_mono(world, target)


# --------------------------------------------------------------------- #
# Satellite 2: shard_stats stays consistent across topology changes
# --------------------------------------------------------------------- #


class TestStatsAcrossTopologyChanges:
    def _run_queries(self, sharded, dataset, trips, n=5):
        engine = QueryEngine(sharded, dataset.network)
        for trip in trips[:n]:
            run_trip(
                engine,
                StrictPathQuery(
                    path=trip.path[:3],
                    interval=PeriodicInterval.around(trip.start_time, 900),
                ),
            )

    def test_totals_internally_consistent_after_seal(self, world):
        """The pre-fix failure mode: carried totals with reset per-shard
        counters made ``sum(per_shard_scans) != n_shard_scans``."""
        dataset, _, trips = world
        base, tails = _split_by_bucket(dataset)
        sharded = ShardedSNTIndex.build(
            TrajectorySet(base),
            dataset.network.alphabet_size,
            n_shards=2,
            partition_days=PARTITION_DAYS,
        )
        self._run_queries(sharded, dataset, trips)
        sharded.append(tails[0])
        self._run_queries(sharded, dataset, trips)
        sharded.seal_staging()
        stats = sharded.shard_stats()
        assert stats.n_shard_scans == sum(stats.per_shard_scans.values())
        assert stats.n_shards == sharded.n_shards
        assert set(stats.per_shard_scans) == {
            "shard_0000", "shard_0001", "shard_0002"
        }

    def test_totals_preserved_across_compaction(self, world):
        dataset, _, trips = world
        sharded = _build_sharded(dataset)
        self._run_queries(sharded, dataset, trips)
        before = sharded.shard_stats()
        assert before.n_shard_scans > 0
        sharded.compact()
        after = sharded.shard_stats()
        assert after.n_dispatches == before.n_dispatches
        assert after.n_shard_scans == before.n_shard_scans
        assert after.n_shards_pruned == before.n_shards_pruned
        assert sum(after.per_shard_scans.values()) == sum(
            before.per_shard_scans.values()
        )
        # Names resolve in the post-compaction topology.
        assert set(after.per_shard_scans) == {"shard_0000"}
        assert after.n_shards == 1

    def test_counters_follow_shards_through_every_topology_change(
        self, world
    ):
        """Scan, append, scan the staging shard, append over it again,
        seal, compact: after every step the per-shard scans sum to the
        total, the labels are the current shards, and no total drops.
        The second append is the case where the rebuilt staging shard
        must inherit its predecessor's scans."""
        dataset, _, trips = world
        base, tails = _split_by_bucket(dataset)
        assert len(tails) == 2
        sharded = ShardedSNTIndex.build(
            TrajectorySet(base),
            dataset.network.alphabet_size,
            n_shards=2,
            partition_days=PARTITION_DAYS,
        )
        previous = sharded.shard_stats()

        def check():
            nonlocal previous
            stats = sharded.shard_stats()
            assert stats.n_shard_scans == sum(stats.per_shard_scans.values())
            n_sealed = sharded.n_shards - sharded.has_staging
            assert list(stats.per_shard_scans) == [
                f"shard_{i:04d}" for i in range(n_sealed)
            ] + ["staging"] * sharded.has_staging
            assert stats.n_shards == sharded.n_shards
            assert stats.n_dispatches >= previous.n_dispatches
            assert stats.n_shard_scans >= previous.n_shard_scans
            assert stats.n_shards_pruned >= previous.n_shards_pruned
            previous = stats
            return stats

        self._run_queries(sharded, dataset, trips)
        assert check().n_shard_scans > 0
        sharded.append(tails[0])
        check()
        # Periodic intervals cannot prune, so these scan staging too.
        self._run_queries(sharded, dataset, trips)
        staging_scans = check().per_shard_scans["staging"]
        assert staging_scans > 0
        sharded.append(tails[1])
        assert check().per_shard_scans["staging"] == staging_scans
        sharded.seal_staging()
        sealed = check()
        assert "staging" not in sealed.per_shard_scans
        newest = f"shard_{sharded.n_shards - 1:04d}"
        assert sealed.per_shard_scans[newest] == staging_scans
        assert sharded.compact().did_compact
        compacted = check()
        assert compacted.n_shard_scans == sealed.n_shard_scans
        assert compacted.n_dispatches == sealed.n_dispatches
        assert compacted.n_shards_pruned == sealed.n_shards_pruned
