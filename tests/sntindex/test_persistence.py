"""Save/load round trips for the SNT-index (ISSUE 1 satellite).

A rebuilt-free ``SNTIndex.load`` must reproduce the saved index exactly:
ISA ranges, component sizes, user container, ToD selectivities, and full
trip-query answers.  The paper's Table 1 example network anchors the
exact-value checks; a generated tiny world covers temporal partitioning
and the service cold-start path.
"""

import json

import numpy as np
import pytest

from repro import (
    EngineConfig,
    FixedInterval,
    PeriodicInterval,
    QueryEngine,
    SNTIndex,
    StrictPathQuery,
    TripRequest,
)
from repro import Edge, RoadCategory, RoadNetwork, ZoneType
from repro.errors import IndexError_, IndexFormatError, PersistenceError
from repro.sntindex.persistence import FORMAT_VERSION, PAYLOAD_DIR
from repro.trajectories import Trajectory, TrajectoryPoint, TrajectorySet

from tests.paper_vectors import (
    ISA_RANGE_A,
    ISA_RANGE_AB,
    TABLE_1,
    TRAJECTORIES,
    WORKED_QUERY_PATH,
)

from tests.typed_api import run_trip

A, B, C, D, E, F = 1, 2, 3, 4, 5, 6


def paper_trajectories() -> TrajectorySet:
    return TrajectorySet(
        [
            Trajectory(d, u, [TrajectoryPoint(*p) for p in seq])
            for d, u, seq in TRAJECTORIES
        ]
    )


@pytest.fixture(scope="module")
def paper_index():
    return SNTIndex.build(paper_trajectories(), alphabet_size=7)


@pytest.fixture()
def loaded_paper_index(paper_index, tmp_path):
    paper_index.save(tmp_path / "index")
    return SNTIndex.load(tmp_path / "index")


class TestPaperExampleRoundTrip:
    def test_isa_ranges_survive(self, loaded_paper_index):
        assert loaded_paper_index.isa_ranges([A]) == [(0, *ISA_RANGE_A)]
        assert loaded_paper_index.isa_ranges([A, B]) == [(0, *ISA_RANGE_AB)]
        assert loaded_paper_index.isa_ranges([E, A]) == []

    def test_component_sizes_identical(self, paper_index, loaded_paper_index):
        assert (
            loaded_paper_index.component_sizes()
            == paper_index.component_sizes()
        )

    def test_scalars_and_users(self, paper_index, loaded_paper_index):
        assert loaded_paper_index.t_min == paper_index.t_min
        assert loaded_paper_index.t_max == paper_index.t_max
        assert loaded_paper_index.alphabet_size == paper_index.alphabet_size
        assert loaded_paper_index.kind == paper_index.kind
        assert loaded_paper_index.partition_days is None
        assert np.array_equal(loaded_paper_index.users, paper_index.users)
        assert loaded_paper_index.build_stats == paper_index.build_stats

    def test_forest_columns_identical(self, paper_index, loaded_paper_index):
        assert sorted(loaded_paper_index.forest.edges()) == sorted(
            paper_index.forest.edges()
        )
        for edge in paper_index.forest.edges():
            before = paper_index.forest.get(edge).columns
            after = loaded_paper_index.forest.get(edge).columns
            for name in ("t", "isa", "d", "tt", "a", "seq", "w"):
                assert np.array_equal(
                    getattr(after, name), getattr(before, name)
                ), f"column {name} of edge {edge} changed"

    def test_tod_store_identical(self, paper_index, loaded_paper_index):
        before = paper_index.tod_store
        after = loaded_paper_index.tod_store
        assert after.bucket_width_s == before.bucket_width_s
        assert len(after) == len(before)
        for edge in (A, B, E):
            assert after.selectivity(edge, 0, 600) == before.selectivity(
                edge, 0, 600
            )

    def test_worked_trip_query_answers(self, paper_index, loaded_paper_index):
        # Figure 1 topology with the Table 1 attributes.
        topology = {A: (1, 2), B: (2, 3), C: (2, 4), D: (4, 3), E: (3, 5), F: (3, 6)}
        network = RoadNetwork()
        for vertex in range(1, 7):
            network.add_vertex(vertex, (float(vertex), 0.0))
        for edge_id, (category, zone, speed, length, _estimate) in TABLE_1.items():
            source, target = topology[edge_id]
            network.add_edge(
                Edge(
                    edge_id,
                    source,
                    target,
                    RoadCategory(category),
                    ZoneType(zone),
                    float(length),
                    float(speed),
                )
            )
        query = StrictPathQuery(
            path=WORKED_QUERY_PATH, interval=FixedInterval(0, 15), user=1
        )
        config = EngineConfig(partitioner="pi_1", bucket_width_s=1.0)
        before = run_trip(QueryEngine(paper_index, network, config), query)
        after = run_trip(
            QueryEngine(loaded_paper_index, network, config), query
        )
        assert after.histogram == before.histogram
        assert after.estimated_mean == before.estimated_mean
        assert after.n_index_scans == before.n_index_scans


class TestPartitionedWorldRoundTrip:
    @pytest.fixture(scope="class")
    def world(self):
        from repro import generate_dataset

        dataset = generate_dataset("tiny", seed=3)
        index = SNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            partition_days=14,
        )
        return dataset, index

    def test_partitioned_trip_queries_survive(self, world, tmp_path):
        dataset, index = world
        index.save(tmp_path / "index")
        loaded = SNTIndex.load(tmp_path / "index")
        assert loaded.n_partitions == index.n_partitions > 1
        assert loaded.partition_days == index.partition_days
        assert loaded.component_sizes() == index.component_sizes()

        trips = [tr for tr in dataset.trajectories if len(tr) >= 8][:4]
        for trip in trips:
            query = StrictPathQuery(
                path=trip.path,
                interval=PeriodicInterval.around(trip.start_time, 900),
                beta=10,
            )
            before = run_trip(
                QueryEngine(index, dataset.network),
                query,
                exclude_ids=(trip.traj_id,),
            )
            after = run_trip(
                QueryEngine(loaded, dataset.network),
                query,
                exclude_ids=(trip.traj_id,),
            )
            assert after.histogram == before.histogram
            assert after.estimated_mean == before.estimated_mean

    def test_v21_tod_counts_are_ignored(self, world, tmp_path):
        """A directory as a v2.1 writer left it — time-of-day arrays,
        the meta's traversal-time bounds and each partition's ``w`` —
        opens with its ``tod_counts.npy`` cut short, answers like the
        built index under the accurate estimator, and counts its
        time-of-day store afresh from the forest."""
        dataset, index = world
        target = index.save(tmp_path / "index")
        meta_path = target / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_minor"] = 1
        meta["data_time_bounds"] = list(index.data_time_bounds())
        for w, entry in enumerate(meta["partitions"]):
            entry["w"] = w
        meta_path.write_text(json.dumps(meta, indent=2))
        pairs = _tod_pairs(index.forest)
        payload = target / PAYLOAD_DIR
        np.save(payload / "tod_keys.npy", np.asarray(pairs, dtype=np.int64))
        # One row short of the keys, as a v2.1 loader would refuse.
        np.save(
            payload / "tod_counts.npy", np.ones((len(pairs) - 1, 144), np.int64)
        )

        loaded = SNTIndex.load(target)
        _assert_same_tod_store(
            loaded.tod_store, index.build_tod_store(600), index.forest
        )
        config = EngineConfig(estimator_mode="CSS-Acc")
        trips = [tr for tr in dataset.trajectories if len(tr) >= 8][:4]
        for trip in trips:
            query = StrictPathQuery(
                path=trip.path,
                interval=PeriodicInterval.around(trip.start_time, 900),
                beta=10,
            )
            before, after = (
                run_trip(
                    QueryEngine(reader, dataset.network, config),
                    query,
                    exclude_ids=(trip.traj_id,),
                ).to_dict()
                for reader in (index, loaded)
            )
            before.pop("elapsed_s")
            after.pop("elapsed_s")
            assert after == before

    def test_service_cold_start_from_saved(self, world, tmp_path):
        from repro import open_db

        dataset, index = world
        index.save(tmp_path / "index")
        db = open_db(tmp_path / "index", network=dataset.network)
        trip = next(tr for tr in dataset.trajectories if len(tr) >= 8)
        query = StrictPathQuery(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
        )
        # The cold-started session must answer like an engine over
        # the in-memory index.
        result = run_trip(db, query, exclude_ids=(trip.traj_id,))
        expected = run_trip(
            QueryEngine(index, dataset.network),
            query,
            exclude_ids=(trip.traj_id,),
        )
        assert result.histogram == expected.histogram


def _forest_arrays(forest):
    """Everything the forest's saved layout is made of."""
    arrays = {
        "edge_ids": forest.edge_ids,
        "offsets": forest.offsets,
        "perm_tod": forest.perm_tod,
        "perm_probe": forest.perm_probe,
    }
    for name in ("t", "isa", "d", "tt", "a", "seq", "w"):
        arrays[name] = getattr(forest.columns, name)
    return arrays


def _assert_same_forest(actual, expected):
    actual, expected = _forest_arrays(actual), _forest_arrays(expected)
    for name, array in expected.items():
        assert actual[name].dtype == array.dtype, name
        assert np.array_equal(actual[name], array), name


def _tod_pairs(forest):
    """Every ``(edge, w)`` pair that occurs among ``forest``'s rows."""
    bounds = forest.offsets.tolist()
    return [
        (edge, w)
        for i, edge in enumerate(forest.edge_ids.tolist())
        for w in np.unique(forest.columns.w[bounds[i] : bounds[i + 1]]).tolist()
    ]


def _assert_same_tod_store(actual, expected, forest):
    """The two stores hold a histogram for exactly the ``(edge, w)``
    pairs of ``forest``, with equal totals and equal counts in every
    hour of the day."""
    from repro.config import SECONDS_PER_DAY

    pairs = _tod_pairs(forest)
    assert actual.bucket_width_s == expected.bucket_width_s
    assert len(actual) == len(expected) == len(pairs)
    for edge, w in pairs:
        assert actual.total(edge, w) == expected.total(edge, w) > 0
        for start in range(0, SECONDS_PER_DAY, 3600):
            assert actual.count_window(edge, start, 3600, w) == (
                expected.count_window(edge, start, 3600, w)
            ), (edge, w, start)


class TestOneForestLayout:
    """A built, a merged and a loaded index hold one forest layout:
    flat columns sorted by ``(edge, t)`` with an edge table, which save
    and load carry unchanged."""

    PARTITION_DAYS = 3

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro import generate_dataset

        return generate_dataset("tiny", seed=0)

    @pytest.fixture(scope="class")
    def sharded(self, dataset):
        from repro import ShardedSNTIndex

        index = ShardedSNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            n_shards=3,
            partition_days=self.PARTITION_DAYS,
        )
        assert len(index.entries) == 3
        return index

    @pytest.mark.parametrize(
        "build", [{}, {"partition_days": PARTITION_DAYS}, {"kind": "btree"}],
        ids=["full", "partitioned", "btree"],
    )
    def test_monolithic_round_trip(self, dataset, tmp_path, build):
        index = SNTIndex.build(
            dataset.trajectories, dataset.network.alphabet_size, **build
        )
        index.save(tmp_path / "index")
        _assert_same_forest(
            SNTIndex.load(tmp_path / "index").forest, index.forest
        )
        self._assert_reference_order(dataset, index)

    def test_each_shard_round_trips(self, sharded, tmp_path):
        from repro.sntindex.sharded import load_sharded_index

        sharded.save(tmp_path / "index")
        loaded = load_sharded_index(tmp_path / "index")
        for before, after in zip(sharded.entries, loaded.entries):
            _assert_same_forest(after.index.forest, before.index.forest)

    def test_compacted_shard_is_the_one_shard_build(
        self, dataset, sharded, tmp_path
    ):
        from repro import ShardedSNTIndex
        from repro.sntindex.compaction import merge_shard_indexes
        from repro.sntindex.sharded import load_sharded_index

        merged = merge_shard_indexes(
            [entry.index for entry in sharded.entries]
        )
        one_shard = ShardedSNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            n_shards=1,
            partition_days=self.PARTITION_DAYS,
        )
        _assert_same_forest(merged.forest, one_shard.entries[0].index.forest)

        sharded.save(tmp_path / "index")
        loaded = load_sharded_index(tmp_path / "index")
        loaded.compact()
        compacted = loaded.entries[0].index
        _assert_same_forest(compacted.forest, merged.forest)
        compacted.save(tmp_path / "compacted")
        _assert_same_forest(
            SNTIndex.load(tmp_path / "compacted").forest, merged.forest
        )

    def test_compacted_tod_store_is_the_one_shard_build(
        self, dataset, sharded
    ):
        from repro import ShardedSNTIndex
        from repro.sntindex.compaction import merge_shard_indexes

        merged = merge_shard_indexes(
            [entry.index for entry in sharded.entries]
        )
        one_shard = ShardedSNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            n_shards=1,
            partition_days=self.PARTITION_DAYS,
        )
        _assert_same_tod_store(
            merged.tod_store,
            one_shard.entries[0].index.tod_store,
            merged.forest,
        )

    @pytest.mark.parametrize(
        "made", ["built", "loaded v2.1", "loaded v2.0", "compacted"]
    )
    def test_sort_orders_are_each_segments_own_sorts(
        self, dataset, sharded, tmp_path, made
    ):
        """However a forest was made, each segment's two orders are its
        own stable sorts by time of day and by packed ``(d, seq)``."""
        from repro.config import SECONDS_PER_DAY
        from repro.sntindex.sharded import load_sharded_index

        if made == "compacted":
            sharded.save(tmp_path / "index")
            loaded = load_sharded_index(tmp_path / "index")
            loaded.compact()
            index = loaded.entries[0].index
        else:
            index = SNTIndex.build(
                dataset.trajectories,
                dataset.network.alphabet_size,
                partition_days=self.PARTITION_DAYS,
            )
            if made != "built":
                index.save(tmp_path / "index")
                if made == "loaded v2.0":
                    for name in ("perm_tod", "perm_probe"):
                        (tmp_path / "index" / PAYLOAD_DIR / f"{name}.npy").unlink()
                index = SNTIndex.load(tmp_path / "index")
        forest = index.forest
        assert len(forest) > 0
        for edge in forest.edges():
            phi = forest.get(edge)
            columns = phi.columns
            tod = np.mod(columns.t, SECONDS_PER_DAY)
            keys = (columns.d.astype(np.int64) << 32) + columns.seq
            assert np.array_equal(
                phi.tod_order, np.argsort(tod, kind="stable")
            ), edge
            assert np.array_equal(
                phi.probe_order, np.argsort(keys, kind="stable")
            ), edge

    @staticmethod
    def _assert_reference_order(dataset, index):
        """Each segment's rows are its traversals in partition-major
        trajectory order, sorted stably by ``t`` — the order the
        per-segment build produced before the forest was flat."""
        from repro.config import SECONDS_PER_DAY
        from repro.sntindex.index import assign_time_windows

        if index.partition_days is None:
            groups = [list(dataset.trajectories)]
        else:
            window = index.partition_days * SECONDS_PER_DAY
            by_bucket = assign_time_windows(
                dataset.trajectories, index.t_min, window
            )
            groups = [by_bucket[bucket] for bucket in sorted(by_bucket)]
        per_edge = {}
        for w, members in enumerate(groups):
            for trajectory in members:
                for seq, point in enumerate(trajectory.points):
                    per_edge.setdefault(point.edge, []).append(
                        (point.t, trajectory.traj_id, seq, w)
                    )
        assert sorted(index.forest.edges()) == sorted(per_edge)
        for edge, rows in per_edge.items():
            rows.sort(key=lambda row: row[0])  # stable: t only
            columns = index.forest.get(edge).columns
            assert list(zip(
                columns.t.tolist(), columns.d.tolist(),
                columns.seq.tolist(), columns.w.tolist(),
            )) == rows


class TestFormatGuards:
    def test_save_returns_target_and_is_idempotent(
        self, paper_index, tmp_path
    ):
        target = paper_index.save(tmp_path / "index")
        again = paper_index.save(tmp_path / "index")  # overwrite in place
        assert target == again
        assert SNTIndex.load(target).isa_ranges([A]) == [(0, *ISA_RANGE_A)]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            SNTIndex.load(tmp_path / "nope")

    def test_version_mismatch_raises(self, paper_index, tmp_path):
        target = paper_index.save(tmp_path / "index")
        meta_path = target / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = FORMAT_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexFormatError, match="format version"):
            SNTIndex.load(target)

    def test_v1_directory_names_the_migration_path(
        self, paper_index, tmp_path
    ):
        """A pre-mmap (pickled) index directory is refused with the
        rebuild/roundtrip hint, not a generic corruption error."""
        target = paper_index.save(tmp_path / "index")
        meta_path = target / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexFormatError, match="rebuild"):
            SNTIndex.load(target)

    def test_foreign_format_raises(self, paper_index, tmp_path):
        target = paper_index.save(tmp_path / "index")
        meta_path = target / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = "something-else"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(PersistenceError, match="format"):
            SNTIndex.load(target)

    def test_corrupt_meta_raises(self, paper_index, tmp_path):
        target = paper_index.save(tmp_path / "index")
        # Not JSON, not UTF-8, and JSON whose top level is no object.
        for corrupt in (b"{not json", b"\xff\xfe", b"[]", b"[1, 2]", b"5"):
            (target / "meta.json").write_bytes(corrupt)
            with pytest.raises(PersistenceError, match="corrupt meta.json"):
                SNTIndex.load(target)

    def test_persistence_error_is_an_index_error(self):
        assert issubclass(PersistenceError, IndexError_)

    # -- fail-fast meta validation (ISSUE 2 satellite): a manifest that
    # disagrees with the target world must be rejected *before* any
    # payload I/O.  Poisoning a payload array proves the order: were
    # the payload read first, the error would name the payload.

    def _poison_payload(self, target):
        (target / PAYLOAD_DIR / "users.npy").write_bytes(b"not numpy")
        (target / PAYLOAD_DIR / "p0_wt_words.npy").write_bytes(b"not numpy")

    def test_bad_kind_rejected_before_payload(
        self, paper_index, tmp_path
    ):
        target = paper_index.save(tmp_path / "index")
        meta_path = target / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["kind"] = "splay"
        meta_path.write_text(json.dumps(meta))
        self._poison_payload(target)
        with pytest.raises(PersistenceError, match="kind 'splay'"):
            SNTIndex.load(target)

    def test_bad_alphabet_rejected_before_payload(
        self, paper_index, tmp_path
    ):
        target = paper_index.save(tmp_path / "index")
        meta_path = target / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["alphabet_size"] = -3
        meta_path.write_text(json.dumps(meta))
        self._poison_payload(target)
        with pytest.raises(PersistenceError, match="alphabet_size"):
            SNTIndex.load(target)

    def test_expected_alphabet_mismatch_rejected_before_payload(
        self, paper_index, tmp_path
    ):
        target = paper_index.save(tmp_path / "index")
        self._poison_payload(target)
        with pytest.raises(PersistenceError, match="same world"):
            SNTIndex.load(
                target,
                expected_alphabet_size=paper_index.alphabet_size + 1,
            )

    def test_expected_kind_mismatch_rejected_before_payload(
        self, paper_index, tmp_path
    ):
        target = paper_index.save(tmp_path / "index")
        self._poison_payload(target)
        with pytest.raises(PersistenceError, match="kind"):
            SNTIndex.load(target, expected_kind="btree")

    def test_matching_expectations_load_fine(self, paper_index, tmp_path):
        target = paper_index.save(tmp_path / "index")
        loaded = SNTIndex.load(
            target,
            expected_alphabet_size=paper_index.alphabet_size,
            expected_kind=paper_index.kind,
        )
        assert loaded.isa_ranges([A]) == [(0, *ISA_RANGE_A)]

    def test_truncated_array_raises_persistence_error(
        self, paper_index, tmp_path
    ):
        target = paper_index.save(tmp_path / "index")
        col_t = target / PAYLOAD_DIR / "col_t.npy"
        payload = col_t.read_bytes()
        col_t.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(PersistenceError):
            SNTIndex.load(target)

    def test_no_pickle_in_saved_directory(self, paper_index, tmp_path):
        """v2 is pickle-free: loading must not execute foreign bytecode,
        so no .pkl file may appear anywhere in the payload — of a
        monolithic save, a sharded save with a staging shard, or a
        compacted one."""
        from repro import ShardedSNTIndex, generate_dataset
        from repro.config import SECONDS_PER_DAY
        from repro.sntindex.compaction import compact_index_dir

        target = paper_index.save(tmp_path / "index")
        assert not (target / "arrays.npz").exists()

        dataset = generate_dataset("tiny", seed=0)
        corpus = sorted(dataset.trajectories, key=lambda tr: tr.start_time)
        window = 7 * SECONDS_PER_DAY
        bucket = {
            tr.traj_id: (tr.start_time - corpus[0].start_time) // window
            for tr in corpus
        }
        last = bucket[corpus[-1].traj_id]
        sharded = ShardedSNTIndex.build(
            TrajectorySet([tr for tr in corpus if bucket[tr.traj_id] < last]),
            dataset.network.alphabet_size,
            n_shards=3,
            partition_days=7,
        )
        sharded.append([tr for tr in corpus if bucket[tr.traj_id] == last])
        staged = sharded.save(tmp_path / "staged")
        assert (staged / "staging").is_dir()
        compacted = sharded.save(tmp_path / "compacted")
        assert compact_index_dir(compacted).did_compact
        for root in (target, staged, compacted):
            assert list(root.rglob("*.pkl")) == [], root

    def test_missing_array_raises_persistence_error(
        self, paper_index, tmp_path
    ):
        target = paper_index.save(tmp_path / "index")
        (target / PAYLOAD_DIR / "col_t.npy").unlink()
        with pytest.raises(PersistenceError, match="col_t"):
            SNTIndex.load(target)

    def test_corrupt_edge_offsets_raise_persistence_error(
        self, paper_index, tmp_path
    ):
        """Bad offsets must not clamp to silently-empty columns."""
        import numpy as np

        target = paper_index.save(tmp_path / "index")
        offsets_path = target / PAYLOAD_DIR / "edge_offsets.npy"
        np.save(offsets_path, np.load(offsets_path) * 1000)
        with pytest.raises(PersistenceError, match="edge_offsets"):
            SNTIndex.load(target)

    def test_corrupt_wavelet_payload_raises_persistence_error(
        self, paper_index, tmp_path
    ):
        """A wavelet concatenation disagreeing with the node directory
        must be rejected, not sliced short.  Partitions materialise
        lazily, so the open succeeds and the first partition touch
        raises."""
        import numpy as np

        target = paper_index.save(tmp_path / "index")
        words_path = target / PAYLOAD_DIR / "p0_wt_words.npy"
        np.save(words_path, np.load(words_path)[:-1])
        loaded = SNTIndex.load(target)
        with pytest.raises(PersistenceError, match="wavelet payload"):
            loaded.partitions[0]

    def test_corrupt_code_table_raises_persistence_error(
        self, paper_index, tmp_path
    ):
        """The three code-table arrays must be mutually consistent —
        a truncated length array cannot silently drop symbols."""
        import numpy as np

        target = paper_index.save(tmp_path / "index")
        lengths_path = target / PAYLOAD_DIR / "p0_code_lengths.npy"
        np.save(lengths_path, np.load(lengths_path)[:-1])
        loaded = SNTIndex.load(target)
        with pytest.raises(PersistenceError, match="code-table"):
            loaded.partitions[0]

    def test_save_refuses_to_destroy_a_foreign_directory(
        self, paper_index, tmp_path
    ):
        """`save(path)` replaces the target wholesale, so anything that
        is not a saved index (e.g. a world directory given to --out by
        mistake) must be refused, not deleted."""
        victim = tmp_path / "world"
        victim.mkdir()
        (victim / "trajectories.txt").write_text("precious user data")
        with pytest.raises(PersistenceError, match="refusing to overwrite"):
            paper_index.save(victim)
        assert (victim / "trajectories.txt").read_text() == (
            "precious user data"
        )
        with pytest.raises(PersistenceError, match="not a directory"):
            paper_index.save(victim / "trajectories.txt")
        # An empty directory is fine.
        empty = tmp_path / "empty"
        empty.mkdir()
        assert paper_index.save(empty) == empty
        assert SNTIndex.load(empty).isa_ranges([A]) == [(0, *ISA_RANGE_A)]

    def test_failed_save_cleans_staging_and_keeps_old_index(
        self, paper_index, tmp_path, monkeypatch
    ):
        import numpy as np

        target = paper_index.save(tmp_path / "index")

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", explode)
        with pytest.raises(OSError):
            paper_index.save(tmp_path / "index")
        monkeypatch.undo()
        # No staging/graveyard leftovers; the old index still loads.
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert SNTIndex.load(target).isa_ranges([A]) == [(0, *ISA_RANGE_A)]

    def test_orphaned_graveyard_is_restored_not_deleted(
        self, paper_index, tmp_path
    ):
        """A crash between the two swap renames leaves the only copy in
        the dead saver's graveyard; the next save must restore it (and a
        reader between the crash and that save must at worst see a
        missing index, never a torn one)."""
        import shutil

        target = paper_index.save(tmp_path / "index")
        # Simulate the post-crash state: index moved to a dead pid's
        # graveyard, nothing installed.
        orphan = tmp_path / ".index.old-999999999"
        shutil.move(target, orphan)
        assert not target.exists()
        paper_index.save(tmp_path / "index")
        assert not orphan.exists()
        assert SNTIndex.load(target).isa_ranges([A]) == [(0, *ISA_RANGE_A)]

    def test_resave_swaps_cleanly_over_existing(self, paper_index, tmp_path):
        target = paper_index.save(tmp_path / "index")
        marker = target / "stale-file"
        marker.write_text("left over from an older save")
        again = paper_index.save(tmp_path / "index")
        assert again == target
        # The swap replaces the directory wholesale: no stale remnants,
        # no temp staging directories left behind.
        assert not marker.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert SNTIndex.load(target).isa_ranges([A]) == [(0, *ISA_RANGE_A)]
