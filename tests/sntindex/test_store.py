"""The saved-index directory under faults and outside input.

A save is staged in a sibling directory and swapped in by
:func:`~repro.sntindex.persistence.atomic_install_dir`; every payload
file is written by ``np.save`` into that staging directory, so the
fault seam is ``np.save`` itself.  Making the k-th ``np.save`` of a
re-save raise, for every k, must leave the directory byte-for-byte the
old index, answering a fixed request set as before, with no staging or
graveyard sibling left behind.

A manifest is outside input: a shard ``dir`` that leaves the index
directory is refused before any shard is read.  A build refuses the
counts its own loader would refuse.
"""

import itertools
import json
import shutil

import numpy as np
import pytest

from repro import (
    PeriodicInterval,
    ShardedSNTIndex,
    SNTIndex,
    TrajectorySet,
    TripRequest,
    generate_dataset,
    open_db,
)
from repro.config import SECONDS_PER_DAY
from repro.errors import IndexError_, PersistenceError, ShardError
from repro.sntindex import sharded as sharded_module
from repro.sntindex.compaction import compact_index_dir
from repro.sntindex.persistence import atomic_install_dir
from repro.sntindex.sharded import load_any_index, load_sharded_index

PARTITION_DAYS = 7


@pytest.fixture(scope="module")
def world():
    """The tiny world, its trajectories split by 7-day bucket into a
    base (all but the last three buckets) and three one-bucket tails,
    and a fixed request set spread over all of them."""
    dataset = generate_dataset("tiny", seed=0)
    trajectories = sorted(dataset.trajectories, key=lambda tr: tr.start_time)
    t_min = trajectories[0].start_time
    window = PARTITION_DAYS * SECONDS_PER_DAY
    bucket = {tr.traj_id: (tr.start_time - t_min) // window
              for tr in trajectories}
    cuts = sorted(set(bucket.values()))[-3:]
    base = [tr for tr in trajectories if bucket[tr.traj_id] < cuts[0]]
    tails = [[tr for tr in trajectories if bucket[tr.traj_id] == cut]
             for cut in cuts]
    long_trips = [tr for tr in trajectories if len(tr) >= 6]
    requests = [
        TripRequest(
            path=tuple(trip.path[:5]),
            beta=10,
            interval=PeriodicInterval.around(trip.start_time, 900),
        )
        for trip in long_trips[:: max(1, len(long_trips) // 8)]
    ]
    return dataset, base, tails, requests


def _sharded(dataset, base, tails):
    """A 3-shard index over ``base`` with ``tails`` appended to its
    staging shard."""
    index = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=3,
        partition_days=PARTITION_DAYS,
    )
    for tail in tails:
        index.append(tail)
    return index


def _snapshot(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _answers(root, dataset, requests):
    db = open_db(root, network=dataset.network, cache=None)
    return [
        {k: v for k, v in result.to_dict().items() if k != "elapsed_s"}
        for result in db.query_many(requests)
    ]


def _failing_save(k):
    """An ``np.save`` whose k-th call (1-based) raises."""
    real = np.save
    calls = itertools.count(1)

    def save(*args, **kwargs):
        if next(calls) == k:
            raise OSError(f"injected fault at np.save #{k}")
        return real(*args, **kwargs)

    return save


def _count_saves(monkeypatch, action):
    real = np.save
    calls = []

    def save(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "save", save)
        action()
    return len(calls)


def _assert_every_fault_keeps_the_old_index(
    tmp_path, monkeypatch, old_root, resave, world
):
    """Run ``resave(directory)`` once per ``np.save`` it makes, failing
    that save, against a copy of the saved index at ``old_root``."""
    dataset, _, _, requests = world
    live = tmp_path / "live" / "index"
    shutil.copytree(old_root, live)
    old_files = _snapshot(live)
    old_answers = _answers(live, dataset, requests)

    # A clean re-save on a second copy counts the saves and proves the
    # new tree differs from the old one, so a torn install would show.
    probe = tmp_path / "probe" / "index"
    shutil.copytree(old_root, probe)
    n_saves = _count_saves(monkeypatch, lambda: resave(probe))
    assert n_saves > 0
    assert _snapshot(probe) != old_files

    for k in range(1, n_saves + 1):
        with monkeypatch.context() as patch:
            patch.setattr(np, "save", _failing_save(k))
            with pytest.raises(OSError, match=f"#{k}$"):
                resave(live)
        assert [p.name for p in live.parent.iterdir()] == ["index"], k
        assert _snapshot(live) == old_files, k
        assert _answers(live, dataset, requests) == old_answers, k


# --------------------------------------------------------------------- #
# Re-saves faulted at every np.save
# --------------------------------------------------------------------- #


class TestResaveFaults:
    def test_monolithic_resave(self, world, tmp_path, monkeypatch):
        dataset, base, tails, _ = world
        everything = base + [tr for tail in tails for tr in tail]
        old = SNTIndex.build(
            TrajectorySet(everything), dataset.network.alphabet_size
        ).save(tmp_path / "old")
        new = SNTIndex.build(
            TrajectorySet(everything),
            dataset.network.alphabet_size,
            partition_days=PARTITION_DAYS,
        )
        _assert_every_fault_keeps_the_old_index(
            tmp_path, monkeypatch, old, new.save, world
        )

    def test_sharded_resave_with_staging(self, world, tmp_path, monkeypatch):
        dataset, base, tails, _ = world
        old = _sharded(dataset, base, tails[:1]).save(tmp_path / "old")
        new = _sharded(dataset, base, tails[:2])
        assert new.has_staging
        _assert_every_fault_keeps_the_old_index(
            tmp_path, monkeypatch, old, new.save, world
        )

    def test_compact_index_dir(self, world, tmp_path, monkeypatch):
        dataset, base, tails, _ = world
        index = _sharded(dataset, base, tails[:1])
        assert index.n_shards == 4  # three sealed shards + staging
        old = index.save(tmp_path / "old")
        _assert_every_fault_keeps_the_old_index(
            tmp_path, monkeypatch, old, compact_index_dir, world
        )


# --------------------------------------------------------------------- #
# Manifest shard dirs are outside input
# --------------------------------------------------------------------- #


@pytest.fixture
def saved_sharded(world, tmp_path):
    dataset, base, tails, _ = world
    return _sharded(dataset, base, tails[:1]).save(tmp_path / "index")


def _rewrite_first_shard_dir(root, key):
    manifest_file = root / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["shards"][0]["dir"] = key
    manifest_file.write_text(json.dumps(manifest))


def _forbid_shard_reads(monkeypatch):
    def read(path, *args, **kwargs):
        raise AssertionError(f"a shard was read at {path}")

    monkeypatch.setattr(sharded_module, "read_meta", read)
    monkeypatch.setattr(sharded_module, "load_index", read)


class TestKeyHygiene:
    @pytest.mark.parametrize("key", ["/abs/path", "../escape", "a/../.."])
    def test_traversal_rejected(self, saved_sharded, monkeypatch, key):
        _rewrite_first_shard_dir(saved_sharded, key)
        _forbid_shard_reads(monkeypatch)
        with pytest.raises(PersistenceError, match="leaves the index"):
            load_sharded_index(saved_sharded)

    def test_absolute_dir_of_a_valid_shard_rejected(
        self, saved_sharded, tmp_path, monkeypatch
    ):
        # The escaped shard would load: only the dir check stops it.
        outside = tmp_path / "outside"
        shutil.copytree(saved_sharded / "shard_0000", outside)
        _rewrite_first_shard_dir(saved_sharded, str(outside))
        _forbid_shard_reads(monkeypatch)
        with pytest.raises(PersistenceError, match="leaves the index"):
            load_sharded_index(saved_sharded)


# --------------------------------------------------------------------- #
# atomic_install_dir
# --------------------------------------------------------------------- #


class TestLocalDirStore:
    """The install every save goes through: ``atomic_install_dir``."""

    def test_install_refuses_foreign_directory(self, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "precious.txt").write_text("user data")
        with pytest.raises(PersistenceError, match="refusing"):
            atomic_install_dir(
                target,
                marker_file="meta.json",
                writer=lambda d: (d / "meta.json").write_text("{}"),
                what="saved SNT-index",
            )
        assert (target / "precious.txt").exists()

    def test_install_swaps_atomically(self, tmp_path):
        target = tmp_path / "index"

        def writer(directory):
            (directory / "meta.json").write_text('{"v": 1}')
            (directory / "blob").write_bytes(b"abc")

        atomic_install_dir(target, marker_file="meta.json", writer=writer,
                           what="saved SNT-index")
        assert json.loads((target / "meta.json").read_text()) == {"v": 1}

        def writer2(directory):
            (directory / "meta.json").write_text('{"v": 2}')

        atomic_install_dir(target, marker_file="meta.json", writer=writer2,
                           what="saved SNT-index")
        assert json.loads((target / "meta.json").read_text()) == {"v": 2}
        assert not (target / "blob").exists()  # old payload fully gone


# --------------------------------------------------------------------- #
# A build takes only the counts its loader takes
# --------------------------------------------------------------------- #


class TestBuildCounts:
    @pytest.mark.parametrize("days", [1.5, True, 0, "7"])
    def test_monolithic_rejects_bad_partition_days(self, world, days):
        dataset = world[0]
        with pytest.raises(IndexError_, match="partition_days"):
            SNTIndex.build(
                dataset.trajectories,
                dataset.network.alphabet_size,
                partition_days=days,
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("partition_days", 1.5),
            ("partition_days", True),
            ("partition_days", 0),
            ("n_shards", 2.5),
            ("n_shards", True),
            ("n_shards", 0),
        ],
    )
    def test_sharded_rejects_bad_counts(self, world, name, value):
        dataset = world[0]
        counts = {"partition_days": PARTITION_DAYS, "n_shards": 2}
        counts[name] = value
        with pytest.raises(ShardError, match=name):
            ShardedSNTIndex.build(
                dataset.trajectories, dataset.network.alphabet_size, **counts
            )

    @pytest.mark.parametrize("days", [None, 1, PARTITION_DAYS, 365])
    def test_monolithic_counts_round_trip(self, world, tmp_path, days):
        dataset = world[0]
        built = SNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            partition_days=days,
        )
        loaded = load_any_index(built.save(tmp_path / "index"))
        assert loaded.partition_days == days
        assert loaded.n_partitions == built.n_partitions

    @pytest.mark.parametrize(
        "days, shards", [(1, 3), (PARTITION_DAYS, 1), (PARTITION_DAYS, 100)]
    )
    def test_sharded_counts_round_trip(self, world, tmp_path, days, shards):
        dataset = world[0]
        built = ShardedSNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            n_shards=shards,
            partition_days=days,
        )
        loaded = load_any_index(built.save(tmp_path / "index"))
        assert loaded.partition_days == days
        assert loaded.n_shards == built.n_shards
        assert loaded.n_partitions == built.n_partitions
