"""The saved-index directory under faults and outside input.

A save is staged in a sibling directory and swapped in by
:func:`~repro.sntindex.persistence.atomic_install_dir`; every file is
written into that staging directory by one of two calls — ``np.save``
for payload arrays, ``json.dump`` for each ``meta.json`` and the
manifest — so those calls are the fault seams; ``pickle.dump`` is
watched too, and no save calls it (the staged tail is the staging
shard's own rows).  Making the k-th call of a seam raise during a
re-save, for every k, must leave the directory byte-for-byte the old
index, answering a fixed request set as before, with no staging or
graveyard sibling left behind.  A file cut short after the save must end
a load, or the first use of the part it holds, in a typed error.  An
array a loader adopts as it is (the edge ids, the ``t`` order, the two
stored sort permutations, the partition ids, the ISA values and each
partition's ``C`` array they must agree with, each trajectory's ``seq``
values and the sign of every traversal time) is proven when the
directory opens: a rewrite that breaks it ends in
:class:`PersistenceError`, never in another answer or an untyped error.
A ``staging_trajectories.pkl`` an older writer left is never read.  The
file set a save writes, and each array's dtype, are pinned; a directory
an older writer left, with wider arrays, opens and answers alike unless
a value does not fit.

A manifest is outside input: a shard ``dir`` that leaves the index
directory is refused before any shard is read, and the facts a shard's
own directory holds (its partitions in its meta, its time bounds in
its forest) are read from there, never from a manifest copy, nor from
the bounds that meta still carries.  A build refuses the arguments its
own loader would refuse, or silently truncate, and the ids its columns
cannot hold.
"""

import itertools
import json
import pickle
import shutil

import numpy as np
import pytest

from repro import (
    FixedInterval,
    PeriodicInterval,
    ShardedSNTIndex,
    SNTIndex,
    Trajectory,
    TrajectorySet,
    TripRequest,
    generate_dataset,
    open_db,
)
from repro.config import SECONDS_PER_DAY
from repro.errors import (
    IndexError_,
    PersistenceError,
    ReproError,
    ShardError,
    TrajectoryError,
)
from repro.sntindex import sharded as sharded_module
from repro.sntindex.compaction import compact_index_dir
from repro.sntindex.persistence import atomic_install_dir
from repro.sntindex.sharded import load_any_index, load_sharded_index
from repro.temporal.records import COLUMN_DTYPES, ORDER_DTYPE

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


def _sharded(dataset, base, tails, kind="css"):
    """A 3-shard index over ``base`` with ``tails`` appended to its
    staging shard."""
    index = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=3,
        partition_days=PARTITION_DAYS,
        kind=kind,
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


#: The calls a save writes its files with, by name.
SEAMS = {"np.save": (np, "save"), "json.dump": (json, "dump"),
         "pickle.dump": (pickle, "dump")}


def _failing_call(seam, k):
    """The ``seam`` call whose k-th invocation (1-based) raises."""
    owner, name = SEAMS[seam]
    real = getattr(owner, name)
    calls = itertools.count(1)

    def call(*args, **kwargs):
        if next(calls) == k:
            raise OSError(f"injected fault at {seam} #{k}")
        return real(*args, **kwargs)

    return call


def _count_calls(monkeypatch, seam, action):
    owner, name = SEAMS[seam]
    real = getattr(owner, name)
    calls = []

    def call(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, call)
        action()
    return len(calls)


def _assert_every_fault_keeps_the_old_index(
    tmp_path, monkeypatch, old_root, resave, world, seam="np.save"
):
    """Run ``resave(directory)`` once per ``seam`` call it makes, failing
    that call, against a copy of the saved index at ``old_root``."""
    dataset, _, _, requests = world
    owner, name = SEAMS[seam]
    live = tmp_path / "live" / "index"
    shutil.copytree(old_root, live)
    old_files = _snapshot(live)
    old_answers = _answers(live, dataset, requests)

    # A clean re-save on a second copy counts the calls and proves the
    # new tree differs from the old one, so a torn install would show.
    probe = tmp_path / "probe" / "index"
    shutil.copytree(old_root, probe)
    n_calls = _count_calls(monkeypatch, seam, lambda: resave(probe))
    assert n_calls > 0
    assert _snapshot(probe) != old_files

    for k in range(1, n_calls + 1):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, _failing_call(seam, k))
            with pytest.raises(OSError, match=f"{seam} #{k}$"):
                resave(live)
        assert [p.name for p in live.parent.iterdir()] == ["index"], k
        assert _snapshot(live) == old_files, k
        assert _answers(live, dataset, requests) == old_answers, k


# --------------------------------------------------------------------- #
# Re-saves faulted at every np.save and json.dump
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

    @pytest.mark.parametrize(
        "case, seam",
        [
            ("monolithic", "json.dump"),
            ("sharded", "json.dump"),
            ("sharded", "pickle.dump"),
            ("compact", "json.dump"),
            ("compact", "pickle.dump"),
        ],
    )
    def test_json_and_pickle_faults(
        self, world, tmp_path, monkeypatch, case, seam
    ):
        """The same three re-saves, faulted at each meta/manifest
        ``json.dump``.  None of them calls ``pickle.dump``, with a
        staged tail or without, so that seam has nothing to fault."""
        dataset, base, tails, _ = world
        if case == "monolithic":
            everything = base + [tr for tail in tails for tr in tail]
            old = SNTIndex.build(
                TrajectorySet(everything), dataset.network.alphabet_size
            ).save(tmp_path / "old")
            resave = SNTIndex.build(
                TrajectorySet(everything),
                dataset.network.alphabet_size,
                partition_days=PARTITION_DAYS,
            ).save
        elif case == "sharded":
            old = _sharded(dataset, base, tails[:1]).save(tmp_path / "old")
            resave = _sharded(dataset, base, tails[:2]).save
        else:
            old = _sharded(dataset, base, tails[:1]).save(tmp_path / "old")
            resave = compact_index_dir
        if seam == "pickle.dump":
            probe = tmp_path / "probe"
            shutil.copytree(old, probe)
            assert _count_calls(monkeypatch, seam, lambda: resave(probe)) == 0
            return
        _assert_every_fault_keeps_the_old_index(
            tmp_path, monkeypatch, old, resave, world, seam=seam
        )


# --------------------------------------------------------------------- #
# A file cut short ends in a typed error
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def saved_two_shards(world, tmp_path_factory):
    """A 2-shard index with a staging shard, and one file of each kind:
    the manifest, a shard meta and every payload array name (partition
    arrays from partition 0)."""
    dataset, base, tails, _ = world
    index = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=2,
        partition_days=PARTITION_DAYS,
    )
    index.append(tails[0])
    root = index.save(tmp_path_factory.mktemp("cut") / "index")
    payload = sorted((root / "shard_0000" / "payload").iterdir())
    arrays = [path for path in payload
              if not path.name.startswith("p") or path.name.startswith("p0_")
              or path.name.startswith("perm_")]
    files = [root / "manifest.json", root / "shard_0000" / "meta.json",
             *arrays]
    assert all(path.is_file() for path in files)
    return root, files


def _load_and_force(root):
    """Load ``root`` and touch every lazily read part of every shard."""
    index = load_any_index(root)
    for shard in index.shards:
        for partition in shard.partitions:
            partition.fm
        edge = next(iter(shard.forest.edges()))
        shard.forest.get(edge).columns
        shard.tod_store


class TestTruncatedFiles:
    @pytest.mark.parametrize("cut", ["empty", "half", "one_byte_short"])
    def test_every_kind_of_file_cut_short_is_typed(
        self, saved_two_shards, cut
    ):
        root, files = saved_two_shards
        untyped = []
        for path in files:
            whole = path.read_bytes()
            size = {"empty": 0, "half": len(whole) // 2,
                    "one_byte_short": len(whole) - 1}[cut]
            path.write_bytes(whole[:size])
            try:
                _load_and_force(root)
            except ReproError:
                pass
            except Exception as error:
                untyped.append(f"{path.relative_to(root)}: {error!r}")
            else:
                untyped.append(f"{path.relative_to(root)}: loaded")
            finally:
                path.write_bytes(whole)
        assert untyped == []
        _load_and_force(root)  # the restored index is whole again


# --------------------------------------------------------------------- #
# Forest arrays the loader adopts are proven at open
# --------------------------------------------------------------------- #


def _shuffle_within_segments(t, payload):
    offsets = np.load(payload / "edge_offsets.npy").tolist()
    rng = np.random.default_rng(0)
    shuffled = t.copy()
    for lo, hi in zip(offsets, offsets[1:]):
        shuffled[lo:hi] = rng.permutation(t[lo:hi])
    return shuffled


def _repeat_first_id(ids, payload):
    ids = ids.copy()
    ids[1] = ids[0]
    return ids


def _repeat_a_seq(seq, payload):
    """Some trajectory's second row numbered 0, like its first."""
    seq = seq.copy()
    seq[np.argmax(seq == 1)] = 0
    return seq


#: Rewrites of one payload array: ``(array name, rewrite(array, payload
#: dir))``.
FOREST_REWRITES = {
    "perm_tod-huge": ("perm_tod", lambda a, _: np.full_like(a, 10**9)),
    "perm_tod-zero": ("perm_tod", lambda a, _: np.zeros_like(a)),
    "perm_probe-huge": ("perm_probe", lambda a, _: np.full_like(a, 10**9)),
    "perm_probe-zero": ("perm_probe", lambda a, _: np.zeros_like(a)),
    "edge_ids-repeated": ("edge_ids", _repeat_first_id),
    "col_t-shuffled": ("col_t", _shuffle_within_segments),
    "col_w-99": ("col_w", lambda a, _: np.full_like(a, 99)),
    "col_w-negative": ("col_w", lambda a, _: np.full_like(a, -1)),
    "col_isa-huge": ("col_isa", lambda a, _: np.full_like(a, 10**9)),
    "col_isa-zero": ("col_isa", lambda a, _: np.zeros_like(a)),
    "col_seq-negative": ("col_seq", lambda a, _: np.full_like(a, -1)),
    "col_seq-repeated": ("col_seq", _repeat_a_seq),
    "col_tt-negated": ("col_tt", lambda a, _: -a),
    "p0_counts-zero": ("p0_counts", lambda a, _: np.zeros_like(a)),
}

#: What a writer before v2.3 held wider than this one: ``col_isa``,
#: ``col_d`` and the two permutations as int64, ``col_w`` as int32.
WIDE_DTYPES = {"col_isa": np.int64, "col_d": np.int64, "col_w": np.int32,
               "perm_tod": np.int64, "perm_probe": np.int64}


def _as_older_format(root, minor):
    """Rewrite every index directory under ``root`` as a writer of
    format v2.``minor`` left it: the wide arrays, the older minor, and,
    for v2.0, no stored permutations."""
    for meta_file in root.glob("**/meta.json"):
        meta = json.loads(meta_file.read_text())
        meta["format_minor"] = minor
        meta_file.write_text(json.dumps(meta))
        payload = meta_file.parent / "payload"
        for name, dtype in WIDE_DTYPES.items():
            path = payload / f"{name}.npy"
            if minor == 0 and name.startswith("perm_"):
                path.unlink()
            else:
                np.save(path, np.load(path).astype(dtype))


@pytest.fixture(scope="module")
def saved_forests(world, tmp_path_factory):
    """A saved directory per ``(kind, layout)``: the monolithic index
    partitioned by week, and 3 shards plus staging."""
    dataset, base, tails, _ = world
    saved = {}
    for kind in ("css", "btree"):
        root = tmp_path_factory.mktemp(f"forest-{kind}")
        saved[kind, "monolithic"] = SNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            partition_days=PARTITION_DAYS,
            kind=kind,
        ).save(root / "monolithic")
        saved[kind, "sharded"] = _sharded(
            dataset, base, tails[:1], kind=kind
        ).save(root / "sharded")
    return saved


class TestForestProofs:
    @pytest.mark.parametrize("rewrite", sorted(FOREST_REWRITES))
    @pytest.mark.parametrize("layout", ["monolithic", "sharded"])
    @pytest.mark.parametrize("kind", ["css", "btree"])
    def test_rewritten_array_is_refused(
        self, world, saved_forests, tmp_path, kind, layout, rewrite
    ):
        dataset, _, _, requests = world
        root = tmp_path / "index"
        shutil.copytree(saved_forests[kind, layout], root)
        name, change = FOREST_REWRITES[rewrite]
        files = sorted(root.glob(f"**/payload/{name}.npy"))
        assert files
        for path in files:
            before = np.load(path)
            after = change(before, path.parent)
            assert not np.array_equal(after, before)
            np.save(path, after)
        with pytest.raises(PersistenceError, match=name):
            _answers(root, dataset, requests)

    @pytest.mark.parametrize("layout", ["monolithic", "sharded"])
    @pytest.mark.parametrize("kind", ["css", "btree"])
    def test_wide_id_of_an_older_directory_is_refused(
        self, world, saved_forests, tmp_path, kind, layout
    ):
        dataset, _, _, requests = world
        root = tmp_path / "index"
        shutil.copytree(saved_forests[kind, layout], root)
        _as_older_format(root, 2)
        for path in root.glob("**/payload/col_d.npy"):
            wide = np.load(path)
            wide[0] = 2**31
            np.save(path, wide)
        with pytest.raises(
            PersistenceError, match="col_d holds a value int32 cannot"
        ):
            _answers(root, dataset, requests)

    @pytest.mark.parametrize("minor", [0, 1, 2])
    @pytest.mark.parametrize("layout", ["monolithic", "sharded"])
    def test_older_directory_opens_and_answers_alike(
        self, world, saved_forests, tmp_path, layout, minor
    ):
        dataset, _, _, requests = world
        root = tmp_path / "index"
        shutil.copytree(saved_forests["css", layout], root)
        _as_older_format(root, minor)
        assert np.load(next(root.glob("**/payload/col_d.npy"))).dtype \
            == np.int64
        assert _answers(root, dataset, requests) == _answers(
            saved_forests["css", layout], dataset, requests
        )
        for shard in getattr(load_any_index(root), "shards", None) or [
            load_any_index(root)
        ]:
            forest = shard.forest
            for name, dtype in COLUMN_DTYPES.items():
                assert getattr(forest.columns, name).dtype == dtype, name
            assert forest.perm_tod.dtype == forest.perm_probe.dtype \
                == ORDER_DTYPE

    def test_monolithic_file_set_is_pinned(self, world, tmp_path):
        dataset = world[0]
        root = SNTIndex.build(
            dataset.trajectories, dataset.network.alphabet_size
        ).save(tmp_path / "index")
        assert sorted(path.name for path in root.iterdir()) == [
            "meta.json", "payload",
        ]
        assert {
            path.name: str(np.load(path, mmap_mode="r").dtype)
            for path in (root / "payload").iterdir()
        } == {
            "col_a.npy": "float64", "col_d.npy": "int32",
            "col_isa.npy": "int32", "col_seq.npy": "int32",
            "col_t.npy": "int64", "col_tt.npy": "float64",
            "col_w.npy": "int16", "edge_ids.npy": "int64",
            "edge_offsets.npy": "int64", "p0_code_bits.npy": "uint8",
            "p0_code_lengths.npy": "int64", "p0_code_symbols.npy": "int64",
            "p0_counts.npy": "int64", "p0_node_bits.npy": "int64",
            "p0_wt_blocks.npy": "int64", "p0_wt_words.npy": "uint64",
            "perm_probe.npy": "int32", "perm_tod.npy": "int32",
            "users.npy": "int64",
        }
        meta = json.loads((root / "meta.json").read_text())
        assert meta["format_minor"] == 3
        assert sorted(meta) == [
            "alphabet_size", "build_stats", "extra", "format",
            "format_minor", "format_version", "kind", "partition_days",
            "partitions", "t_max", "t_min", "tod_bucket_s",
        ]
        assert [sorted(entry) for entry in meta["partitions"]] == [
            ["fm_n", "n_trajectories", "n_traversals", "t_hi", "t_lo"]
        ]


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


class TestManifestEntries:
    """A manifest entry is ``{dir, bucket_lo, bucket_hi}``: a shard's
    partitions come from its own meta and its time bounds from its
    forest."""

    def test_entries_hold_only_dir_and_buckets(self, saved_sharded):
        manifest = json.loads((saved_sharded / "manifest.json").read_text())
        entries = manifest["shards"] + [manifest["staging"]]
        assert [entry["dir"] for entry in entries] == [
            "shard_0000", "shard_0001", "shard_0002", "staging"
        ]
        for entry in entries:
            assert set(entry) == {"dir", "bucket_lo", "bucket_hi"}

    def test_rewritten_bounds_do_not_prune(self, world, tmp_path):
        """Bounds written into a manifest entry are not routed on: a
        fixed interval over shard 0 answers as before even when the
        entry claims shard 0 lies past the last shard."""
        dataset, base, _, _ = world
        root = _sharded(dataset, base, []).save(tmp_path / "index")
        first = min(base, key=lambda tr: tr.start_time)
        request = TripRequest(
            path=tuple(first.path[:2]),
            interval=FixedInterval(first.start_time, first.start_time + 1),
        )
        before = load_sharded_index(root)
        assert before.count_matches(request.path, request.interval) == 1
        expected = _answers(root, dataset, [request])

        manifest_file = root / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        past = before.entries[-1].t_hi + 10 * SECONDS_PER_DAY
        manifest["shards"][0].update(t_lo=past, t_hi=past + 1)
        manifest_file.write_text(json.dumps(manifest))

        after = load_sharded_index(root)
        assert after.count_matches(request.path, request.interval) == 1
        assert _answers(root, dataset, [request]) == expected

    def test_older_manifest_with_copies_loads(self, world, saved_sharded):
        """A manifest that still carries the copies an older writer kept
        (label, t_lo, t_hi, n_partitions) loads and answers the same."""
        dataset, _, _, requests = world
        expected = _answers(saved_sharded, dataset, requests)
        index = load_sharded_index(saved_sharded)
        manifest_file = saved_sharded / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        entries = manifest["shards"] + [manifest["staging"]]
        for entry, shard in zip(entries, index.shards):
            t_lo, t_hi = shard.data_time_bounds()
            entry.update(label=entry["dir"], t_lo=t_lo, t_hi=t_hi,
                         n_partitions=shard.n_partitions)
        manifest_file.write_text(json.dumps(manifest, indent=2))
        assert _answers(saved_sharded, dataset, requests) == expected


class TestStagedTail:
    """The staging shard's rows are the staged tail's only record."""

    def test_junk_pickle_of_an_older_writer_is_never_read(
        self, world, tmp_path
    ):
        """A directory that still holds a ``staging_trajectories.pkl``
        opens, answers and appends as if it did not."""
        dataset, base, tails, requests = world
        root = _sharded(dataset, base, tails[:1]).save(tmp_path / "index")
        expected = _answers(root, dataset, requests)
        (root / "staging_trajectories.pkl").write_bytes(b"\x80\x05 junk")
        assert _answers(root, dataset, requests) == expected

        index = load_any_index(root)
        assert index.append(tails[1]) == len(tails[1])
        oracle = _sharded(dataset, base, tails[:2])
        assert _answers(index.save(tmp_path / "appended"), dataset,
                        requests) == _answers(
            oracle.save(tmp_path / "oracle"), dataset, requests
        )


class TestShardMetaBounds:
    """A shard's traversal-time bounds are worked out from its forest;
    the ``data_time_bounds`` its ``meta.json`` still carries (for older
    loaders) is never read, so no rewrite of it fails a load or prunes
    a shard."""

    @pytest.mark.parametrize(
        "bounds",
        [["a", 1], 5, [1.5e30, 2], "past"],
        ids=["string", "scalar", "huge-float", "excludes-rows"],
    )
    def test_rewritten_bounds_load_and_answer(self, world, tmp_path, bounds):
        dataset, base, _, _ = world
        index = _sharded(dataset, base, [])
        assert len(index.entries) == 3
        root = index.save(tmp_path / "index")
        first = min(base, key=lambda tr: tr.start_time)
        request = TripRequest(
            path=tuple(first.path[:2]),
            interval=FixedInterval(first.start_time, first.start_time + 1),
        )
        if bounds == "past":
            past = index.entries[-1].t_hi + 10 * SECONDS_PER_DAY
            bounds = [past, past + 1]
        for meta_file in root.glob("shard_*/meta.json"):
            meta = json.loads(meta_file.read_text())
            meta["data_time_bounds"] = bounds
            meta_file.write_text(json.dumps(meta))

        loaded = load_any_index(root)
        assert [entry.index.data_time_bounds() for entry in loaded.entries] \
            == [entry.index.data_time_bounds() for entry in index.entries]
        oracle = SNTIndex.build(
            TrajectorySet(base),
            dataset.network.alphabet_size,
            partition_days=PARTITION_DAYS,
        )
        with open_db(oracle, network=dataset.network, cache=None) as db:
            expected = db.query(request).to_dict()
        assert loaded.count_matches(request.path, request.interval) == 1
        with open_db(loaded, network=dataset.network, cache=None) as db:
            answer = db.query(request).to_dict()
        expected.pop("elapsed_s")
        answer.pop("elapsed_s")
        assert answer == expected


class TestPartitionIds:
    """A partition's id is its position among its index's partitions;
    the ``w`` each ``meta.json`` entry still carries (for older loaders)
    is never read, so no rewrite of it changes an answer."""

    @staticmethod
    def _rewrite_ids(meta_file):
        meta = json.loads(meta_file.read_text())
        entries = meta["partitions"]
        for k, entry in enumerate(entries):
            entry["w"] = (k + 1) % len(entries) if len(entries) > 1 else 1
        entries[-1]["w"] = 0
        meta_file.write_text(json.dumps(meta))

    def _assert_answers_unchanged(self, world, built, root, meta_files):
        dataset, _, _, requests = world
        with open_db(built, network=dataset.network, cache=None) as db:
            expected = [
                {k: v for k, v in result.to_dict().items()
                 if k != "elapsed_s"}
                for result in db.query_many(requests)
            ]
        assert _answers(root, dataset, requests) == expected
        for meta_file in meta_files:
            self._rewrite_ids(meta_file)
        assert _answers(root, dataset, requests) == expected

    def test_monolithic(self, world, tmp_path):
        dataset = world[0]
        built = SNTIndex.build(
            dataset.trajectories,
            dataset.network.alphabet_size,
            partition_days=PARTITION_DAYS,
        )
        assert built.n_partitions > 2
        root = built.save(tmp_path / "index")
        self._assert_answers_unchanged(
            world, built, root, [root / "meta.json"]
        )

    def test_sharded(self, world, tmp_path):
        dataset, base, tails, _ = world
        built = _sharded(dataset, base, tails[:1])
        root = built.save(tmp_path / "index")
        self._assert_answers_unchanged(
            world, built, root, sorted(root.glob("*/meta.json"))
        )


class TestMetaScalars:
    """``meta.json``'s ``t_min``, ``t_max`` and ``tod_bucket_s`` take the
    checks the sharded manifest's fields take, before any payload is
    read."""

    @pytest.mark.parametrize(
        "field, value",
        [("t_max", 1.5), ("t_min", True), ("tod_bucket_s", "600"),
         ("t_max", "x"), ("tod_bucket_s", 0), ("partition_days", 2.0),
         ("tod_bucket_s", SECONDS_PER_DAY + 1), ("tod_bucket_s", 90_000)],
    )
    def test_bad_scalar_refused_before_payload(
        self, world, tmp_path, monkeypatch, field, value
    ):
        dataset = world[0]
        root = SNTIndex.build(
            dataset.trajectories, dataset.network.alphabet_size
        ).save(tmp_path / "index")
        meta_file = root / "meta.json"
        meta = json.loads(meta_file.read_text())
        meta[field] = value
        meta_file.write_text(json.dumps(meta))

        def read(path, *args, **kwargs):
            raise AssertionError(f"payload read at {path}")

        monkeypatch.setattr(np, "load", read)
        with pytest.raises(PersistenceError, match=field):
            load_any_index(root)

    @pytest.mark.parametrize("value", [SECONDS_PER_DAY + 1, 90_000])
    def test_manifest_bucket_over_a_day_refused_before_shards(
        self, saved_sharded, monkeypatch, value
    ):
        manifest_file = saved_sharded / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        manifest["tod_bucket_s"] = value
        manifest_file.write_text(json.dumps(manifest))
        _forbid_shard_reads(monkeypatch)
        with pytest.raises(PersistenceError, match="tod_bucket_s"):
            load_any_index(saved_sharded)


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


class TestBuildArguments:
    """Both builders refuse an alphabet size, time-of-day bucket width
    or tree kind their loader would refuse or truncate."""

    BAD = [
        ("alphabet_size", 0),
        ("alphabet_size", 2.5),
        ("alphabet_size", True),
        ("tod_bucket_s", 0),
        ("tod_bucket_s", -5),
        ("tod_bucket_s", 2.5),
        ("tod_bucket_s", True),
        ("tod_bucket_s", SECONDS_PER_DAY + 1),
        ("kind", "foo"),
    ]

    @staticmethod
    def _arguments(world, **overrides):
        dataset = world[0]
        arguments = {"alphabet_size": dataset.network.alphabet_size,
                     "partition_days": PARTITION_DAYS}
        arguments.update(overrides)
        return dataset.trajectories, arguments

    @pytest.mark.parametrize("name, value", BAD)
    def test_monolithic_rejects(self, world, name, value):
        trajectories, arguments = self._arguments(world, **{name: value})
        with pytest.raises(IndexError_, match=name):
            SNTIndex.build(trajectories, **arguments)

    @pytest.mark.parametrize("name, value", BAD)
    def test_sharded_rejects(self, world, name, value):
        trajectories, arguments = self._arguments(world, **{name: value})
        with pytest.raises(IndexError_, match=name):
            ShardedSNTIndex.build(trajectories, n_shards=2, **arguments)

    @pytest.mark.parametrize("builder", ["monolithic", "sharded"])
    @pytest.mark.parametrize(
        "name, value",
        [("tod_bucket_s", 60), ("tod_bucket_s", SECONDS_PER_DAY),
         ("kind", "btree")],
    )
    def test_accepted_values_round_trip(
        self, world, tmp_path, builder, name, value
    ):
        trajectories, arguments = self._arguments(world, **{name: value})
        if builder == "monolithic":
            built = SNTIndex.build(trajectories, **arguments)
        else:
            built = ShardedSNTIndex.build(
                trajectories, n_shards=2, **arguments
            )
        loaded = load_any_index(built.save(tmp_path / "index"))
        assert getattr(loaded, name) == value
        assert loaded.alphabet_size == arguments["alphabet_size"]


class TestBuildLimits:
    """A build refuses what the forest's narrow columns cannot hold,
    before it allocates anything sized by it."""

    def test_trajectory_id_of_2_31_refused(self, world):
        dataset = world[0]
        trajectories = list(dataset.trajectories)[:5]
        last = trajectories[-1]
        trajectories[-1] = Trajectory(2**31, last.user_id, last.points)
        with pytest.raises(TrajectoryError, match=str(2**31)):
            SNTIndex.build(
                TrajectorySet(trajectories), dataset.network.alphabet_size
            )

    def test_more_partitions_than_w_holds_refused(self, world):
        dataset = world[0]
        trajectory = next(iter(dataset.trajectories))
        with pytest.raises(IndexError_, match="32768 temporal partitions"):
            SNTIndex.build_from_groups(
                [(0, 1, [trajectory])] * 32768,
                dataset.network.alphabet_size,
                t_min=0,
                t_max=1,
            )

    def test_text_longer_than_isa_holds_refused(self, world, monkeypatch):
        from repro.sntindex import partition

        dataset = world[0]
        trajectories = list(dataset.trajectories)[:5]
        symbols = sum(len(tr) + 1 for tr in trajectories)
        monkeypatch.setattr(
            partition, "column_limit", lambda name: symbols - 1
        )
        with pytest.raises(IndexError_, match=f"{symbols} symbols"):
            SNTIndex.build(
                TrajectorySet(trajectories), dataset.network.alphabet_size
            )
