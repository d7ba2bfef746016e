"""A partition's bytes are a function of its trajectory set, and an
index's rows hold that set.

``SNTIndex.build_from_groups`` lists each partition's members in
``traj_id`` order, so a build over a shuffled corpus is the build over
the id-ordered one, for every builder.  ``SNTIndex.trajectories`` is
the inverse: the trajectories it recovers from a built or a loaded
index, grouped into the same partitions, rebuild every saved array.
That is what lets the staging shard's rows be the staged tail's only
record.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ShardedSNTIndex, SNTIndex, TrajectorySet, generate_dataset
from repro.config import SECONDS_PER_DAY
from repro.sntindex.index import assign_time_windows, window_bounds
from repro.sntindex.persistence import PAYLOAD_DIR
from repro.sntindex.sharded import load_sharded_index

PARTITION_DAYS = 3

#: The monolithic builds the recovery is proven over.
BUILDS = {
    "full": {},
    "partitioned-css": {"partition_days": PARTITION_DAYS},
    "partitioned-btree": {"partition_days": PARTITION_DAYS, "kind": "btree"},
}


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset("tiny", seed=0)


def _saved_arrays(index, root):
    """The partition entries and every payload array ``index`` saves."""
    index.save(root)
    meta = json.loads((root / "meta.json").read_text())
    arrays = {
        path.name: np.load(path) for path in (root / PAYLOAD_DIR).iterdir()
    }
    return meta["partitions"], arrays


def _assert_same_arrays(actual, expected, root):
    actual_entries, actual_arrays = _saved_arrays(actual, root / "actual")
    entries, arrays = _saved_arrays(expected, root / "expected")
    assert actual_entries == entries
    assert sorted(actual_arrays) == sorted(arrays)
    for name, array in arrays.items():
        assert actual_arrays[name].dtype == array.dtype, name
        assert np.array_equal(actual_arrays[name], array), name


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_recovered_trajectories_rebuild_every_array(
    dataset, tmp_path_factory, data
):
    """Any subset of the corpus, in any order, under any build, saved
    or not: the recovered trajectories are the subset in id order, and
    they rebuild every array."""
    build = BUILDS[data.draw(st.sampled_from(sorted(BUILDS)), label="build")]
    corpus = list(dataset.trajectories)
    picked = data.draw(
        st.lists(
            st.integers(0, len(corpus) - 1), min_size=1, max_size=200,
            unique=True,
        ),
        label="picked",
    )
    members = TrajectorySet([corpus[i] for i in picked])
    alphabet = dataset.network.alphabet_size
    index = SNTIndex.build(members, alphabet, **build)
    if data.draw(st.booleans(), label="loaded"):
        index = SNTIndex.load(
            index.save(tmp_path_factory.mktemp("saved") / "index")
        )

    recovered = index.trajectories()
    assert [tr.traj_id for tr in recovered] == sorted(
        tr.traj_id for tr in members
    )
    by_id = {tr.traj_id: tr for tr in members}
    for trajectory in recovered:
        original = by_id[trajectory.traj_id]
        assert trajectory.user_id == original.user_id
        assert trajectory.points == list(original.points)
    rebuilt = SNTIndex.build(TrajectorySet(recovered), alphabet, **build)
    _assert_same_arrays(rebuilt, index, tmp_path_factory.mktemp("arrays"))


def test_loaded_staging_shard_rebuilds_from_its_rows(dataset, tmp_path):
    """A staging shard grown by two appends, saved and loaded, is
    rebuilt array for array from the trajectories its rows hold."""
    corpus = sorted(dataset.trajectories, key=lambda tr: tr.start_time)
    t_min = corpus[0].start_time
    window = PARTITION_DAYS * SECONDS_PER_DAY
    buckets = assign_time_windows(corpus, t_min, window)
    last = sorted(buckets)[-2:]
    base = [tr for bucket in sorted(buckets)[:-2] for tr in buckets[bucket]]
    alphabet = dataset.network.alphabet_size
    index = ShardedSNTIndex.build(
        TrajectorySet(base), alphabet, n_shards=3,
        partition_days=PARTITION_DAYS,
    )
    for bucket in last:
        index.append(buckets[bucket])
    loaded = load_sharded_index(index.save(tmp_path / "index"))
    staging = loaded.entries[-1].index
    recovered = staging.trajectories()
    assert [tr.traj_id for tr in recovered] == sorted(
        tr.traj_id for bucket in last for tr in buckets[bucket]
    )
    groups = assign_time_windows(recovered, staging.t_min, window)
    rebuilt = SNTIndex.build_from_groups(
        [
            (*window_bounds(bucket, staging.t_min, window), groups[bucket])
            for bucket in sorted(groups)
        ],
        alphabet,
        t_min=staging.t_min,
        t_max=staging.t_max,
        partition_days=PARTITION_DAYS,
    )
    _assert_same_arrays(rebuilt, staging, tmp_path / "arrays")
    _assert_same_arrays(staging, index.entries[-1].index, tmp_path / "built")


@pytest.mark.parametrize("build", sorted(BUILDS) + ["sharded"])
def test_shuffled_corpus_builds_the_same_index(dataset, tmp_path, build):
    """Every builder lists a partition's members in id order, so the
    corpus order does not reach the saved bytes."""
    corpus = list(dataset.trajectories)
    order = np.random.default_rng(0).permutation(len(corpus))
    shuffled = TrajectorySet([corpus[i] for i in order])
    alphabet = dataset.network.alphabet_size

    def indexes(trajectories):
        if build == "sharded":
            return ShardedSNTIndex.build(
                trajectories, alphabet, n_shards=3,
                partition_days=PARTITION_DAYS,
            ).shards
        return [SNTIndex.build(trajectories, alphabet, **BUILDS[build])]

    expected = indexes(dataset.trajectories)
    actual = indexes(shuffled)
    assert len(actual) == len(expected)
    for k, (shard, oracle) in enumerate(zip(actual, expected)):
        _assert_same_arrays(shard, oracle, tmp_path / str(k))
