"""Shared fixtures for the engine-level suites."""

import pytest

from repro import ShardedSNTIndex, SNTIndex, TrajectorySet, generate_dataset
from repro.config import SECONDS_PER_DAY

PARTITION_DAYS = 7


def build_readers(trajectories, alphabet_size, partition_days):
    """The same corpus behind the css, btree and sharded readers; the
    sharded one keeps its newest temporal bucket in an appended staging
    shard."""
    trajectories = list(trajectories)
    t_min = min(tr.start_time for tr in trajectories)

    def bucket(tr):
        return (tr.start_time - t_min) // (partition_days * SECONDS_PER_DAY)

    newest = max(bucket(tr) for tr in trajectories)
    sharded = ShardedSNTIndex.build(
        TrajectorySet([tr for tr in trajectories if bucket(tr) < newest]),
        alphabet_size,
        n_shards=3,
        partition_days=partition_days,
    )
    sharded.append([tr for tr in trajectories if bucket(tr) == newest])
    assert sharded.has_staging and sharded.n_shards >= 3
    return {
        "css": SNTIndex.build(
            TrajectorySet(trajectories),
            alphabet_size,
            partition_days=partition_days,
        ),
        "btree": SNTIndex.build(
            TrajectorySet(trajectories),
            alphabet_size,
            partition_days=partition_days,
            kind="btree",
        ),
        "sharded": sharded,
    }


@pytest.fixture(scope="session")
def readers_over():
    """:func:`build_readers`, for suites that index crafted corpora."""
    return build_readers


@pytest.fixture(scope="module")
def world():
    """``(dataset, readers, trips)``: one corpus behind the three
    readers of :func:`build_readers` and its trips of six or more
    segments."""
    dataset = generate_dataset("tiny", seed=0)
    readers = build_readers(
        dataset.trajectories, dataset.network.alphabet_size, PARTITION_DAYS
    )
    trips = [tr for tr in dataset.trajectories if len(tr) >= 6]
    return dataset, readers, trips
