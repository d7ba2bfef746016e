"""Shared fixtures for the engine-level suites."""

import pytest

from repro import ShardedSNTIndex, SNTIndex, TrajectorySet, generate_dataset
from repro.config import SECONDS_PER_DAY

PARTITION_DAYS = 7


@pytest.fixture(scope="module")
def world():
    """``(dataset, readers, trips)``: one corpus behind the css, btree
    and sharded readers — the sharded one keeps its newest temporal
    bucket in an appended staging shard — and its trips of six or more
    segments."""
    dataset = generate_dataset("tiny", seed=0)
    trajectories = list(dataset.trajectories)
    alphabet_size = dataset.network.alphabet_size
    t_min = min(tr.start_time for tr in trajectories)

    def bucket(tr):
        return (tr.start_time - t_min) // (PARTITION_DAYS * SECONDS_PER_DAY)

    newest = max(bucket(tr) for tr in trajectories)
    sharded = ShardedSNTIndex.build(
        TrajectorySet([tr for tr in trajectories if bucket(tr) < newest]),
        alphabet_size,
        n_shards=3,
        partition_days=PARTITION_DAYS,
    )
    sharded.append([tr for tr in trajectories if bucket(tr) == newest])
    assert sharded.has_staging and sharded.n_shards >= 3
    readers = {
        "css": SNTIndex.build(
            TrajectorySet(trajectories),
            alphabet_size,
            partition_days=PARTITION_DAYS,
        ),
        "btree": SNTIndex.build(
            TrajectorySet(trajectories),
            alphabet_size,
            partition_days=PARTITION_DAYS,
            kind="btree",
        ),
        "sharded": sharded,
    }
    trips = [tr for tr in trajectories if len(tr) >= 6]
    return dataset, readers, trips
