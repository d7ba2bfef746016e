"""Every edge's sorted probe keys strictly increase.

The probe join (Procedure 4) is a unique-key join: a trajectory
traverses each ``seq`` once and trajectory ids are unique across
shards, so an edge holds at most one record per ``(d, seq)``.
``EdgeTemporalIndex.probe_keys_sorted`` enforces that on first use;
these tests check that every index the builder, the shard lifecycle and
persistence produce satisfies it.
"""

import numpy as np
import pytest

from repro import SNTIndex, generate_dataset
from repro.config import SECONDS_PER_DAY
from repro.sntindex.sharded import ShardedSNTIndex, load_any_index
from repro.trajectories import TrajectorySet

PARTITION_DAYS = 3


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset("tiny", seed=0)


def _edge_indexes(reader):
    shards = (
        [entry.index for entry in reader.entries]
        if isinstance(reader, ShardedSNTIndex)
        else [reader]
    )
    for shard in shards:
        for edge in list(shard.forest.edges()):
            yield shard.forest.get(edge)


def assert_probe_keys_strictly_increase(reader):
    n_edges = 0
    for phi in _edge_indexes(reader):
        keys = phi.probe_keys_sorted()
        assert keys.size == len(phi)
        assert (np.diff(keys) > 0).all(), f"edge {phi.edge}"
        n_edges += 1
    assert n_edges > 0


def _both(reader, path):
    """The reader in memory, then saved and loaded back."""
    assert_probe_keys_strictly_increase(reader)
    reader.save(path)
    assert_probe_keys_strictly_increase(load_any_index(path))


@pytest.mark.parametrize("partition_days", [None, PARTITION_DAYS])
def test_monolithic_probe_keys_strictly_increase(
    dataset, tmp_path, partition_days
):
    index = SNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        partition_days=partition_days,
    )
    _both(index, tmp_path / "index")


def test_sharded_probe_keys_strictly_increase_through_the_lifecycle(
    dataset, tmp_path
):
    trajectories = list(dataset.trajectories)
    t_min = min(tr.start_time for tr in trajectories)
    window = PARTITION_DAYS * SECONDS_PER_DAY
    buckets = sorted({(tr.start_time - t_min) // window for tr in trajectories})
    cut = buckets[-1]
    base = [tr for tr in trajectories if (tr.start_time - t_min) // window < cut]
    tail = [tr for tr in trajectories if (tr.start_time - t_min) // window >= cut]
    assert base and tail
    sharded = ShardedSNTIndex.build(
        TrajectorySet(base),
        dataset.network.alphabet_size,
        n_shards=3,
        partition_days=PARTITION_DAYS,
    )
    _both(sharded, tmp_path / "sealed")
    sharded.append(tail)
    assert sharded.has_staging
    _both(sharded, tmp_path / "staging")
    sharded.seal_staging()
    assert sharded.compact().did_compact
    _both(sharded, tmp_path / "compacted")


def test_repeated_probe_key_is_rejected_naming_the_edge():
    from repro.errors import IndexError_
    from repro.temporal.forest import TemporalForest

    forest = TemporalForest.from_rows([dict(
        edge=np.full(3, 42),
        t=np.asarray([15, 25, 35]),
        isa=np.asarray([0, 1, 2]),
        d=np.asarray([5, 7, 5]),
        tt=np.asarray([2.0, 2.0, 2.0]),
        a=np.asarray([6.0, 5.0, 8.0]),
        seq=np.asarray([1, 1, 1]),
        w=np.zeros(3, dtype=np.int32),
    )])
    phi = forest.get(42)
    with pytest.raises(IndexError_, match="edge 42"):
        phi.probe_keys_sorted()
