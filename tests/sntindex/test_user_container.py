"""The associative container ``U: d -> u`` distinguishes unknown ids
from gaps (ISSUE 1 satellite fix).

``U`` is a dense array over ``[0, max id]`` initialised to ``-1``; an id
inside the range that no trajectory used is a *gap*, not an unknown id.
``user_of`` must tell the two apart instead of returning the ``-1``
sentinel or raising one blanket error.
"""

import pytest

from repro import ShardedSNTIndex, SNTIndex
from repro.errors import (
    IndexError_,
    MissingUserError,
    ShardError,
    TrajectoryError,
    UnknownTrajectoryError,
)
from repro.trajectories import Trajectory, TrajectoryPoint, TrajectorySet

A, B, E = 1, 2, 5


@pytest.fixture(scope="module")
def gappy_index():
    """Ids 0 and 3 exist; 1 and 2 are gaps inside the dense id space."""
    trajectories = TrajectorySet(
        [
            Trajectory(0, 7, [TrajectoryPoint(A, 0, 3.0), TrajectoryPoint(B, 3, 4.0)]),
            Trajectory(3, 9, [TrajectoryPoint(A, 6, 3.0), TrajectoryPoint(E, 9, 4.0)]),
        ]
    )
    return SNTIndex.build(trajectories, alphabet_size=7)


def test_known_ids_resolve(gappy_index):
    assert gappy_index.user_of(0) == 7
    assert gappy_index.user_of(3) == 9


def test_out_of_range_id_is_unknown(gappy_index):
    with pytest.raises(UnknownTrajectoryError) as excinfo:
        gappy_index.user_of(4)
    assert excinfo.value.traj_id == 4
    with pytest.raises(UnknownTrajectoryError):
        gappy_index.user_of(-1)


def test_gap_id_has_no_user(gappy_index):
    with pytest.raises(MissingUserError) as excinfo:
        gappy_index.user_of(1)
    assert excinfo.value.traj_id == 1
    with pytest.raises(MissingUserError):
        gappy_index.user_of(2)


def test_both_errors_remain_index_errors(gappy_index):
    """Callers catching the old blanket ``IndexError_`` keep working."""
    for bad_id in (-5, 1, 99):
        with pytest.raises(IndexError_):
            gappy_index.user_of(bad_id)


def test_has_trajectory(gappy_index):
    assert gappy_index.has_trajectory(0)
    assert gappy_index.has_trajectory(3)
    assert not gappy_index.has_trajectory(1)
    assert not gappy_index.has_trajectory(2)
    assert not gappy_index.has_trajectory(4)
    assert not gappy_index.has_trajectory(-1)


def test_gap_survives_save_load(gappy_index, tmp_path):
    gappy_index.save(tmp_path / "index")
    loaded = SNTIndex.load(tmp_path / "index")
    assert loaded.user_of(0) == 7
    with pytest.raises(MissingUserError):
        loaded.user_of(1)
    with pytest.raises(UnknownTrajectoryError):
        loaded.user_of(4)


# --------------------------------------------------------------------- #
# Negative ids are rejected before anything is built
# --------------------------------------------------------------------- #

DAY = 86_400


def _trip(traj_id, user_id, day):
    t0 = day * DAY
    return Trajectory(
        traj_id,
        user_id,
        [TrajectoryPoint(A, t0, 3.0), TrajectoryPoint(B, t0 + 3, 4.0)],
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        (_trip(-1, 99, 1), "negative trajectory id -1"),
        (_trip(6, -1, 1), "trajectory 6 has negative user id -1"),
    ],
)
def test_build_rejects_negative_ids(bad, message):
    # Before the check, ids {5 -> 50, -1 -> 99} built a U in which
    # user_of(5) read 99: U[-1] is U's last slot.
    trajectories = TrajectorySet([_trip(5, 50, 0), bad])
    with pytest.raises(TrajectoryError, match=message):
        SNTIndex.build(trajectories, alphabet_size=7)
    with pytest.raises(TrajectoryError, match=message):
        ShardedSNTIndex.build(trajectories, alphabet_size=7, partition_days=1)


@pytest.fixture
def sharded():
    base = TrajectorySet(
        [_trip(i, 10 + i, day) for i, day in enumerate((0, 2, 8, 9))]
    )
    return ShardedSNTIndex.build(
        base, alphabet_size=7, n_shards=2, partition_days=7
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        (_trip(-1, 99, 20), "negative trajectory id -1"),
        (_trip(8, -1, 20), "trajectory 8 has negative user id -1"),
    ],
)
def test_append_rejects_negative_ids_and_leaves_the_index_alone(
    sharded, bad, message
):
    before = (
        sharded.epoch,
        sharded.n_shards,
        sharded.n_partitions,
        sharded.t_max,
        sharded.build_stats.n_trajectories,
    )
    with pytest.raises(TrajectoryError, match=message):
        sharded.append([bad])
    after = (
        sharded.epoch,
        sharded.n_shards,
        sharded.n_partitions,
        sharded.t_max,
        sharded.build_stats.n_trajectories,
    )
    assert after == before
    assert not sharded.has_trajectory(bad.traj_id)


def test_rejected_user_does_not_free_its_id_twice(sharded):
    # A trajectory with user -1 used to read has_trajectory() == False
    # once indexed, so the same id could be appended a second time.
    with pytest.raises(TrajectoryError):
        sharded.append([_trip(8, -1, 20)])
    assert sharded.append([_trip(8, 18, 20)]) == 1
    assert sharded.user_of(8) == 18
    with pytest.raises(ShardError, match="already indexed"):
        sharded.append([_trip(8, 19, 21)])
