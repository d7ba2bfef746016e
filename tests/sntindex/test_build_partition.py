"""``build_partition`` against a per-trajectory reference.

The builder reads every point in one pass and derives the row columns
with whole-array arithmetic; the reference below is the straightforward
loop — one ``fromiter`` / ``cumsum`` per trajectory — that the rows and
the FM-index's ISA must equal byte for byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmindex import FMIndex
from repro.sntindex.partition import build_partition
from repro.temporal.records import COLUMN_DTYPES
from repro.trajectories import Trajectory, TrajectoryPoint

ALPHABET = 7
#: The rows' dtypes: ``edge`` as the points hold it, the rest as the
#: forest holds them.
COLUMNS = {
    "edge": np.int64,
    **{name: dtype for name, dtype in COLUMN_DTYPES.items() if name != "w"},
}


def reference_partition(trajectories):
    """Rows and ISA of one partition, one trajectory at a time."""
    texts = []
    for trajectory in trajectories:
        texts.append(
            np.fromiter((p.edge for p in trajectory.points), dtype=np.int64)
        )
        texts.append(np.zeros(1, dtype=np.int64))
    text = np.concatenate(texts) if texts else np.zeros(0, dtype=np.int64)
    fm = FMIndex(text, alphabet_size=ALPHABET)
    columns = {name: [] for name in COLUMNS}
    start = 0
    for trajectory in trajectories:
        points = trajectory.points
        n = len(points)
        tt = np.fromiter((p.tt for p in points), dtype=np.float64, count=n)
        columns["edge"].append(
            np.fromiter((p.edge for p in points), dtype=np.int64, count=n)
        )
        columns["t"].append(
            np.fromiter((p.t for p in points), dtype=np.int64, count=n)
        )
        columns["isa"].append(
            fm.isa[start : start + n].astype(COLUMNS["isa"])
        )
        columns["d"].append(
            np.full(n, trajectory.traj_id, dtype=COLUMNS["d"])
        )
        columns["tt"].append(tt)
        columns["a"].append(np.cumsum(tt))
        columns["seq"].append(np.arange(n, dtype=COLUMNS["seq"]))
        start += n + 1
    rows = {
        name: np.concatenate(columns[name] + [np.zeros(0, dtype=dtype)])
        for name, dtype in COLUMNS.items()
    }
    return fm.isa, rows


def assert_matches_reference(trajectories):
    partition, rows = build_partition(3, trajectories, ALPHABET, 10, 20)
    isa, expected = reference_partition(trajectories)
    assert partition.fm.isa.tobytes() == isa.tobytes()
    assert partition.n_trajectories == len(trajectories)
    assert partition.n_traversals == expected["edge"].size
    assert (partition.w, partition.t_lo, partition.t_hi) == (3, 10, 20)
    assert set(rows) == set(COLUMNS)
    for name, dtype in COLUMNS.items():
        assert rows[name].dtype == dtype, name
        assert rows[name].tobytes() == expected[name].tobytes(), name


def trajectory(traj_id, edges, tts, t0=0):
    points = []
    t = t0
    for edge, tt in zip(edges, tts):
        points.append(TrajectoryPoint(edge, t, tt))
        t += 5
    return Trajectory(traj_id, traj_id % 3, points)


@st.composite
def trajectory_lists(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    out = []
    for traj_id in draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=count,
            max_size=count,
            unique=True,
        )
    ):
        length = draw(st.integers(min_value=0, max_value=7))
        edges = draw(
            st.lists(
                st.integers(min_value=1, max_value=ALPHABET - 1),
                min_size=length,
                max_size=length,
            )
        )
        tts = draw(
            st.lists(
                st.sampled_from([0.1, 0.7, 0.2, 0.3, 1.0, 17.0, 1e-3]),
                min_size=length,
                max_size=length,
            )
        )
        out.append(trajectory(traj_id, edges, tts, t0=traj_id * 100))
    return out


@settings(max_examples=120, deadline=None)
@given(trajectory_lists())
def test_property_rows_and_isa_match_reference(trajectories):
    assert_matches_reference(trajectories)


def test_zero_and_one_point_trajectories():
    assert_matches_reference(
        [
            trajectory(4, [1], [0.7]),
            trajectory(2, [], []),
            trajectory(9, [2, 3], [0.1, 0.7]),
            trajectory(1, [5], [0.1]),
            trajectory(7, [], []),
        ]
    )


def test_running_sums_restart_per_trajectory():
    # A running sum over the whole partition minus each trajectory's
    # offset differs from the per-trajectory sum in the last bit here.
    trajectories = [
        trajectory(0, [1], [0.7]),
        trajectory(1, [2, 3, 2, 3], [0.1, 0.7, 0.1, 0.7]),
    ]
    _, rows = build_partition(0, trajectories, ALPHABET, 0, 1)
    tt = rows["tt"]
    shortcut = np.cumsum(tt)
    shortcut[1:] -= shortcut[0]
    assert rows["a"].tolist() == [0.7, 0.1, 0.1 + 0.7, 0.1 + 0.7 + 0.1,
                                  0.1 + 0.7 + 0.1 + 0.7]
    assert rows["a"].tobytes() != shortcut.tobytes()
    assert_matches_reference(trajectories)
