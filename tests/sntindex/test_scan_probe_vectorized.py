"""Property-based equivalence of the vectorized scan/probe stage.

The sorted-key probe join and the O(log n) periodic selection each
replaced a scalar implementation that had been proven against the naive
oracle.  These suites pin the replacements to their scalar predecessors
*bit-identically* (values, dtypes, and emission order — not just sorted
multisets): the dict-based probe loop and the ``np.mod`` full-column
periodic pass are re-implemented here as oracles and must agree exactly
on hypothesis-generated worlds, including empty edges, single-segment
paths, beta cuts, and duplicate ``(d, seq)`` probe keys.

The ``*_many`` forms are loops over the scalar functions, so comparing
the two no longer checks anything independent: the demand-set suites
keep that comparison (item order, per-item arguments) and additionally
hold every non-fallback item to the linear-scan oracle
:func:`repro.core.naive.naive_travel_times`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FixedInterval,
    PeriodicInterval,
    SNTIndex,
    StrictPathQuery,
)
from repro.config import SECONDS_PER_DAY
from repro.core.naive import naive_travel_times
from repro.sntindex.persistence import FORMAT_MINOR, read_meta
from repro.sntindex.procedures import (
    first_segment_matches,
    first_segment_matches_many,
    monolithic_travel_times,
    monolithic_travel_times_many,
    probe_travel_times,
)
from repro.sntindex.sharded import ShardedSNTIndex
from repro.temporal.forest import EdgeTemporalIndex
from repro.temporal.records import TraversalColumns
from repro.trajectories import Trajectory, TrajectoryPoint, TrajectorySet

N_EDGES = 6


# --------------------------------------------------------------------- #
# Scalar oracles (the historical implementations, kept verbatim)
# --------------------------------------------------------------------- #


def dict_probe_oracle(index, query, selected, columns):
    """The pre-join probe: Python dict buildMap + per-candidate loop."""
    l = query.length
    if l == 1:
        values = columns.tt[selected].astype(np.float64, copy=True)
        return values, columns.t[selected]
    first_d = columns.d[selected]
    first_seq = columns.seq[selected]
    diffs = columns.a[selected] - columns.tt[selected]
    probe_map = {
        (int(first_d[i]), int(first_seq[i])): float(diffs[i])
        for i in range(int(selected.size))
    }
    empty = np.empty(0, dtype=np.float64)
    phi_last = index.edge_index(query.path[-1])
    if phi_last is None:
        return empty, np.empty(0, dtype=np.int64)
    last = phi_last.columns
    candidates = np.nonzero(np.isin(last.d, first_d))[0]
    values, order_t = [], []
    for row in candidates:
        key = (int(last.d[row]), int(last.seq[row]) + 1 - l)
        diff = probe_map.get(key)
        if diff is not None:
            values.append(float(last.a[row]) - diff)
            order_t.append(int(last.t[row]))
    return (
        np.asarray(values, dtype=np.float64),
        np.asarray(order_t, dtype=np.int64),
    )


def mod_periodic_oracle(tod, start_tod, duration):
    """The pre-permutation periodic selection: one np.mod full pass."""
    offset = np.mod(tod - (int(start_tod) % SECONDS_PER_DAY),
                    SECONDS_PER_DAY)
    return np.nonzero(offset < duration)[0].astype(np.int64)


def assert_results_identical(got, want):
    assert got.n_matched == want.n_matched
    assert got.from_fallback == want.from_fallback
    assert got.insufficient == want.insufficient
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()


def assert_matches_naive(trajectories, query, exclude, result):
    """The linear-scan oracle knows no speed-limit fallback; every other
    answer must be its multiset of travel times."""
    if result.from_fallback:
        return
    want = naive_travel_times(trajectories, query, exclude_ids=exclude)
    assert sorted(result.values.tolist()) == sorted(want.tolist())


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #


@st.composite
def trajectory_sets(draw):
    """Random sets of 1-12 short trajectories over a 6-edge alphabet."""
    n = draw(st.integers(1, 12))
    trajectories = []
    for traj_id in range(n):
        length = draw(st.integers(1, 5))
        edges = [draw(st.integers(1, N_EDGES)) for _ in range(length)]
        start = draw(st.integers(0, 3 * SECONDS_PER_DAY))
        tts = [draw(st.integers(1, 50)) for _ in range(length)]
        points, t = [], start
        for edge, tt in zip(edges, tts):
            points.append(TrajectoryPoint(edge, t, float(tt)))
            t += tt
        trajectories.append(
            Trajectory(traj_id, draw(st.integers(1, 3)), points)
        )
    return TrajectorySet(trajectories)


@st.composite
def queries(draw):
    length = draw(st.integers(1, 3))
    path = tuple(draw(st.integers(1, N_EDGES)) for _ in range(length))
    if draw(st.booleans()):
        interval = FixedInterval(
            draw(st.integers(0, SECONDS_PER_DAY)),
            draw(st.integers(SECONDS_PER_DAY + 1, 5 * SECONDS_PER_DAY)),
        )
    else:
        interval = PeriodicInterval(
            start_tod=draw(st.integers(0, SECONDS_PER_DAY - 1)),
            duration=draw(st.integers(60, SECONDS_PER_DAY)),
        )
    user = draw(st.sampled_from([None, 1, 2, 3]))
    beta = draw(st.sampled_from([None, 1, 2, 5]))
    return StrictPathQuery(path=path, interval=interval, user=user, beta=beta)


@st.composite
def demand_sets(draw):
    """A small batch of (query, exclude_ids) demand items."""
    n = draw(st.integers(1, 6))
    items = []
    for _ in range(n):
        query = draw(queries())
        exclude = tuple(
            draw(st.lists(st.integers(0, 11), max_size=2, unique=True))
        )
        items.append((query, exclude))
    return items


# --------------------------------------------------------------------- #
# Probe join vs. the dict oracle
# --------------------------------------------------------------------- #


@settings(max_examples=100, deadline=None)
@given(trajectory_sets(), queries())
def test_probe_join_matches_dict_oracle(trajectories, query):
    index = SNTIndex.build(trajectories, alphabet_size=N_EDGES + 1)
    matches = first_segment_matches(index, query, beta=query.beta)
    if matches is None:
        return
    selected, columns = matches
    got_values, got_t = probe_travel_times(index, query, selected, columns)
    want_values, want_t = dict_probe_oracle(index, query, selected, columns)
    assert got_values.tobytes() == want_values.tobytes()
    assert np.array_equal(got_t, want_t)


def test_probe_join_keeps_last_duplicate_key():
    """Duplicate ``(d, seq)`` first-segment keys replicate dict overwrite.

    The real builder never emits duplicates (a trajectory traverses one
    ``seq`` once), so synthetic columns force the case: two matches with
    the same key but different ``a - TT`` — the join must keep the later
    one, exactly as the dict build did.
    """
    first = TraversalColumns.from_arrays(
        t=np.asarray([10, 20, 30]),
        isa=np.asarray([0, 1, 2]),
        d=np.asarray([5, 5, 7]),
        tt=np.asarray([4.0, 6.0, 3.0]),
        a=np.asarray([4.0, 6.0, 3.0]),
        seq=np.asarray([0, 0, 0]),
        w=None,
    )
    last = TraversalColumns.from_arrays(
        t=np.asarray([15, 25, 35]),
        isa=np.asarray([0, 1, 2]),
        d=np.asarray([5, 7, 5]),
        tt=np.asarray([2.0, 2.0, 2.0]),
        a=np.asarray([6.0, 5.0, 8.0]),
        seq=np.asarray([1, 1, 1]),
        w=None,
    )

    class _FakeIndex:
        def __init__(self):
            self._phis = {
                1: EdgeTemporalIndex(first),
                2: EdgeTemporalIndex(last),
            }

        def edge_index(self, edge):
            return self._phis.get(int(edge))

    index = _FakeIndex()
    query = StrictPathQuery(
        path=(1, 2), interval=FixedInterval(0, SECONDS_PER_DAY)
    )
    selected = np.asarray([0, 1, 2], dtype=np.int64)
    got_values, got_t = probe_travel_times(index, query, selected, first)
    want_values, want_t = dict_probe_oracle(index, query, selected, first)
    assert got_values.tobytes() == want_values.tobytes()
    assert np.array_equal(got_t, want_t)
    assert got_values.size == 3


def test_probe_join_duplicate_key_uses_latest_diff():
    """The overwrite is observable when the duplicate diffs differ."""
    first = TraversalColumns.from_arrays(
        t=np.asarray([10, 20]),
        isa=np.asarray([0, 1]),
        d=np.asarray([5, 5]),
        tt=np.asarray([4.0, 1.0]),
        a=np.asarray([4.0, 6.0]),  # diffs: 0.0 then 5.0 — keep 5.0
        seq=np.asarray([0, 0]),
        w=None,
    )
    last = TraversalColumns.from_arrays(
        t=np.asarray([15]),
        isa=np.asarray([0]),
        d=np.asarray([5]),
        tt=np.asarray([2.0]),
        a=np.asarray([9.0]),
        seq=np.asarray([1]),
        w=None,
    )

    class _FakeIndex:
        def __init__(self):
            self._phis = {
                1: EdgeTemporalIndex(first),
                2: EdgeTemporalIndex(last),
            }

        def edge_index(self, edge):
            return self._phis.get(int(edge))

    index = _FakeIndex()
    query = StrictPathQuery(
        path=(1, 2), interval=FixedInterval(0, SECONDS_PER_DAY)
    )
    selected = np.asarray([0, 1], dtype=np.int64)
    got_values, got_t = probe_travel_times(index, query, selected, first)
    want_values, want_t = dict_probe_oracle(index, query, selected, first)
    assert got_values.tolist() == [4.0]  # 9.0 - 5.0, the later diff
    assert got_values.tobytes() == want_values.tobytes()
    assert np.array_equal(got_t, want_t)


# --------------------------------------------------------------------- #
# Periodic selection vs. the np.mod oracle
# --------------------------------------------------------------------- #


@st.composite
def edge_timestamps(draw):
    n = draw(st.integers(0, 60))
    return [draw(st.integers(0, 5 * SECONDS_PER_DAY)) for _ in range(n)]


def _edge_index_over(timestamps, kind="css"):
    n = len(timestamps)
    columns = TraversalColumns.from_arrays(
        t=np.asarray(timestamps, dtype=np.int64),
        isa=np.arange(n),
        d=np.arange(n),
        tt=np.ones(n),
        a=np.ones(n),
        seq=np.zeros(n, dtype=np.int64),
        w=None,
    )
    return EdgeTemporalIndex(columns, kind=kind)


@settings(max_examples=150, deadline=None)
@given(
    edge_timestamps(),
    st.integers(0, SECONDS_PER_DAY - 1),
    st.integers(1, SECONDS_PER_DAY),
)
def test_periodic_rows_match_mod_oracle(timestamps, start_tod, duration):
    phi = _edge_index_over(timestamps)
    got = phi.rows_periodic(start_tod, duration)
    want = mod_periodic_oracle(
        np.mod(phi.columns.t, SECONDS_PER_DAY), start_tod, duration
    )
    assert np.array_equal(got, want)
    assert got.dtype == np.int64
    assert phi.count_periodic(start_tod, duration) == want.size


@settings(max_examples=60, deadline=None)
@given(
    edge_timestamps(),
    st.lists(
        st.tuples(
            st.integers(0, SECONDS_PER_DAY - 1),
            st.integers(1, SECONDS_PER_DAY),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_periodic_rows_many_match_scalar(timestamps, windows):
    phi = _edge_index_over(timestamps)
    starts = [start for start, _ in windows]
    durations = [duration for _, duration in windows]
    got = phi.rows_periodic_many(starts, durations)
    for rows, (start, duration) in zip(got, windows):
        assert np.array_equal(rows, phi.rows_periodic(start, duration))


@settings(max_examples=60, deadline=None)
@given(
    edge_timestamps(),
    st.lists(
        st.tuples(
            st.integers(0, 6 * SECONDS_PER_DAY),
            st.integers(0, 6 * SECONDS_PER_DAY),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_fixed_rows_many_match_scalar(timestamps, bounds):
    phi = _edge_index_over(timestamps)
    los = [lo for lo, _ in bounds]
    his = [hi for _, hi in bounds]
    got = phi.rows_fixed_many(los, his)
    for rows, (lo, hi) in zip(got, bounds):
        assert np.array_equal(rows, phi.rows_fixed(lo, hi))


@settings(max_examples=40, deadline=None)
@given(
    edge_timestamps(),
    st.integers(0, SECONDS_PER_DAY - 1),
    st.integers(1, SECONDS_PER_DAY),
)
def test_periodic_btree_unchanged_by_permutations(
    timestamps, start_tod, duration
):
    css = _edge_index_over(timestamps, kind="css")
    btree = _edge_index_over(timestamps, kind="btree")
    assert np.array_equal(
        np.sort(css.rows_periodic(start_tod, duration)),
        np.sort(btree.rows_periodic(start_tod, duration)),
    )
    assert css.count_periodic(start_tod, duration) == btree.count_periodic(
        start_tod, duration
    )


# --------------------------------------------------------------------- #
# Demand sets vs. the per-query scalar loop and the naive oracle
# --------------------------------------------------------------------- #


def _fallback(edge):
    return 1.5 * edge + 0.25


@settings(max_examples=60, deadline=None)
@given(trajectory_sets(), demand_sets())
def test_grouped_monolithic_matches_scalar_loop(trajectories, demands):
    index = SNTIndex.build(trajectories, alphabet_size=N_EDGES + 1)
    items = [(query, exclude, None) for query, exclude in demands]
    got = monolithic_travel_times_many(index, items, fallback_tt=_fallback)
    for (query, exclude), result in zip(demands, got):
        want = monolithic_travel_times(
            index, query, fallback_tt=_fallback, exclude_ids=exclude
        )
        assert_results_identical(result, want)
        assert_matches_naive(trajectories, query, exclude, result)


@settings(max_examples=40, deadline=None)
@given(trajectory_sets(), demand_sets())
def test_grouped_first_segment_matches_scalar(trajectories, demands):
    index = SNTIndex.build(
        trajectories, alphabet_size=N_EDGES + 1, partition_days=1
    )
    items = [
        (query, exclude, query.beta, None) for query, exclude in demands
    ]
    got = first_segment_matches_many(index, items)
    for (query, exclude), match in zip(demands, got):
        want = first_segment_matches(
            index, query, exclude_ids=exclude, beta=query.beta
        )
        if want is None:
            assert match is None
        else:
            assert match is not None
            assert np.array_equal(match[0], want[0])
            assert match[1] is want[1]


@settings(max_examples=30, deadline=None)
@given(trajectory_sets(), demand_sets())
def test_grouped_sharded_matches_scalar_and_monolithic(
    trajectories, demands
):
    monolithic = SNTIndex.build(
        trajectories, alphabet_size=N_EDGES + 1, partition_days=1
    )
    sharded = ShardedSNTIndex.build(
        trajectories,
        alphabet_size=N_EDGES + 1,
        n_shards=2,
        partition_days=1,
    )
    items = [(query, exclude, None) for query, exclude in demands]
    got = sharded.get_travel_times_many(items, fallback_tt=_fallback)
    for (query, exclude), result in zip(demands, got):
        scalar = sharded.get_travel_times(
            query, fallback_tt=_fallback, exclude_ids=exclude
        )
        assert_results_identical(result, scalar)
        want = monolithic.get_travel_times(
            query, fallback_tt=_fallback, exclude_ids=exclude
        )
        assert_results_identical(result, want)
        assert_matches_naive(trajectories, query, exclude, result)


# --------------------------------------------------------------------- #
# Persistence: v2.0 compatibility and v2.1 zero-copy adoption
# --------------------------------------------------------------------- #


def _reaches_memmap(array):
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


def _small_world():
    trajectories = []
    for traj_id in range(8):
        edges = [1 + (traj_id + k) % N_EDGES for k in range(3)]
        points, t = [], 1000 * traj_id
        for k, edge in enumerate(edges):
            points.append(TrajectoryPoint(edge, t, 10.0 + k))
            t += 10 + k
        trajectories.append(Trajectory(traj_id, 1 + traj_id % 3, points))
    return TrajectorySet(trajectories)


def _some_queries():
    return [
        StrictPathQuery(
            path=(1, 2, 3), interval=FixedInterval(0, 10 * SECONDS_PER_DAY)
        ),
        StrictPathQuery(
            path=(2,), interval=PeriodicInterval(start_tod=0, duration=3600)
        ),
        StrictPathQuery(
            path=(3, 4),
            interval=PeriodicInterval(
                start_tod=SECONDS_PER_DAY - 600, duration=1800
            ),
            beta=3,
        ),
    ]


def test_v21_dir_adopts_permutations_zero_copy(tmp_path):
    index = SNTIndex.build(
        _small_world(), alphabet_size=N_EDGES + 1, partition_days=1
    )
    target = tmp_path / "idx"
    index.save(target)
    meta = read_meta(target)
    assert meta["format_minor"] == FORMAT_MINOR
    assert (target / "payload" / "perm_tod.npy").is_file()
    assert (target / "payload" / "perm_probe.npy").is_file()

    loaded = SNTIndex.load(target)
    for query in _some_queries():
        want = index.get_travel_times(query)
        got = loaded.get_travel_times(query)
        assert_results_identical(got, want)
    # Any traversed edge adopted both orders from the mapped payload.
    edge = next(iter(loaded.forest.edges()))
    phi = loaded.forest.get(edge)
    assert phi.tod_order_adopted and phi.probe_order_adopted
    assert _reaches_memmap(phi.tod_order)
    assert _reaches_memmap(phi.probe_order)
    # ... as plain read-only ndarray views of the map: a np.memmap
    # instance would run Python-level __getitem__/__array_finalize__ on
    # every slice and fancy index of the scan.
    columns = phi.columns
    for array in (
        phi.tod_order, phi.probe_order, columns.t, columns.isa, columns.d,
        columns.tt, columns.a, columns.seq, columns.w,
    ):
        assert type(array) is np.ndarray
        assert not array.flags.writeable
        assert _reaches_memmap(array)


def test_v20_dir_without_permutations_still_answers(tmp_path):
    index = SNTIndex.build(
        _small_world(), alphabet_size=N_EDGES + 1, partition_days=1
    )
    target = tmp_path / "idx"
    index.save(target)
    (target / "payload" / "perm_tod.npy").unlink()
    (target / "payload" / "perm_probe.npy").unlink()

    loaded = SNTIndex.load(target)
    for query in _some_queries():
        want = index.get_travel_times(query)
        got = loaded.get_travel_times(query)
        assert_results_identical(got, want)
    edge = next(iter(loaded.forest.edges()))
    phi = loaded.forest.get(edge)
    # Orders were rebuilt lazily, not adopted — and still answer right.
    assert not phi.tod_order_adopted and not phi.probe_order_adopted
    assert np.array_equal(
        phi.tod_order, np.argsort(np.mod(phi.columns.t, SECONDS_PER_DAY),
                                  kind="stable")
    )


def test_corrupt_permutation_length_is_rejected(tmp_path):
    from repro.errors import PersistenceError

    index = SNTIndex.build(
        _small_world(), alphabet_size=N_EDGES + 1, partition_days=1
    )
    target = tmp_path / "idx"
    index.save(target)
    np.save(
        target / "payload" / "perm_tod.npy", np.zeros(3, dtype=np.int64)
    )
    with pytest.raises(PersistenceError, match="perm_tod"):
        SNTIndex.load(target)
