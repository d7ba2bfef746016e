"""Tests for leaf records and the temporal forest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SECONDS_PER_DAY
from repro.temporal import EdgeTemporalIndex, TemporalForest, TraversalColumns


def make_rows(edges, ts, w=0, tts=None):
    """One ``from_rows`` chunk: rows in the given (unsorted) order."""
    edges = np.asarray(edges, dtype=np.int64)
    n = edges.size
    return {
        "edge": edges,
        "t": np.asarray(ts, dtype=np.int64),
        "isa": np.arange(n),
        "d": np.arange(n) % 7,
        "tt": np.full(n, 5.0) if tts is None else np.asarray(tts),
        "a": np.arange(n) * 5.0,
        "seq": np.arange(n, dtype=np.int32),
        "w": np.full(n, w, dtype=np.int32),
    }


def make_index(ts, kind="css", tts=None):
    """One edge's temporal index over timestamps ``ts``, built through
    the forest (an edge with no rows when ``ts`` is empty)."""
    if not len(ts):
        forest = TemporalForest(
            kind, np.zeros(1, dtype=np.int64), np.zeros(2, dtype=np.int64),
            TraversalColumns.empty(),
        )
    else:
        rows = make_rows(np.zeros(len(ts)), ts, tts=tts)
        forest = TemporalForest.from_rows([rows], kind=kind)
    return forest.get(0)


def make_columns(ts, tts=None):
    """One edge's columns over timestamps ``ts``, sorted by time."""
    return make_index(ts, tts=tts).columns


class TestTraversalColumns:
    def test_from_rows_sorts_an_edge_by_time(self):
        columns = make_columns([30, 10, 20])
        assert columns.t.tolist() == [10, 20, 30]
        # isa column permuted consistently
        assert columns.isa.tolist() == [1, 2, 0]

    def test_record_view(self):
        columns = make_columns([10, 20])
        record = columns.record(0)
        assert record.t == 10
        assert record.tt == 5.0
        assert record.w == 0

    def test_iteration(self):
        columns = make_columns([10, 20, 30])
        assert len(list(columns)) == 3

    def test_validate_catches_nonpositive_tt(self):
        columns = make_columns([10, 20], tts=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            columns.validate()

    def test_validate_catches_length_mismatch(self):
        columns = make_columns([10, 20])
        columns.isa = np.arange(3)
        with pytest.raises(ValueError):
            columns.validate()

    def test_empty(self):
        columns = TraversalColumns.empty()
        assert len(columns) == 0
        columns.validate()

    def test_size_model_partition_flag(self):
        columns = make_columns([1, 2, 3])
        assert columns.size_in_bytes(True) == columns.size_in_bytes(False) + 6


class TestEdgeTemporalIndex:
    @pytest.fixture(params=["css", "btree"])
    def kind(self, request):
        return request.param

    def test_rows_fixed(self, kind):
        index = make_index([10, 20, 30, 40], kind=kind)
        assert index.rows_fixed(15, 35).tolist() == [1, 2]
        assert index.rows_fixed(0, 100).tolist() == [0, 1, 2, 3]
        assert index.rows_fixed(41, 100).tolist() == []
        assert index.rows_fixed(30, 30).tolist() == []

    def test_rows_fixed_empty_index(self, kind):
        index = make_index([], kind=kind)
        assert index.rows_fixed(0, 100).size == 0

    def test_count_fixed(self, kind):
        index = make_index([10, 10, 20, 30], kind=kind)
        assert index.count_fixed(10, 21) == 3

    def test_rows_periodic_basic(self, kind):
        # Two traversals at 08:00 on days 0 and 1; one at 20:00 on day 0.
        eight, twenty = 8 * 3600, 20 * 3600
        ts = [eight, twenty, SECONDS_PER_DAY + eight]
        index = make_index(ts, kind=kind)
        rows = index.rows_periodic(eight - 900, 1800)
        assert rows.tolist() == [0, 2]

    def test_rows_periodic_midnight_wrap(self, kind):
        # Window 23:30-00:30 wraps past midnight.  Columns are stored
        # sorted by t: noon (row 0), 23:31 (row 1), next-day 00:10 (row 2).
        ts = [
            23 * 3600 + 1800 + 60,  # day 0, 23:31
            SECONDS_PER_DAY + 600,  # day 1, 00:10
            12 * 3600,  # day 0 noon: outside
        ]
        index = make_index(ts, kind=kind)
        rows = index.rows_periodic(23 * 3600 + 1800, 3600)
        assert sorted(rows.tolist()) == [1, 2]

    def test_rows_periodic_full_day(self, kind):
        index = make_index([5, 500, 50_000], kind=kind)
        assert index.rows_periodic(0, SECONDS_PER_DAY).tolist() == [0, 1, 2]
        assert index.rows_periodic(1234, 2 * SECONDS_PER_DAY).tolist() == [0, 1, 2]

    def test_rows_periodic_zero_duration(self, kind):
        index = make_index([5], kind=kind)
        assert index.rows_periodic(0, 0).size == 0

    def test_rows_ascending_by_time(self, kind):
        rng = np.random.default_rng(3)
        ts = rng.integers(0, 10 * SECONDS_PER_DAY, size=200)
        index = make_index(ts, kind=kind)
        rows = index.rows_periodic(3600, 7200)
        times = index.columns.t[rows]
        assert np.all(np.diff(times) >= 0)

    def test_supports_fast_count(self):
        assert make_index([1], kind="css").supports_fast_count
        assert not make_index([1], kind="btree").supports_fast_count

    def test_unknown_kind(self):
        order = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            EdgeTemporalIndex(make_columns([1]), order, order, kind="hash")


def test_css_and_btree_agree_on_periodic_scans():
    rng = np.random.default_rng(17)
    ts = np.sort(rng.integers(0, 30 * SECONDS_PER_DAY, size=500))
    css = make_index(ts, kind="css")
    btree = make_index(ts, kind="btree")
    for start, duration in [(0, 3600), (8 * 3600, 1800), (23 * 3600, 7200)]:
        css_rows = set(css.rows_periodic(start, duration).tolist())
        bt_rows = set(btree.rows_periodic(start, duration).tolist())
        assert css_rows == bt_rows


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5 * SECONDS_PER_DAY), min_size=1, max_size=80),
    st.integers(0, SECONDS_PER_DAY - 1),
    st.integers(1, SECONDS_PER_DAY),
)
def test_property_periodic_scan_matches_model(ts, start_tod, duration):
    index = make_index(np.sort(np.asarray(ts)), kind="css")
    columns = index.columns
    rows = set(index.rows_periodic(start_tod, duration).tolist())
    expected = {
        i
        for i, t in enumerate(columns.t.tolist())
        if (t - start_tod) % SECONDS_PER_DAY < duration
    }
    assert rows == expected


class TestTemporalForest:
    def test_build_and_lookup(self):
        forest = TemporalForest.from_rows(
            [make_rows([5, 1, 1], [30, 20, 10])], kind="css"
        )
        assert len(forest) == 2
        assert 1 in forest and 5 in forest and 3 not in forest
        assert forest.get(3) is None
        assert forest.total_records() == 3
        assert forest.get(1).columns.t.tolist() == [10, 20]
        assert forest.edge_ids.tolist() == [1, 5]
        assert forest.offsets.tolist() == [0, 2, 3]

    def test_edges_iteration(self):
        forest = TemporalForest.from_rows([make_rows([2], [1])])
        assert list(forest.edges()) == [2]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TemporalForest.from_rows([make_rows([2], [1])], kind="lsm")

    def test_size_in_bytes_positive(self):
        forest = TemporalForest.from_rows(
            [make_rows([1] * 50, list(range(50)))]
        )
        assert forest.size_in_bytes() > 0

    @pytest.mark.parametrize("t_scale", [1, 1 << 30])
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 40)),
            min_size=1,
            max_size=60,
        ),
        split=st.integers(0, 60),
    )
    def test_rows_sort_stably_by_edge_then_time(self, t_scale, rows, split):
        """Equal ``(edge, t)`` rows keep their chunk order, for the
        packed sort key and for spans too wide to pack alike."""
        edges = [edge for edge, _ in rows]
        ts = [t * t_scale for _, t in rows]
        chunks = [
            make_rows(edges[:split], ts[:split], w=0),
            make_rows(edges[split:], ts[split:], w=1),
        ]
        forest = TemporalForest.from_rows(chunks)
        ranks = [(edges[i], ts[i], i) for i in range(len(rows))]
        expected = [i for _, _, i in sorted(ranks)]
        # make_rows numbers each chunk's rows from 0 in ``seq``.
        seq = [i if i < split else i - split for i in expected]
        assert forest.columns.t.tolist() == [ts[i] for i in expected]
        assert forest.columns.seq.tolist() == seq
        assert forest.row_edges().tolist() == [edges[i] for i in expected]
        assert forest.columns.w.tolist() == [
            int(i >= split) for i in expected
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 5 * SECONDS_PER_DAY),
                st.integers(0, 9),
            ),
            min_size=1,
            max_size=80,
            unique_by=lambda row: (row[0], row[2]),
        )
    )
    def test_permutations_equal_each_edges_own_sorts(self, rows):
        edges, ts, ds = (list(column) for column in zip(*rows))
        chunk = make_rows(edges, ts)
        chunk["d"] = np.asarray(ds, dtype=np.int64)
        forest = TemporalForest.from_rows([chunk])
        for i, edge in enumerate(forest.edge_ids.tolist()):
            lo, hi = forest.offsets[i], forest.offsets[i + 1]
            phi = forest.get(edge)
            tod = np.mod(phi.columns.t, SECONDS_PER_DAY)
            keys = (phi.columns.d.astype(np.int64) << 32) + phi.columns.seq
            assert phi.tod_order.tolist() == np.argsort(
                tod, kind="stable"
            ).tolist() == forest.perm_tod[lo:hi].tolist()
            assert phi.probe_order.tolist() == np.argsort(
                keys, kind="stable"
            ).tolist() == forest.perm_probe[lo:hi].tolist()

    def test_time_bounds_read_each_edges_first_and_last_t(self):
        forest = TemporalForest.from_rows(
            [make_rows([3, 1, 3, 1], [50, 7, 4, 90])]
        )
        assert forest.time_bounds() == (4, 90)
