"""Session facade tests: `open_db`, query/query_many/stream equivalence,
result wire form, and the removal of the PR-3 legacy surfaces.

The acceptance property (ISSUE 3, extended by ISSUE 5): for random
workloads, ``db.query_many(reqs)``, ``list(db.stream(reqs))`` and a
sequential ``db.query`` loop produce bit-identical histograms / means /
demand counts, and every request survives its wire form round trip.  A scan count is per fetch demand
since ISSUE 18 — one for a sub-query's whole widen-ladder walk, on every
surface compared here — so the equalities hold in the new unit.
"""

import warnings

import numpy as np
import pytest

from repro import (
    EngineConfig,
    EstimatorMode,
    SNTIndex,
    StrictPathQuery,
    TravelTimeDB,
    TripQueryResult,
    TripRequest,
    generate_dataset,
    open_db,
)
from repro.core.intervals import FixedInterval, PeriodicInterval
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def world():
    dataset = generate_dataset("tiny", seed=3)
    index = SNTIndex.build(
        dataset.trajectories, dataset.network.alphabet_size
    )
    return dataset, index


def random_requests(dataset, index, seed, n=12, estimator=None):
    """A random mixed workload: periodic + fixed intervals, user filters,
    exclusions, varying beta."""
    rng = np.random.default_rng(seed)
    eligible = [t for t in dataset.trajectories if len(t) >= 4]
    chosen = rng.choice(len(eligible), size=min(n, len(eligible)),
                        replace=False)
    requests = []
    for position in chosen:
        trip = eligible[int(position)]
        length = int(rng.integers(2, min(len(trip), 8)))
        if rng.random() < 0.5:
            interval = PeriodicInterval.around(
                trip.start_time, int(rng.choice((900, 1800)))
            )
        else:
            interval = FixedInterval(0, index.t_max)
        requests.append(
            TripRequest(
                path=trip.path[:length],
                interval=interval,
                user=trip.user_id if rng.random() < 0.3 else None,
                exclude_ids=(trip.traj_id,) if rng.random() < 0.5 else (),
                beta=int(rng.choice((5, 10, 20))) if rng.random() < 0.7
                else None,
                estimator=estimator,
            )
        )
    return requests


def assert_bit_identical(actual, expected):
    assert len(actual) == len(expected)
    for result, reference in zip(actual, expected):
        assert result.histogram == reference.histogram
        assert result.estimated_mean == reference.estimated_mean
        assert result.n_index_scans == reference.n_index_scans
        assert result.n_estimator_skips == reference.n_estimator_skips
        assert len(result.outcomes) == len(reference.outcomes)
        for out_actual, out_expected in zip(
            result.outcomes, reference.outcomes
        ):
            assert np.array_equal(out_actual.values, out_expected.values)


class TestOpenDb:
    def test_from_reader_and_from_saved_path_agree(self, world, tmp_path):
        dataset, index = world
        index.save(tmp_path / "idx")
        in_memory = open_db(index, network=dataset.network)
        from_disk = open_db(str(tmp_path / "idx"), network=dataset.network)
        requests = random_requests(dataset, index, seed=1, n=4)
        assert_bit_identical(
            from_disk.query_many(requests), in_memory.query_many(requests)
        )

    def test_network_loadable_from_path(self, world, tmp_path):
        from repro.network import save_network

        dataset, index = world
        save_network(dataset.network, tmp_path / "network.json")
        db = open_db(index, network=tmp_path / "network.json")
        request = random_requests(dataset, index, seed=2, n=1)[0]
        assert db.query(request).histogram is not None

    def test_context_manager_clears_cache(self, world):
        dataset, index = world
        request = random_requests(dataset, index, seed=4, n=1)[0]
        with open_db(index, network=dataset.network) as db:
            db.query(request)
            assert db.cache_stats().ranges.size > 0
        assert db.cache_stats().ranges.size == 0

    def test_close_leaves_caller_provided_cache_warm(self, world):
        from repro import SubQueryCache

        dataset, index = world
        shared = SubQueryCache()
        request = random_requests(dataset, index, seed=15, n=1)[0]
        with open_db(index, network=dataset.network, cache=shared) as db:
            db.query(request)
            warm_entries = db.cache_stats().ranges.size
            assert warm_entries > 0
        # The shared cache outlives the session: another session over
        # the same index may still be serving warm hits from it.
        assert shared.stats().ranges.size == warm_entries

    def test_missing_network_fails_fast(self, world):
        _, index = world
        with pytest.raises(ConfigurationError, match="network"):
            open_db(index)

    def test_missing_network_rejected_before_index_load(
        self, world, tmp_path
    ):
        # The check must fire before load_any_index touches disk: the
        # path doesn't even exist, yet the error is about the network.
        with pytest.raises(ConfigurationError, match="network"):
            open_db(tmp_path / "never-created-index")

    def test_rejects_non_request(self, world):
        from repro.errors import RequestValidationError

        dataset, index = world
        db = open_db(index, network=dataset.network)
        spq = StrictPathQuery(path=(1,), interval=FixedInterval(0, 10))
        with pytest.raises(RequestValidationError, match="TripRequest"):
            db.query(spq)

    def test_repr_mentions_configuration(self, world):
        dataset, index = world
        db = open_db(
            index, network=dataset.network,
            config=EngineConfig(partitioner="pi_1"),
        )
        assert "pi_1" in repr(db)
        assert isinstance(db, TravelTimeDB)

    def test_repr_reports_the_sessions_cache_not_the_spec(self, world):
        """The text follows the cache the session holds: ``cache=None``
        under the default ``"memory"`` spec is off, and a cache handed
        in under an ``"off"`` spec is memory."""
        from repro import SubQueryCache

        dataset, index = world
        no_cache = open_db(index, network=dataset.network, cache=None)
        assert no_cache.config.cache == "memory"
        assert "cache='off'" in repr(no_cache)
        given = open_db(
            index,
            network=dataset.network,
            config=EngineConfig(cache="off"),
            cache=SubQueryCache(),
        )
        assert "cache='memory'" in repr(given)


class TestRoundTripProperty:
    """The ISSUE 3 acceptance property over several random workloads."""

    @pytest.mark.parametrize("seed", (11, 23, 47))
    def test_query_many_stream_and_dedup_bit_identical(self, world, seed):
        dataset, index = world
        requests = random_requests(dataset, index, seed=seed)

        # Fresh session per surface: every surface starts on an empty
        # cache.
        config = EngineConfig(partitioner="pi_Z")

        def session():
            return open_db(index, network=dataset.network, config=config)

        sequential = session()
        via_loop = [sequential.query(request) for request in requests]
        dedup_db = session()
        via_dedup = dedup_db.query_many(requests)
        # One window holding the whole workload is the same batch.
        via_stream = list(session().stream(iter(requests), window=64))

        assert_bit_identical(via_stream, via_dedup)
        # A batch may shift *which* trip pays a shared scan (the first
        # demander in round order, not in submission order), so per
        # result only the scans+hits sum is pinned — the answers and
        # outcomes stay byte-identical.
        for result, reference in zip(via_dedup, via_loop):
            assert result.histogram == reference.histogram
            assert result.estimated_mean == reference.estimated_mean
            assert result.n_estimator_skips == reference.n_estimator_skips
            assert (
                result.n_index_scans + result.n_cache_hits
                == reference.n_index_scans + reference.n_cache_hits
            )
            assert len(result.outcomes) == len(reference.outcomes)
            for out_actual, out_expected in zip(
                result.outcomes, reference.outcomes
            ):
                assert out_actual.query == out_expected.query
                assert np.array_equal(
                    out_actual.values, out_expected.values
                )
        stats = dedup_db.last_dedup_stats
        assert stats.n_trips == len(requests)
        # Executor accounting vs. per-result counters: every demand
        # resumes exactly once, as a scan or as a hit.
        assert stats.planned_subqueries == sum(
            r.n_index_scans + r.n_cache_hits for r in via_dedup
        )
        assert stats.n_index_scans == sum(
            r.n_index_scans for r in via_dedup
        )

        for request in requests:
            assert TripRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize(
        "estimator, window",
        (
            pytest.param(None, 3, id="None"),
            pytest.param("CSS-Fast", 3, id="CSS-Fast"),
            # The default window: several chunks over the workload.
            pytest.param(None, None, id="shared-fanout"),
        ),
    )
    def test_fanout_matches_sequential(self, world, estimator, window):
        """Every batch surface — one ``query_many`` batch, a windowed
        ``stream`` — answers as the sequential per-request loop does."""
        dataset, index = world
        requests = random_requests(
            dataset, index, seed=99, estimator=estimator
        )
        config = EngineConfig()
        uncached = open_db(
            index, network=dataset.network, cache=None, config=config
        )
        per_request = [uncached.query(request) for request in requests]
        batched = open_db(
            index, network=dataset.network, config=config
        ).query_many(requests)
        stream_db = open_db(index, network=dataset.network, config=config)
        streamed = list(
            stream_db.stream(requests)
            if window is None
            else stream_db.stream(requests, window=window)
        )
        # Which trip of a batch pays a shared scan differs from the
        # loop, so per result only the scans + hits sum is pinned.
        for results in (batched, streamed):
            assert [r.request for r in results] == requests
            for result, reference in zip(results, per_request):
                assert result.histogram == reference.histogram
                assert result.estimated_mean == reference.estimated_mean
                assert (
                    result.n_index_scans + result.n_cache_hits
                    == reference.n_index_scans + reference.n_cache_hits
                )


class TestStreaming:
    def test_results_carry_request_backrefs_in_order(self, world):
        dataset, index = world
        requests = random_requests(dataset, index, seed=5, n=6)
        db = open_db(index, network=dataset.network)
        for surface in (
            db.query_many(requests),
            list(db.stream(requests, window=3)),
        ):
            assert [r.request for r in surface] == requests

    def test_stream_is_lazy_and_bounded(self, world):
        dataset, index = world
        base = random_requests(dataset, index, seed=6, n=3)
        db = open_db(index, network=dataset.network)
        consumed = []

        def producer():
            for request in base:
                consumed.append(request)
                yield request

        stream = db.stream(producer(), window=1)
        assert consumed == []  # nothing pulled before iteration
        first = next(stream)
        assert first.request is base[0]
        assert len(consumed) == 1  # a window of one pulls one at a time
        stream.close()

    def test_stream_window_backpressure(self, world):
        dataset, index = world
        base = random_requests(dataset, index, seed=7, n=8)
        db = open_db(index, network=dataset.network)
        consumed = []

        def producer():
            for request in base:
                consumed.append(request)
                yield request

        stream = db.stream(producer(), window=2)
        first = next(stream)
        assert first.request is base[0]
        # With a window of 2, exactly one window has been pulled from
        # the producer after one result is consumed.
        assert len(consumed) == 2
        rest = list(stream)
        assert [r.request for r in [first] + rest] == base

    def test_stream_rejects_bad_workers_and_window(self, world):
        dataset, index = world
        db = open_db(index, network=dataset.network)
        # The worker count is gone: a stream runs on the calling thread.
        with pytest.raises(TypeError):
            db.stream([], n_workers=2)
        with pytest.raises(ConfigurationError):
            db.stream([], window=0)

    def test_empty_stream_resets_the_dedup_stats(self, world):
        dataset, index = world
        db = open_db(
            index, network=dataset.network,
            config=EngineConfig(dedup_subqueries=True),
        )
        db.query_many(random_requests(dataset, index, seed=16, n=3))
        assert db.last_dedup_stats.n_trips == 3
        assert list(db.stream([])) == []
        assert db.last_dedup_stats.n_trips == 0


class TestResultWireForm:
    def test_result_round_trip(self, world):
        dataset, index = world
        request = random_requests(dataset, index, seed=8, n=1)[0]
        db = open_db(index, network=dataset.network)
        result = db.query(request)
        restored = TripQueryResult.from_dict(result.to_dict())
        assert restored.histogram == result.histogram
        assert restored.estimated_mean == result.estimated_mean
        assert restored.n_index_scans == result.n_index_scans
        assert restored.request == request
        for out_restored, out_original in zip(
            restored.outcomes, result.outcomes
        ):
            assert np.array_equal(out_restored.values, out_original.values)
            assert out_restored.query == out_original.query

    def test_result_round_trip_preserves_shift_flags(self, world):
        # pi_1 partitions per edge, so a periodic multi-edge query
        # shift-and-enlarges every sub-query after the first; the wire
        # form must carry that flag or reconstructed queries drift.
        dataset, index = world
        trip = max(dataset.trajectories, key=len)
        request = TripRequest(
            path=trip.path[:5],
            interval=PeriodicInterval.around(trip.start_time, 1800),
        )
        db = open_db(
            index, network=dataset.network,
            config=EngineConfig(partitioner="pi_1"),
        )
        result = db.query(request)
        flags = [o.query.shift_applied for o in result.outcomes]
        assert any(flags), "expected shifted sub-queries from pi_1"
        restored = TripQueryResult.from_dict(result.to_dict())
        assert [
            o.query.shift_applied for o in restored.outcomes
        ] == flags
        assert [o.query for o in restored.outcomes] == [
            o.query for o in result.outcomes
        ]

    def test_result_wire_form_is_json_compatible(self, world):
        import json

        dataset, index = world
        request = random_requests(dataset, index, seed=9, n=1)[0]
        result = open_db(index, network=dataset.network).query(request)
        payload = json.loads(json.dumps(result.to_dict()))
        assert TripQueryResult.from_dict(payload).histogram == (
            result.histogram
        )

    def test_array_float_lists_are_byte_identical_to_the_comprehension(
        self, world
    ):
        # The wire form builds its float lists with ndarray.tolist();
        # the bytes on the wire must be those of the element-by-element
        # ``[float(v) for v in array]`` it replaced.
        import json

        def histogram_payload(histogram):
            return {
                "bucket_width": histogram.bucket_width,
                "offset": histogram.offset,
                "counts": [float(c) for c in histogram.counts],
            }

        dataset, index = world
        db = open_db(index, network=dataset.network)
        for request in random_requests(dataset, index, seed=10, n=8):
            result = db.query(request)
            expected = result.to_dict()
            expected["histogram"] = histogram_payload(result.histogram)
            for payload, outcome in zip(
                expected["outcomes"], result.outcomes
            ):
                payload["values"] = [float(v) for v in outcome.values]
                payload["histogram"] = histogram_payload(outcome.histogram)
            assert json.dumps(result.to_dict()) == json.dumps(expected)
            assert json.dumps(result.histogram.to_wire()) == json.dumps(
                histogram_payload(result.histogram)
            )


class TestLegacySurfaceRemoved:
    """The PR-3 shims were removed on the ROADMAP schedule (PR 5):
    ``repro.api`` is the only query surface left."""

    @pytest.mark.parametrize("driver", ["query", "run_batch"])
    def test_engine_rejects_legacy_spq(self, world, driver):
        """Both entry points raise the typed error — the guard lives in
        ``run_batch``, which ``query`` is a batch of one of, so a legacy
        query never gets as far as estimator resolution (an
        ``AttributeError``)."""
        from repro import QueryEngine
        from repro.errors import RequestValidationError

        dataset, index = world
        engine = QueryEngine(index, dataset.network)
        spq = StrictPathQuery(path=(1,), interval=FixedInterval(0, 10))
        answer = {
            "query": lambda: engine.query(spq),
            "run_batch": lambda: engine.run_batch([spq]),
        }[driver]
        with pytest.raises(RequestValidationError, match="from_spq"):
            answer()

    def test_trip_query_entry_points_are_gone(self, world):
        from repro import QueryEngine

        dataset, index = world
        engine = QueryEngine(index, dataset.network)
        db = TravelTimeDB(index, dataset.network)
        assert not hasattr(engine, "trip_query")
        assert not hasattr(db, "trip_query")
        assert not hasattr(db, "trip_query_many")

    def test_legacy_engine_constructor_kwargs_rejected(self, world):
        from repro import QueryEngine

        dataset, index = world
        with pytest.raises(TypeError):
            QueryEngine(index, dataset.network, partitioner="pi_1")
        with pytest.raises(TypeError):
            TravelTimeDB(index, dataset.network, partitioner="pi_1")

    def test_new_constructors_do_not_warn(self, world):
        from repro import QueryEngine

        dataset, index = world
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            QueryEngine(index, dataset.network, EngineConfig())
            TravelTimeDB(index, dataset.network, config=EngineConfig())
            open_db(index, network=dataset.network)

    def test_non_config_positional_rejected_with_clear_error(self, world):
        from repro import QueryEngine

        dataset, index = world
        with pytest.raises(TypeError, match="EngineConfig"):
            QueryEngine(index, dataset.network, 42)
        # The pre-PR-3 positional-partitioner form is gone too.
        with pytest.raises(TypeError, match="EngineConfig"):
            QueryEngine(index, dataset.network, "pi_1")


class TestPerRequestEstimator:
    def test_request_mode_overrides_engine_default(self, world):
        dataset, index = world
        db = open_db(
            index,
            network=dataset.network,
            cache=None,
            config=EngineConfig(estimator_mode="CSS-Fast"),
        )
        base = random_requests(dataset, index, seed=13, n=6)
        request = next((r for r in base if r.beta), base[0])
        if request.beta is None:
            request = TripRequest(
                path=request.path, interval=request.interval, beta=10
            )
        with_default = db.query(request)
        disabled = db.query(request.with_estimator(EstimatorMode.NONE))
        # Disabling the estimator must not change the shape of a query
        # that never skipped; when skips fired, the counters must differ.
        if with_default.n_estimator_skips:
            assert disabled.n_estimator_skips == 0
        else:
            assert disabled.histogram == with_default.histogram

    def test_estimators_are_cached_per_mode(self, world):
        dataset, index = world
        db = open_db(index, network=dataset.network)
        request = random_requests(dataset, index, seed=14, n=1)[0]
        first = db.query(request.with_estimator("ISA"))
        second = db.query(request.with_estimator("ISA"))
        assert first.histogram == second.histogram
        assert len(db.engine._estimators) == 1


class TestConfigStore:
    """ISSUE 9: EngineConfig.store as the open_db index fallback."""

    def test_invalid_store_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(store="")
        with pytest.raises(ConfigurationError):
            EngineConfig(store=123)

    def test_open_db_requires_some_index(self, world):
        dataset, _ = world
        with pytest.raises(ConfigurationError, match="needs an index"):
            open_db(network=dataset.network)

    def test_open_db_falls_back_to_config_store(self, world, tmp_path):
        dataset, index = world
        target = index.save(tmp_path / "idx")
        config = EngineConfig(store=str(target))
        db_implicit = open_db(network=dataset.network, config=config)
        db_explicit = open_db(target, network=dataset.network)
        requests = random_requests(dataset, index, seed=11, n=4)
        for a, b in zip(
            db_implicit.query_many(requests), db_explicit.query_many(requests)
        ):
            assert a.histogram == b.histogram
            assert a.estimated_mean == b.estimated_mean

    def test_explicit_argument_wins_over_config(self, world, tmp_path):
        dataset, index = world
        config = EngineConfig(store=str(tmp_path / "does-not-exist"))
        db = open_db(index, network=dataset.network, config=config)
        requests = random_requests(dataset, index, seed=12, n=2)
        assert len(db.query_many(requests)) == 2


class TestNonFiniteIntervalBounds:
    """NaN, +-inf and bool bounds are an ``IntervalError`` at the
    interval, before a query can reach the index (NaN used to raise a
    bare ``ValueError`` from the forest, or answer a histogram)."""

    BAD = [float("nan"), float("inf"), float("-inf"), True, False]

    def _trip(self, world):
        dataset, index = world
        trip = next(t for t in dataset.trajectories if len(t) >= 4)
        db = open_db(index, network=dataset.network)
        return db, trip.path[:3], index.t_max

    @pytest.mark.parametrize("bad", BAD)
    def test_periodic_bounds_rejected_through_query(self, world, bad):
        from repro.errors import IntervalError

        db, path, _ = self._trip(world)
        with pytest.raises(IntervalError):
            db.query(TripRequest(path=path,
                                 interval=PeriodicInterval(bad, 900)))
        with pytest.raises(IntervalError):
            db.query(TripRequest(path=path,
                                 interval=PeriodicInterval(28_800, bad)))

    @pytest.mark.parametrize("bad", BAD)
    def test_fixed_bounds_rejected_through_query(self, world, bad):
        from repro.errors import IntervalError

        db, path, t_max = self._trip(world)
        with pytest.raises(IntervalError):
            db.query(TripRequest(path=path,
                                 interval=FixedInterval(bad, 10**9)))
        with pytest.raises(IntervalError):
            db.query(TripRequest(path=path,
                                 interval=FixedInterval(0, bad)))

    def test_finite_float_and_large_int_bounds_still_accepted(self, world):
        db, path, t_max = self._trip(world)
        floats = db.query(TripRequest(
            path=path, interval=FixedInterval(0.0, float(t_max + 1))))
        ints = db.query(TripRequest(
            path=path, interval=FixedInterval(0, t_max + 1)))
        assert floats.histogram == ints.histogram
        assert FixedInterval(0, 10**400).size == 10**400
