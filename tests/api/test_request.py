"""Validation and wire-form tests for the typed query objects."""

import dataclasses

import pytest

from repro import EngineConfig, EstimatorMode, TripRequest
from repro.core.intervals import FixedInterval, PeriodicInterval
from repro.errors import (
    ConfigurationError,
    QueryError,
    RequestValidationError,
)


def request(**overrides):
    base = dict(
        path=(1, 2, 3),
        interval=PeriodicInterval(start_tod=28_800, duration=900),
        user=7,
        exclude_ids=(9, 3),
        beta=20,
        estimator="CSS-Fast",
    )
    base.update(overrides)
    return TripRequest(**base)


class TestTripRequestValidation:
    def test_empty_path_raises_typed_error(self):
        with pytest.raises(RequestValidationError):
            request(path=())

    def test_non_integer_path_raises_typed_error(self):
        with pytest.raises(RequestValidationError):
            request(path=("a", "b"))

    def test_string_path_rejected_not_decomposed(self):
        # tuple("12") would silently become edges (1, 2).
        with pytest.raises(RequestValidationError):
            request(path="12")

    def test_non_iterable_path_raises_typed_error(self):
        with pytest.raises(RequestValidationError):
            request(path=5)

    def test_beta_zero_raises_typed_error(self):
        with pytest.raises(RequestValidationError):
            request(beta=0)

    def test_beta_negative_raises_typed_error(self):
        with pytest.raises(RequestValidationError):
            request(beta=-5)

    def test_non_numeric_beta_and_user_raise_typed_error(self):
        with pytest.raises(RequestValidationError):
            request(beta="lots")
        with pytest.raises(RequestValidationError):
            request(user="alice")

    def test_non_numeric_user_in_wire_form_raises_typed_error(self):
        payload = request().to_dict()
        payload["user"] = "alice"
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    def test_unknown_estimator_mode_raises_typed_error(self):
        with pytest.raises(RequestValidationError):
            request(estimator="CSS-Fancy")

    def test_non_interval_rejected(self):
        with pytest.raises(RequestValidationError):
            request(interval=(0, 100))

    def test_validation_errors_are_query_errors_not_bare_valueerror(self):
        # The CLI contract maps ReproError (and only ReproError) to
        # exit 1; every validation failure must be inside that tree.
        for bad in (
            dict(path=()),
            dict(beta=0),
            dict(estimator="nope"),
            dict(interval=None),
        ):
            with pytest.raises(QueryError):
                request(**bad)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            request().path = (5,)

    def test_canonicalisation(self):
        r = request(path=[1.0, 2, 3], exclude_ids=[5, 1, 5])
        assert r.path == (1, 2, 3)
        assert r.exclude_ids == (1, 5)
        assert r.estimator is EstimatorMode.CSS_FAST

    def test_fractional_ids_rejected_not_truncated(self):
        # int(1.9) would silently answer a query about edge 1.
        with pytest.raises(RequestValidationError):
            request(path=(1.9, 2))
        with pytest.raises(RequestValidationError):
            request(user=7.5)
        with pytest.raises(RequestValidationError):
            request(beta=1.9)
        with pytest.raises(RequestValidationError):
            request(exclude_ids=(3.7,))
        payload = request().to_dict()
        payload["path"] = [3.7]
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    def test_string_exclude_ids_rejected_not_decomposed(self):
        # tuple("307") would silently exclude trajectories 3, 0, 7.
        with pytest.raises(RequestValidationError):
            request(exclude_ids="307")
        payload = request().to_dict()
        payload["exclude_ids"] = "307"
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    def test_equal_requests_compare_and_hash_equal(self):
        assert request() == request(exclude_ids=(3, 9, 9))
        assert hash(request()) == hash(request(exclude_ids=(3, 9, 9)))


class TestEstimatorMode:
    def test_coerce_accepts_value_strings_and_members(self):
        assert EstimatorMode.coerce("BT-Acc") is EstimatorMode.BT_ACC
        assert EstimatorMode.coerce(EstimatorMode.ISA) is EstimatorMode.ISA
        assert EstimatorMode.coerce(None) is None

    def test_coerce_rejects_unknown(self):
        with pytest.raises(RequestValidationError):
            EstimatorMode.coerce("turbo")
        with pytest.raises(RequestValidationError):
            EstimatorMode.coerce(42)

    def test_none_mode_disables_per_request(self):
        assert request(estimator=EstimatorMode.NONE).estimator is (
            EstimatorMode.NONE
        )

    def test_enum_stays_in_sync_with_core_modes(self):
        # core's ESTIMATOR_MODES is what CardinalityEstimator validates
        # against; the typed enum must cover exactly those plus "none",
        # or a new core mode becomes unreachable through the typed API.
        from repro import ESTIMATOR_MODES

        assert {mode.value for mode in EstimatorMode} - {"none"} == set(
            ESTIMATOR_MODES
        )


class TestWireForm:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(interval=FixedInterval(0, 86_400)),
            dict(user=None, beta=None, estimator=None, exclude_ids=()),
            dict(estimator=EstimatorMode.NONE),
        ],
    )
    def test_round_trip_equality(self, overrides):
        r = request(**overrides)
        assert TripRequest.from_dict(r.to_dict()) == r

    def test_wire_form_is_json_compatible(self):
        import json

        payload = request().to_dict()
        assert TripRequest.from_dict(json.loads(json.dumps(payload))) == (
            request()
        )

    def test_inverted_fixed_interval_rejected(self):
        payload = request().to_dict()
        payload["interval"] = {"type": "fixed", "start": 100, "end": 100}
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)
        payload["interval"] = {"type": "fixed", "start": 100, "end": 50}
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    def test_zero_width_periodic_interval_rejected(self):
        payload = request().to_dict()
        payload["interval"] = {"type": "periodic", "start_tod": 0,
                               "duration": 0}
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    def test_unknown_interval_type_rejected(self):
        payload = request().to_dict()
        payload["interval"] = {"type": "lunar", "start": 0, "end": 10}
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    def test_unknown_fields_rejected(self):
        payload = request().to_dict()
        payload["surprise"] = 1
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    def test_missing_fields_rejected(self):
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict({"path": [1]})

    @pytest.mark.parametrize("bad_path", ["12", 5, {"edge": 1}])
    def test_malformed_path_payloads_rejected(self, bad_path):
        payload = request().to_dict()
        payload["path"] = bad_path
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    @pytest.mark.parametrize("bad", [0, 1, False, ""])
    def test_scalar_exclude_ids_payload_rejected_even_when_falsy(self, bad):
        # {"exclude_ids": 0} must not silently mean "no exclusions" —
        # 0 is a valid trajectory id the client meant to exclude.
        payload = request().to_dict()
        payload["exclude_ids"] = bad
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)

    @pytest.mark.parametrize("number", ["1e999", "-1e999", "NaN"])
    @pytest.mark.parametrize(
        "field",
        [
            "path", "user", "exclude_ids", "beta", "fixed.start",
            "fixed.end", "periodic.start_tod", "periodic.duration",
        ],
    )
    def test_non_finite_numbers_rejected_in_every_id_field(
        self, field, number
    ):
        """JSON ``1e999`` parses as inf (and ``NaN`` as nan): every
        id-like field answers a typed error, never a bare
        ``OverflowError`` or ``ValueError``."""
        import json

        payload = request().to_dict()
        payload["interval"] = {"type": "fixed", "start": 0, "end": 10}
        marker = 123456789
        if field == "path":
            payload["path"] = [1, marker]
        elif field == "exclude_ids":
            payload["exclude_ids"] = [marker]
        elif "." in field:
            kind, bound = field.split(".")
            payload["interval"] = (
                {"type": "fixed", "start": 0, "end": 10}
                if kind == "fixed"
                else {"type": "periodic", "start_tod": 0, "duration": 900}
            )
            payload["interval"][bound] = marker
        else:
            payload[field] = marker
        text = json.dumps(payload).replace(str(marker), number)
        assert number in text
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(json.loads(text))

    def test_fractional_interval_bounds_rejected(self):
        payload = request().to_dict()
        payload["interval"] = {"type": "periodic", "start_tod": 28800.9,
                               "duration": 900.7}
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)
        payload["interval"] = {"type": "fixed", "start": 0.5, "end": 10}
        with pytest.raises(RequestValidationError):
            TripRequest.from_dict(payload)


class TestEngineConfig:
    def test_defaults_valid_and_frozen(self):
        config = EngineConfig()
        assert config.partitioner == "pi_Z"
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.partitioner = "pi_1"

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(partitioner="pi_fancy"),
            dict(splitter="alphabetical"),
            dict(ladder=()),
            dict(ladder=(900, 900)),
            dict(ladder=(900, 600)),
            dict(ladder=(0, 900)),
            dict(bucket_width_s=0),
            dict(estimator_mode="turbo"),
            dict(user_selectivity=0.0),
            dict(user_selectivity=1.5),
            dict(max_relaxations=0),
            dict(dedup_subqueries=False),
            dict(ladder=("x",)),
            # Numbers that used to construct and then break or silently
            # change queries.
            dict(bucket_width_s=float("inf")),
            dict(bucket_width_s=float("nan")),
            dict(user_selectivity=float("nan")),
            dict(max_relaxations=2.5),
            dict(max_relaxations=True),
            dict(ladder=(60.5, 120)),
        ],
    )
    def test_invalid_configs_raise_typed_error(self, overrides):
        with pytest.raises(ConfigurationError):
            EngineConfig(**overrides)

    def test_estimator_mode_coerced(self):
        assert EngineConfig(estimator_mode="ISA").estimator_mode is (
            EstimatorMode.ISA
        )

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(partitioner="pi_1").partitioner == "pi_1"
        with pytest.raises(ConfigurationError):
            config.replace(splitter="nope")

    def test_equality_and_hash(self):
        assert EngineConfig() == EngineConfig()
        assert hash(EngineConfig(max_relaxations=2)) == hash(
            EngineConfig(max_relaxations=2)
        )

    @pytest.mark.parametrize("field", ["cache", "cache_entries"])
    def test_cache_is_not_configured_here(self, field):
        """The session's cache is ``open_db``'s ``cache`` argument, not
        an engine setting."""
        with pytest.raises(TypeError):
            EngineConfig(**{field: None})

    def test_beta_policy_participates_in_identity(self):
        # Policies change effective betas and therefore answers; two
        # configs differing only in policy must not collide on the
        # (future) external cache-tier key.
        policy = lambda path, beta: beta
        assert EngineConfig(beta_policy=policy) != EngineConfig()
        assert EngineConfig(beta_policy=policy) == EngineConfig(
            beta_policy=policy
        )


class TestDeprecationShimsValidation:
    """The legacy surfaces must keep raising *typed* errors too."""

    def test_legacy_spq_empty_path(self):
        from repro import StrictPathQuery

        with pytest.raises(QueryError):
            StrictPathQuery(path=(), interval=FixedInterval(0, 10))

    def test_legacy_spq_bad_beta(self):
        from repro import StrictPathQuery

        with pytest.raises(QueryError):
            StrictPathQuery(path=(1,), interval=FixedInterval(0, 10), beta=0)

    def test_legacy_intervals_inverted(self):
        from repro.errors import IntervalError

        with pytest.raises(IntervalError):
            FixedInterval(10, 10)
        with pytest.raises(IntervalError):
            PeriodicInterval(start_tod=0, duration=0)

    def test_legacy_engine_kwargs_are_gone(self):
        """The PR-3 kwarg shims were removed on schedule (PR 5): the
        engine takes an EngineConfig, full stop."""
        from repro import QueryEngine, generate_dataset, SNTIndex

        dataset = generate_dataset("tiny", seed=0)
        index = SNTIndex.build(
            dataset.trajectories, dataset.network.alphabet_size
        )
        with pytest.raises(TypeError):
            QueryEngine(index, dataset.network, splitter="alphabetical")
