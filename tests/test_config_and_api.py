"""Tests for the configuration module and the public API surface."""

import importlib

import pytest

import repro
from repro.config import (
    DEFAULT_INTERVAL_LADDER_S,
    SECONDS_PER_DAY,
    available_scales,
    get_scale,
)


class TestConfig:
    def test_known_scales(self):
        assert set(available_scales()) == {"tiny", "small", "medium", "large"}

    def test_get_scale_by_name(self):
        assert get_scale("tiny").name == "tiny"
        assert get_scale("large").n_drivers == 458  # the ITSP fleet size

    def test_get_scale_unknown(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert get_scale(None).name == "medium"

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale(None).name == "small"

    def test_interval_ladder_matches_paper(self):
        # A = <15, 30, 45, 60, 90, 120> minutes (Section 5.2).
        assert DEFAULT_INTERVAL_LADDER_S == (
            900, 1800, 2700, 3600, 5400, 7200,
        )

    def test_scales_are_ordered_by_size(self):
        tiny, small = get_scale("tiny"), get_scale("small")
        medium, large = get_scale("medium"), get_scale("large")
        assert tiny.n_drivers < small.n_drivers < medium.n_drivers
        assert medium.n_drivers < large.n_drivers
        assert tiny.n_days < small.n_days <= medium.n_days <= large.n_days

    def test_seconds_per_day(self):
        assert SECONDS_PER_DAY == 86_400


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_subpackages_importable(self):
        for module in (
            "repro.fmindex",
            "repro.temporal",
            "repro.histogram",
            "repro.network",
            "repro.trajectories",
            "repro.sntindex",
            "repro.core",
            "repro.baselines",
            "repro.metrics",
            "repro.experiments",
        ):
            importlib.import_module(module)

    def test_subpackage_alls_resolve(self):
        for module_name in (
            "repro.fmindex",
            "repro.temporal",
            "repro.histogram",
            "repro.network",
            "repro.trajectories",
            "repro.sntindex",
            "repro.core",
            "repro.baselines",
            "repro.metrics",
            "repro.experiments",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_quickstart_docstring_example(self):
        """The module docstring's example must actually work."""
        from repro import (
            PeriodicInterval,
            SNTIndex,
            TripRequest,
            generate_dataset,
            open_db,
        )

        dataset = generate_dataset("tiny", seed=0)
        index = SNTIndex.build(
            dataset.trajectories, dataset.network.alphabet_size
        )
        db = open_db(index, network=dataset.network)
        trip = dataset.trajectories[100]
        result = db.query(
            TripRequest(
                path=trip.path,
                interval=PeriodicInterval.around(trip.start_time, 900),
                beta=20,
            )
        )
        assert result.histogram.total > 0


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
                and obj.__module__ == "repro.errors"
            ):
                assert issubclass(obj, errors.ReproError), name

    def test_unknown_edge_error_payload(self):
        from repro.errors import UnknownEdgeError

        error = UnknownEdgeError(42)
        assert error.edge_id == 42
        assert "42" in str(error)
