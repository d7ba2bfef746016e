"""Smoke test of the perf harness at ``tiny`` scale (tier-1, < 20 s).

Runs every workload once, traced, with a handful of calls per pass:
all metric names present, every answer right, exact counts repeatable,
span arithmetic sound, patches removed, scratch cleaned up, and the
world kept between runs equal to the generated one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

EXACT = [m.name for m in catalogue.PER_LAYER if m.exact]


@pytest.fixture(scope="module")
def sizes():
    """A few calls per pass: this checks plumbing, not speed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads.TripCold, "TRIPS", 6)
        patch.setattr(workloads.BatchShared, "ROUTES", 3)
        patch.setattr(workloads.BatchShared, "BATCH", 4)
        patch.setattr(workloads.BatchShared, "BATCHES", 3)
        patch.setattr(workloads.ServedWarm, "ROUTES", 2)
        patch.setattr(workloads.ServedWarm, "BATCH", 2)
        patch.setattr(workloads.ServedWarm, "CALLS", 6)
        patch.setattr(workloads.ShardLifecycle, "QUERIES_PER_PHASE", 4)
        patch.setattr(worker, "OPEN_REPEATS", 2)
        patch.setattr(worker, "NAIVE_CHECKS", 3)
        yield


@pytest.fixture(scope="module")
def world():
    return workloads.World.generate("tiny")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perf-out")


def run(name, world, out_dir, seed=0, trace=True, **kwargs):
    return worker.run_workload(
        name, seed=seed, seconds=0.0, trace=trace, scale="tiny",
        min_passes=2, setup_reps=1, trace_passes=2, world=world,
        out_dir=out_dir, **kwargs,
    )


@pytest.fixture(scope="module")
def traced(sizes, world, out_dir):
    return {name: run(name, world, out_dir) for name in catalogue.WORKLOAD_NAMES}


@pytest.mark.parametrize("name", catalogue.WORKLOAD_NAMES)
def test_every_metric_is_reported_and_every_answer_right(traced, name):
    result = traced[name]
    assert set(result["end_to_end"]) == {m.name for m in catalogue.END_TO_END}
    assert set(result["per_layer"]) == set(catalogue.PER_LAYER_NAMES)
    assert result["correct"] and result["failed"] == 0
    assert result["end_to_end"]["fail_share"] == 0
    assert result["attempted"] > result["passes"] >= 2
    for metric in catalogue.CONTRACT_END_TO_END:
        assert result["end_to_end"][metric.name] > 0, metric.name


def test_bypassed_layers_do_no_work(traced):
    cold = traced["trip-cold"]["per_layer"]
    assert cold["service.cache_probe_us_per_trip"] == 0
    assert cold["service.cache_store_us_per_trip"] == 0
    assert cold["service.cache_hit_ratio"] == 0
    for name in ("trip-cold", "batch-shared", "served-warm"):
        assert traced[name]["per_layer"]["sntindex.router_self_us_per_trip"] == 0
    assert traced["shard-lifecycle"]["per_layer"]["sntindex.router_self_us_per_trip"] > 0
    assert traced["served-warm"]["per_layer"]["sntindex.scans_per_trip"] == 0
    for name in ("trip-cold", "batch-shared", "shard-lifecycle"):
        layers = traced[name]["per_layer"]
        assert all(
            layers[m] is None for m in layers if m.startswith("server.")
        ), name
    served = traced["served-warm"]["per_layer"]
    assert all(served[m] is not None for m in served if m.startswith("server."))


@pytest.mark.parametrize("name", ["trip-cold", "batch-shared"])
def test_exact_counts_repeat_for_a_seed(traced, sizes, world, out_dir, name):
    again = run(name, world, out_dir)["per_layer"]
    first = traced[name]["per_layer"]
    assert [again[m] for m in EXACT] == [first[m] for m in EXACT]


def test_another_seed_reorders_the_calls_and_keeps_the_work(
    traced, sizes, world, out_dir, tmp_path
):
    first, other = (
        workloads.BatchShared(world, seed, tmp_path).batches for seed in (0, 1)
    )
    assert first != other
    assert [sorted(map(repr, batch)) for batch in first] == [
        sorted(map(repr, batch)) for batch in other
    ]
    counts = run("batch-shared", world, out_dir, seed=1)["per_layer"]
    assert [counts[m] for m in EXACT] == [
        traced["batch-shared"]["per_layer"][m] for m in EXACT
    ]


def test_span_self_times_add_up_to_the_calls(traced, out_dir):
    trace = json.loads((out_dir / "trace-trip-cold.json").read_text())
    assert tuple(trace["columns"]) == spans.SPAN_COLUMNS
    rows = [tuple(row) for row in trace["spans"]]
    roots = [row for row in rows if row[2] == spans.CALL_SPAN]
    assert len(roots) == 2 * 3 * 6  # passes x query types x trips
    assert all(row[1] == -1 for row in roots)
    totals = spans.self_times(rows)
    assert all(self_ns >= 0 for self_ns, _, _ in totals.values())
    # Single-threaded: every span nests under a call, so self times
    # partition the calls' wall-clock exactly.
    assert sum(self_ns for self_ns, _, _ in totals.values()) == sum(
        end - start for _, _, _, start, end, _, _, _ in roots
    )
    assert {"api.db", "core.exec", "core.plan", "sntindex.scan"} <= set(totals)


def test_a_corrupted_reference_is_caught(sizes, world, out_dir):
    def corrupt(reference):
        key = next(iter(reference))
        histogram, mean = reference[key]
        reference[key] = (histogram, mean + 1.0)

    result = run("trip-cold", world, out_dir, trace=False, reference_hook=corrupt)
    assert result["end_to_end"]["fail_share"] > 0
    assert not result["correct"]


def test_tracer_rebinds_by_name_imports_and_restores_them():
    import repro.core.engine as engine
    import repro.core.exec as executor
    import repro.core.plan as plan
    from repro.fmindex.fm import FMIndex

    originals = (plan.plan_trip, executor.convolve_histograms, FMIndex.isa_range)
    with spans.Tracer():
        assert executor.plan_trip is plan.plan_trip is not originals[0]
        assert executor.plan_trip.__wrapped__ is originals[0]
        assert engine.convolve_histograms is executor.convolve_histograms
        assert engine.convolve_histograms.__wrapped__ is originals[1]
        assert FMIndex.isa_range.__wrapped__ is originals[2]
    assert (executor.plan_trip, plan.plan_trip) == (originals[0],) * 2
    assert engine.convolve_histograms is originals[1]
    assert FMIndex.isa_range is originals[2]


def test_served_child_is_reaped_and_scratch_removed(sizes, world, out_dir):
    result = run("served-warm", world, out_dir, trace=False)
    assert result["correct"]
    assert result["served"]["trips_failed"] == 0
    assert result["served"]["rejected"] == 0
    assert result["end_to_end"]["rss_peak_mb"] > 0  # read off the child
    assert not list(out_dir.glob("run-*"))


def test_the_world_kept_between_runs_is_the_generated_one(
    world, tmp_path, monkeypatch
):
    first = workloads.World.cached("tiny", tmp_path)
    kept = list(tmp_path.glob("world-tiny-*.pickle"))
    assert len(kept) == 1 and not list(tmp_path.glob("*.tmp"))
    monkeypatch.setattr(workloads.World, "generate", None)  # must load now
    again = workloads.World.cached("tiny", tmp_path)
    assert again.specs == first.specs == world.specs
    assert [t.points for t in again.trajectories] == [
        t.points for t in world.trajectories
    ]
