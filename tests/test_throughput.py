"""Tests for the throughput experiment."""

import pytest

from repro.experiments import build_workload, measure_throughput


@pytest.fixture(scope="module")
def workload():
    return build_workload("tiny", seed=0)


def test_single_worker(workload):
    (result,) = measure_throughput(
        workload, worker_counts=(1,), n_queries=8
    )
    assert result.n_workers == 1
    assert result.n_queries == 8
    assert result.queries_per_second > 0


def test_all_queries_processed_across_workers(workload):
    results = measure_throughput(
        workload, worker_counts=(1, 3), n_queries=10
    )
    assert [r.n_queries for r in results] == [10, 10]


def test_concurrent_readers_do_not_corrupt_results(workload):
    """Same answers single- and multi-threaded (index is immutable)."""
    from repro import EngineConfig, QueryEngine, TripRequest

    engine = QueryEngine(
        workload.index, workload.network, EngineConfig(partitioner="pi_Z")
    )
    spec = workload.queries[0]
    request = TripRequest.from_spq(
        spec.to_query("temporal", 900, workload.t_max, 10),
        exclude_ids=(spec.traj_id,),
    )
    before = engine.query(request)
    measure_throughput(workload, worker_counts=(4,), n_queries=10)
    after = engine.query(request)
    assert before.histogram == after.histogram


def test_invalid_worker_count(workload):
    with pytest.raises(ValueError):
        measure_throughput(workload, worker_counts=(1, -2))

