"""Figure 9: query processing time (ms per query).

Paper expectations: user-filter queries cost ~4-5x the temporal-filter
queries, except pi_MDM at ~2x (it applies the user predicate only on main
roads); SPQ-only queries are by far the cheapest (fewer temporal scans,
longer sub-paths); sigma_L is much slower than sigma_R (its binary search
issues extra count queries per split).

Absolute times are not comparable to the paper's C++ numbers (DESIGN.md
§3); all assertions are on ratios.
"""

import numpy as np
import pytest

from repro import (
    EngineConfig,
    PeriodicInterval,
    QueryEngine,
    StrictPathQuery,
    TripRequest,
)
from repro.experiments import format_series

from .conftest import bench_betas, bench_one_query, series_by_method


@pytest.mark.parametrize("query_type", ["temporal", "user", "spq"])
def test_figure9_series(sweep_results, workload, query_type, benchmark, capsys):
    betas = bench_betas()
    bench_one_query(benchmark, workload, query_type)
    series = series_by_method(
        sweep_results[query_type], "ms_per_query", betas
    )
    print("\n" + format_series(
        f"Figure 9 ({query_type}): ms per query vs beta",
        "method", betas, series, value_format="{:.2f}",
    ))


def test_user_filters_cost_more_than_temporal(sweep_results, workload, benchmark):
    bench_one_query(benchmark, workload, "user", partitioner="pi_C")
    betas = bench_betas()
    temporal = series_by_method(
        sweep_results["temporal"], "ms_per_query", betas
    )
    user = series_by_method(sweep_results["user"], "ms_per_query", betas)
    for method in ("pi_C/regular", "pi_Z/regular", "pi_ZC/regular"):
        assert np.mean(user[method]) > np.mean(temporal[method])


def test_mdm_cheaper_than_blanket_user_filters(sweep_results, workload, benchmark):
    """pi_MDM applies user predicates selectively: it must undercut the
    blanket user-filter methods (paper: ~2x vs ~4-5x the temporal cost)."""
    bench_one_query(benchmark, workload, "user", partitioner="pi_MDM")
    betas = bench_betas()
    user = series_by_method(sweep_results["user"], "ms_per_query", betas)
    mdm = np.mean(user["pi_MDM/regular"])
    blanket = np.mean(
        [np.mean(user[f"{m}/regular"]) for m in ("pi_C", "pi_Z", "pi_ZC")]
    )
    assert mdm < blanket


def test_spq_only_is_cheapest(sweep_results, workload, benchmark):
    bench_one_query(benchmark, workload, "spq", partitioner="pi_ZC")
    betas = bench_betas()
    temporal = series_by_method(
        sweep_results["temporal"], "ms_per_query", betas
    )
    spq = series_by_method(sweep_results["spq"], "ms_per_query", betas)
    for method in ("pi_Z/regular", "pi_ZC/regular"):
        assert np.mean(spq[method]) < np.mean(temporal[method])


def test_sigma_l_slower_than_sigma_r(sweep_results, workload, benchmark):
    bench_one_query(
        benchmark, workload, "temporal", splitter="longest_prefix"
    )
    betas = bench_betas()
    temporal = series_by_method(
        sweep_results["temporal"], "ms_per_query", betas
    )
    slow = np.mean(
        [np.mean(temporal[f"{m}/longest_prefix"]) for m in ("pi_N", "pi_Z")]
    )
    fast = np.mean(
        [np.mean(temporal[f"{m}/regular"]) for m in ("pi_N", "pi_Z")]
    )
    assert slow > fast


def test_figure9_backward_search_stage(workload, benchmark, capsys):
    """The getISARange stage at service-batch scale (Section 4.1.1).

    The spq series is bounded below by backward search — the only stage
    every configuration shares — and a batch service (PR-5's dedup
    executor) feeds it hundreds of sub-paths at once.  At that scale
    the levelwise frontier descent must beat the scalar per-path walk
    by >= 1.5x (ISSUE 6 acceptance; measured ~2.5x at 240 sub-paths
    and ~3.5x at 3000), while staying bit-identical.
    """
    import time

    index = workload.index
    paths = []
    for spec in workload.queries:
        path = list(spec.path)
        for length in (2, 3, 4, 6):
            if len(path) >= length:
                paths.append(path[:length])
    if len(paths) < 150:
        pytest.skip(
            "batch too small to exercise the levelwise descent "
            "(raise REPRO_BENCH_SCALE/REPRO_BENCH_QUERIES)"
        )
    reps = 3
    scalar = [index.isa_ranges(path) for path in paths]
    batched = index.isa_ranges_many(paths)
    assert batched == scalar  # bit-identity before timing anything
    t0 = time.perf_counter()
    for _ in range(reps):
        for path in paths:
            index.isa_ranges(path)
    scalar_s = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        index.isa_ranges_many(paths)
    batched_s = (time.perf_counter() - t0) / reps
    benchmark(lambda: index.isa_ranges_many(paths))
    speedup = scalar_s / batched_s
    print(
        f"\nbackward-search stage over {len(paths)} sub-paths: "
        f"scalar {scalar_s * 1e3:.1f} ms, batched {batched_s * 1e3:.1f} "
        f"ms, speedup {speedup:.2f}x"
    )
    assert speedup >= 1.5


def test_scan_probe_histograms_stable_across_readers_and_estimators(
    workload,
    benchmark,
):
    """Batches answer exactly like the sequential Procedure 6.

    Batch histograms must stay byte-identical to the per-trip
    sequential loop across cardinality-estimator modes and across the
    monolithic / sharded readers.
    """
    from repro import open_db
    from repro.sntindex.sharded import ShardedSNTIndex

    specs = sorted(
        workload.queries, key=lambda s: len(s.path), reverse=True
    )[:10]
    sharded = ShardedSNTIndex.build(
        workload.dataset.trajectories,
        workload.network.alphabet_size,
        n_shards=2,
        partition_days=7,
    )
    readers = {"monolithic": workload.index, "sharded": sharded}
    for reader_name, reader in readers.items():
        for mode in ("CSS-Fast", "CSS-Acc", "none"):
            requests = [
                TripRequest.from_spq(
                    spec.to_query("temporal", 900, workload.t_max, 20),
                    exclude_ids=(spec.traj_id,),
                    estimator=mode,
                )
                for spec in specs
            ]
            db = open_db(reader, network=workload.network, cache=None)
            sequential = [db.query(request) for request in requests]
            batch = db.query_many(requests)
            for got, want in zip(batch, sequential):
                assert got.histogram == want.histogram, (
                    f"{reader_name}/{mode}: batch histogram diverged "
                    "from the sequential Procedure 6 loop"
                )
                assert got.estimated_mean == want.estimated_mean

    db = open_db(sharded, network=workload.network, cache=None)
    requests = [
        TripRequest.from_spq(
            spec.to_query("temporal", 900, workload.t_max, 20),
            exclude_ids=(spec.traj_id,),
        )
        for spec in specs
    ]
    benchmark(lambda: db.query_many(requests))


def test_bench_single_trip_query(workload, benchmark):
    """Raw per-query latency of the headline configuration."""
    engine = QueryEngine(
        workload.index, workload.network, EngineConfig(partitioner="pi_Z")
    )
    spec = max(workload.queries, key=lambda s: len(s.path))
    query = StrictPathQuery(
        path=spec.path,
        interval=PeriodicInterval.around(spec.start_time, 900),
        beta=20,
    )

    def run():
        return engine.query(
            TripRequest.from_spq(query, exclude_ids=(spec.traj_id,))
        )

    result = benchmark(run)
    assert result.histogram.total > 0
