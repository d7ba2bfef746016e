"""One run of one workload, in the interpreter it was started in.

``run.py`` starts this file once per run so that every workload is
measured in a fresh process (heap and GC state left by one workload
moved another's warm throughput by a third while prototyping).  The
last line of standard output is one JSON object with everything the
run measured; ``run.py`` turns it into tables and the driver's line.

Timing protocol (README.md has the reasoning):

* set-up (index build + save + open / server start) is repeated, half
  of the times before the passes and half after them, and its median
  taken; the untimed warm-up pass that ends set-up is added;
* then identical passes run until ``--seconds`` of timed work *and*
  ``MIN_PASSES`` passes are done; ``gc.collect()`` runs before each
  pass and ``gc.freeze()`` once after set-up;
* answers are collected during a pass and verified after it;
* the metric is the quietest observation: every segment of a pass (a
  call, a write phase, the rest) at the fastest of its repetitions;
  the median over passes and the percentiles of the pooled calls are
  reported next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from repro import StrictPathQuery, get_travel_times, naive_travel_times  # noqa: E402
from repro.trajectories import TrajectorySet  # noqa: E402

import catalogue  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Pass, World, clock, timed_call  # noqa: E402

OUT_DIR = HERE / "out"
SCALE = "small"
#: Fewest timed passes of a run, however long each one takes.
MIN_PASSES = 10
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 4
#: Passes of the traced run, and of the untraced passes it compares to.
TRACE_PASSES = 3
#: ``open_db`` + first answer repetitions behind ``sntindex.open_ms``.
OPEN_REPEATS = 15
NAIVE_CHECKS = 20

Reference = Dict[Hashable, Tuple[Any, float]]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------- #
# Verification
# ---------------------------------------------------------------------- #


def build_reference(workload: Any) -> Tuple[Reference, List[Tuple[Any, Any]]]:
    """Expected ``(histogram, estimated_mean)`` per reference key, from
    ``db.query`` on an in-memory monolithic index with cache and dedup
    off; also the ``(request, result)`` pairs, for the oracle check."""
    reference: Reference = {}
    answered = []
    with workload.reference_db() as db:
        for key, request in workload.reference_requests():
            result = db.query(request)
            reference[key] = (result.histogram, result.estimated_mean)
            answered.append((request, result))
    return reference, answered


def count_failures(
    answers: Sequence[Tuple[Hashable, Any]], reference: Reference
) -> int:
    """Answers that are errors or differ from the reference."""
    failed = 0
    for key, result in answers:
        expected = reference.get(key)
        if (
            expected is None
            or isinstance(result, BaseException)
            or result.histogram != expected[0]
            or result.estimated_mean != expected[1]
        ):
            failed += 1
    return failed


def naive_failures(
    workload: Any, answered: Sequence[Tuple[Any, Any]], seed: int,
    n_checks: int = NAIVE_CHECKS,
) -> Tuple[int, int]:
    """Check sub-queries of the reference plans against the linear-scan
    oracle; returns ``(checked, failed)``.

    Each sub-query is re-issued without its beta cut (ties at the cut
    are broken by storage order, which the oracle does not model) on
    the index under test, and compared to ``naive_travel_times`` over
    the trajectories that index covers.
    """
    candidates = [
        (outcome.query, request.exclude_ids)
        for request, result in answered
        for outcome in result.outcomes
        if not outcome.from_fallback
    ]
    if not candidates:
        return 0, 0
    rng = np.random.default_rng(seed)
    picks = rng.choice(
        len(candidates), min(n_checks, len(candidates)), replace=False
    )
    index = workload.index_under_test()
    # Only a trajectory that traverses the first edge can match: one
    # pass over the corpus finds them for every picked sub-query.
    by_first: Dict[int, List[Any]] = {candidates[i][0].path[0]: [] for i in picks}
    for trajectory in workload.oracle_trajectories():
        for edge in by_first.keys() & trajectory.path:
            by_first[edge].append(trajectory)
    failed = 0
    for i in sorted(picks):
        sub, exclude_ids = candidates[i]
        query = StrictPathQuery(
            path=sub.path, interval=sub.interval, user=sub.user, beta=None
        )
        subset = TrajectorySet(by_first[query.path[0]])
        want = np.sort(naive_travel_times(subset, query, exclude_ids))
        got = np.sort(get_travel_times(index, query, exclude_ids=exclude_ids).values)
        if not np.array_equal(want, got):
            failed += 1
    return len(picks), failed


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #


def end_to_end(
    workload: Any, passes: Sequence[Pass], setup_s: float,
    setup_parts: Sequence[Dict[str, float]], failed: int, attempted: int,
    rss_peak_mb: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics, and the four timings as ISSUE 14 words
    them (median over passes, percentiles over the pooled calls).

    The metric proper is the program's own cost.  Passes are identical
    -- the same calls and writes in the same order from the same state
    -- and interference on a shared host only ever slows a segment of a
    pass down, so each segment has a hard floor and a one-sided noise
    tail.  Every segment (a call, a write phase, the rest of the pass)
    is therefore taken at the quietest of its repetitions: the latency
    percentiles run over the calls of one such pass, throughput and
    ingest over its length and its writes.  Those floors move far less
    from run to run than medians do (README.md has the measurements).
    The median / pooled figure is what a caller sustains on this host,
    interference included; it is printed next to the metric.
    """
    pooled = sorted(s for p in passes for s in p.latencies)
    # Call by call, the fastest of its observations (a pass with a
    # failed call is short of a latency; the run is incorrect anyway).
    floors = sorted(map(min, zip(*(p.latencies for p in passes))))
    writes_floor = sum(
        min(p.writes[phase] for p in passes) for phase in passes[0].writes
    )
    rest_floor = min(
        p.wall_s - sum(p.latencies) - sum(p.writes.values()) for p in passes
    )
    rates = [p.trips / p.wall_s for p in passes]
    if passes[0].writes:
        # shard-lifecycle: the slice indexed by each pass over the
        # pass's append + seal + compact + save.
        records = workload.last_records
        write_s = [sum(p.writes.values()) for p in passes]
        ingest_floor = writes_floor
    else:
        records = workload.records_built
        write_s = [parts["build_s"] + parts["save_s"] for parts in setup_parts]
        ingest_floor = sum(
            min(parts[phase] for parts in setup_parts)
            for phase in ("build_s", "save_s")
        )
    sizes = workload.component_sizes()
    values = {
        "setup_s": setup_s,
        "trips_per_s": passes[0].trips / (sum(floors) + writes_floor + rest_floor),
        "call_p50_ms": 1e3 * percentile(floors, 0.50),
        "call_p99_ms": 1e3 * percentile(floors, 0.99),
        "fail_share": failed / attempted,
        "ingest_records_per_s": records / ingest_floor,
        "rss_peak_mb": rss_peak_mb,
        "index_bytes_per_record": sum(sizes.values()) / workload.records_built,
    }
    sustained = {
        "trips_per_s": statistics.median(rates),
        "call_p50_ms": 1e3 * percentile(pooled, 0.50),
        "call_p99_ms": 1e3 * percentile(pooled, 0.99),
        "ingest_records_per_s": records / statistics.median(write_s),
    }
    return values, sustained


def per_layer(
    workload: Any, world: World, tracer: Tracer, traced: Sequence[Pass],
    untraced: Sequence[Pass], setup_parts: Sequence[Dict[str, float]],
    open_ms: float,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric; ``None`` where the workload bypasses the
    layer altogether (no such object exists in the run)."""
    totals = self_times(tracer.spans)
    trips = sum(p.trips for p in traced)

    def us(name: str) -> float:
        return totals.get(name, (0, 0, 0))[0] / 1e3 / trips

    def work(name: str) -> float:
        return totals.get(name, (0, 0, 0))[2] / trips

    results = [
        result
        for p in traced
        for _, result in p.answers
        if not isinstance(result, BaseException)
    ]
    scans = sum(r.n_index_scans for r in results)
    hits = sum(r.n_cache_hits for r in results)
    sizes = workload.component_sizes()
    records = workload.records_built
    parts = setup_parts[-1]
    values: Dict[str, Optional[float]] = dict.fromkeys(catalogue.PER_LAYER_NAMES)
    values.update({
        "api.db_self_us_per_trip": us("api.db"),
        "core.plan_us_per_trip": us("core.plan") + us("core.relax"),
        "core.exec_self_us_per_trip": us("core.exec"),
        "core.subqueries_per_trip": (scans + hits) / trips,
        "core.relaxations_per_trip": work("core.relax"),
        "core.convolve_us_per_trip": us("core.convolve"),
        "service.cache_probe_us_per_trip": us("service.cache_probe"),
        "service.cache_store_us_per_trip": us("service.cache_store"),
        # Scalar path: a hit is a cache hit.  Batch paths overwrite this
        # with the executor's own count (riders of a dedup round also
        # account hits on their results).
        "service.cache_hit_ratio": hits / max(1, scans + hits),
        "sntindex.isa_us_per_trip": us("sntindex.isa"),
        "fmindex.backward_search_us_per_trip": us("fmindex.backward_search"),
        "fmindex.patterns_per_trip": work("fmindex.backward_search"),
        "sntindex.scan_us_per_trip": us("sntindex.scan"),
        "sntindex.scans_per_trip": scans / trips,
        "temporal.select_us_per_trip": us("temporal.select"),
        "temporal.probe_us_per_trip": us("temporal.probe"),
        "temporal.rows_selected_per_trip": work("temporal.select"),
        "temporal.rows_returned_per_trip": work("temporal.probe"),
        "sntindex.router_self_us_per_trip": us("sntindex.router"),
        "sntindex.build_records_per_s": records / parts["build_s"],
        "sntindex.save_ms": 1e3 * parts["save_s"],
        "sntindex.open_ms": open_ms,
        "sntindex.disk_bytes_per_record": workload.disk_bytes() / records,
        "fmindex.bytes_per_record": (sizes["WT"] + sizes["C"]) / records,
        "temporal.bytes_per_record": sizes["Forest"] / records,
        "harness.generate_s": world.generate_s,
        "harness.trace_overhead_ratio": statistics.median(
            p.trips / p.wall_s for p in traced
        ) / statistics.median(p.trips / p.wall_s for p in untraced),
    })
    if "api.request_wire" in totals:  # only the served path uses the wire
        values["api.request_wire_us_per_trip"] = us("api.request_wire")
        values["api.result_wire_us_per_trip"] = us("api.result_wire")
    if traced[0].writes:
        for phase in ("append", "seal", "compact", "save"):
            values[f"sntindex.{phase}_ms"] = 1e3 * statistics.median(
                p.writes[f"{phase}_s"] for p in traced
            )
    values.update(workload.layer_counts(traced, tracer.spans))
    return values


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float = catalogue.RUN_SECONDS,
    trace: bool = False,
    scale: str = SCALE,
    min_passes: int = MIN_PASSES,
    setup_reps: int = SETUP_REPS,
    trace_passes: int = TRACE_PASSES,
    world: Optional[World] = None,
    reference_hook: Any = None,
    out_dir: Path = OUT_DIR,
) -> Dict[str, Any]:
    """Run one workload and return everything it measured.

    An untraced run times passes for ``seconds``; a traced run does
    ``trace_passes`` untraced and as many traced passes and adds the
    per-layer metrics.  The driver and ``run.py`` pass only the first
    four arguments; the rest are for the smoke test: ``world`` reuses
    generated inputs, ``reference_hook(reference)`` corrupts the reference.
    Scratch lives in a per-run directory under ``out_dir`` and is
    removed on the way out; the trace file stays in ``out_dir``.
    """
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=out_dir))
    workload = None
    try:
        if world is None:
            world = World.cached(scale, out_dir)
        workload = WORKLOADS[name](
            world, seed, scratch, trace_passes if trace else 0
        )

        # Set-up, repeated: the first half before the passes (the last
        # of them stays up for the passes), the rest after them, so
        # that interference lasting a few seconds cannot slow them all.
        setup_times: List[float] = []
        setup_parts: List[Dict[str, float]] = []

        def set_up(times: int) -> None:
            for _ in range(times):
                workload.close()
                started = clock()
                workload.setup()
                setup_times.append(clock() - started)
                setup_parts.append(dict(workload.parts))

        later = 0 if trace else setup_reps // 2
        set_up(1 if trace else setup_reps - later)
        started = clock()
        warm = workload.warm_up()
        warm_s = clock() - started

        reference, answered = build_reference(workload)
        if reference_hook is not None:
            reference_hook(reference)
        attempted = warm.trips
        failed = count_failures(warm.answers, reference)
        del warm
        gc.collect()
        gc.freeze()

        def timed_passes(limit_s: float, at_least: int) -> List[Pass]:
            nonlocal attempted, failed
            done: List[Pass] = []
            timed = 0.0
            while timed < limit_s or len(done) < at_least:
                gc.collect()
                current = workload.run_pass()
                timed += current.wall_s
                attempted += current.trips
                failed += count_failures(current.answers, reference)
                if not trace:
                    current.answers = []  # verified; keep memory flat
                done.append(current)
            return done

        if trace:
            untraced = timed_passes(0.0, trace_passes)
        else:
            untraced = timed_passes(seconds, min_passes)
        rss_peak_mb = workload.rss_peak_mb()

        layers: Dict[str, Optional[float]] = {}
        if trace:
            tracer = Tracer()
            with tracer:
                workload.invoke = tracer.invoke
                workload.mark_counts()
                try:
                    traced = timed_passes(0.0, trace_passes)
                finally:
                    workload.invoke = timed_call
            open_ms = 1e3 * statistics.median(
                workload.open_once() for _ in range(OPEN_REPEATS)
            )
            layers = per_layer(
                workload, world, tracer, traced, untraced, setup_parts, open_ms
            )
            tracer.dump(
                out_dir / f"trace-{name}.json",
                {"workload": name, "seed": seed, "scale": scale,
                 "passes": trace_passes,
                 "trips": sum(p.trips for p in traced)},
            )

        checked, oracle_failed = naive_failures(workload, answered, seed)
        attempted += checked
        failed += oracle_failed
        workload.close()  # the server child's request counts are final
        served = dict(getattr(workload, "served", {}))
        set_up(later)
        setup_s = statistics.median(setup_times) + warm_s
        values, sustained = end_to_end(
            workload, untraced, setup_s, setup_parts, failed, attempted,
            rss_peak_mb,
        )
        workload.close()
        calls = sum(len(p.latencies) for p in untraced)
        return {
            "workload": name,
            "seed": seed,
            "scale": scale,
            "trace": trace,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "passes": len(untraced),
            "calls": calls,
            # Nearest rank: calls slower than the pooled 99th percentile.
            "calls_beyond_p99": calls - 1 - min(calls - 1, int(0.99 * calls)),
            "timed_s": sum(p.wall_s for p in untraced),
            "served": served,
            "end_to_end": values,
            "sustained": sustained,
            "per_layer": layers,
        }
    finally:
        # Success, failure and Ctrl-C alike: reap the server child and
        # remove every index and world directory of this run.
        try:
            if workload is not None:
                workload.close()
        finally:
            gc.unfreeze()
            shutil.rmtree(scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C so the scratch dir and child go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)  # scratch and children are already cleaned up
