"""Experiment runners for every figure of the paper's evaluation.

One function per figure family:

* :func:`run_accuracy_config` produces the measurements behind Figures
  5-9 for a single (query type, pi, sigma, beta) configuration: sMAPE,
  weighted error, average sub-path length, log-likelihood, and ms/query.
* :func:`accuracy_sweep` runs the full grid of one sub-figure.
* :func:`baseline_numbers` computes the speed-limit and segment-level
  reference errors quoted in Section 6.1.
* :func:`partitioning_report` measures Figure 10 (memory and setup time).
* :func:`estimator_report` measures Figure 11 (q-error, runtime, accuracy
  impact of the cardinality estimator).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import EngineConfig, TripRequest
from ..baselines.segment_level import SegmentLevelBaseline
from ..baselines.speed_limit import SpeedLimitBaseline
from ..config import DEFAULT_BUCKET_WIDTH_S, DEFAULT_INTERVAL_LADDER_S
from ..core.engine import QueryEngine
from ..core.estimator import CardinalityEstimator
from ..histogram.histogram import Histogram
from ..metrics.accuracy import smape, symmetric_ape, weighted_error_terms
from ..metrics.likelihood import average_log_likelihood
from ..metrics.qerror import mean_q_error_log10
from ..sntindex.index import SNTIndex
from ..sntindex.procedures import count_matches
from .workload import Workload

__all__ = [
    "AccuracyResult",
    "run_accuracy_config",
    "accuracy_sweep",
    "baseline_numbers",
    "partitioning_report",
    "estimator_report",
    "FIGURE5_CONFIGS",
]

#: Method grids per sub-figure (paper Figures 5-9 a/b/c).
FIGURE5_CONFIGS = {
    "temporal": {
        "partitioners": (
            "pi_C", "pi_Z", "pi_ZC", "pi_N", "pi_1", "pi_2", "pi_3",
        ),
        "splitters": ("regular", "longest_prefix"),
    },
    "user": {
        "partitioners": ("pi_C", "pi_Z", "pi_ZC", "pi_MDM"),
        "splitters": ("regular", "longest_prefix"),
    },
    "spq": {
        "partitioners": ("pi_C", "pi_Z", "pi_ZC", "pi_N"),
        "splitters": ("regular", "longest_prefix"),
    },
}


@dataclass
class AccuracyResult:
    """Measurements of one accuracy configuration (one curve point)."""

    query_type: str
    partitioner: str
    splitter: str
    beta: int
    smape: float
    weighted_error: float
    log_likelihood: float
    mean_subpath_length: float
    ms_per_query: float
    n_queries: int

    def key(self) -> Tuple[str, str, str, int]:
        return (self.query_type, self.partitioner, self.splitter, self.beta)


def run_accuracy_config(
    workload: Workload,
    query_type: str,
    partitioner: str,
    splitter: str,
    beta: int,
    alpha_min_s: int = DEFAULT_INTERVAL_LADDER_S[0],
    ladder: Sequence[int] = DEFAULT_INTERVAL_LADDER_S,
    bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S,
    estimator_mode: Optional[str] = None,
    max_queries: Optional[int] = None,
    exclude_self: bool = True,
) -> AccuracyResult:
    """Run one configuration over the workload's query set."""
    estimator = (
        CardinalityEstimator(workload.index, estimator_mode)
        if estimator_mode
        else None
    )
    engine = QueryEngine(
        workload.index,
        workload.network,
        EngineConfig(
            partitioner=partitioner,
            splitter=splitter,
            ladder=tuple(ladder),
            bucket_width_s=bucket_width_s,
        ),
        estimator=estimator,
    )
    queries = workload.queries[:max_queries] if max_queries else workload.queries

    estimates: List[float] = []
    truths: List[float] = []
    weighted: List[float] = []
    histograms: List[Histogram] = []
    subpath_lengths: List[float] = []
    elapsed = 0.0

    for spec in queries:
        query = spec.to_query(query_type, alpha_min_s, workload.t_max, beta)
        exclude = (spec.traj_id,) if exclude_self else ()
        request = TripRequest.from_spq(query, exclude_ids=exclude)
        started = time.perf_counter()
        result = engine.query(request)
        elapsed += time.perf_counter() - started

        estimates.append(result.estimated_mean)
        truths.append(spec.true_duration)
        histograms.append(result.histogram)
        subpath_lengths.append(result.mean_subpath_length)

        # Weighted error: score each final sub-query against the sampled
        # trajectory's true duration over that sub-path (Section 5.3.2).
        offset = 0
        sub_means, sub_truths, sub_lengths = [], [], []
        for outcome in result.outcomes:
            k = outcome.path_length
            sub_means.append(outcome.mean)
            sub_truths.append(
                spec.true_subpath_duration(offset, offset + k)
            )
            sub_lengths.append(
                workload.network.path_length_m(list(outcome.query.path))
            )
            offset += k
        weighted.append(
            weighted_error_terms(sub_means, sub_truths, sub_lengths)
        )

    return AccuracyResult(
        query_type=query_type,
        partitioner=partitioner,
        splitter=splitter,
        beta=beta,
        smape=smape(estimates, truths),
        weighted_error=float(np.mean(weighted)),
        log_likelihood=average_log_likelihood(truths, histograms),
        mean_subpath_length=float(np.mean(subpath_lengths)),
        ms_per_query=1000.0 * elapsed / len(queries),
        n_queries=len(queries),
    )


def accuracy_sweep(
    workload: Workload,
    query_type: str,
    betas: Sequence[int] = (10, 20, 30, 40, 50),
    partitioners: Optional[Sequence[str]] = None,
    splitters: Optional[Sequence[str]] = None,
    **kwargs,
) -> List[AccuracyResult]:
    """The full grid of one sub-figure (Figures 5-9 a/b/c)."""
    grid = FIGURE5_CONFIGS[query_type]
    partitioners = partitioners or grid["partitioners"]
    splitters = splitters or grid["splitters"]
    results = []
    for splitter in splitters:
        for partitioner in partitioners:
            for beta in betas:
                results.append(
                    run_accuracy_config(
                        workload, query_type, partitioner, splitter, beta,
                        **kwargs,
                    )
                )
    return results


def baseline_numbers(
    workload: Workload, max_queries: Optional[int] = None
) -> Dict[str, float]:
    """Speed-limit and segment-level baseline errors (Section 6.1)."""
    queries = workload.queries[:max_queries] if max_queries else workload.queries
    speed = SpeedLimitBaseline(workload.network)
    segment = SegmentLevelBaseline(workload.index, workload.network)

    speed_errors, segment_errors = [], []
    for spec in queries:
        path = list(spec.path)
        speed_errors.append(
            symmetric_ape(speed.estimate(path), spec.true_duration)
        )
        segment_errors.append(
            symmetric_ape(
                segment.estimate(path, spec.start_time), spec.true_duration
            )
        )
    return {
        "speed_limit_smape": float(np.mean(speed_errors)),
        "segment_level_smape": float(np.mean(segment_errors)),
    }


# --------------------------------------------------------------------- #
# Figure 10: temporal partitioning
# --------------------------------------------------------------------- #


def partitioning_report(
    workload: Workload,
    partition_days_list: Sequence[Optional[int]] = (7, 30, 90, 365, None),
    tod_bucket_minutes: Sequence[int] = (1, 5, 10),
    include_btree: bool = True,
) -> List[Dict]:
    """Build the index per partition grain and record memory + setup time.

    Returns one row per configuration with the component sizes of
    Figure 10a, the time-of-day histogram store sizes of Figure 10b, and
    the setup time of Figure 10c.
    """
    rows: List[Dict] = []
    trajectories = workload.dataset.trajectories
    alphabet = workload.network.alphabet_size

    configs: List[Tuple[Optional[int], str]] = [
        (days, "css") for days in partition_days_list
    ]
    if include_btree:
        configs.append((None, "btree"))

    for days, kind in configs:
        index = SNTIndex.build(
            trajectories, alphabet, partition_days=days, kind=kind
        )
        sizes = index.component_sizes()
        tod_sizes = {
            minutes: index.build_tod_store(minutes * 60).size_in_bytes()
            for minutes in tod_bucket_minutes
        }
        rows.append(
            {
                "partition_days": days,
                "kind": kind,
                "n_partitions": index.n_partitions,
                "setup_seconds": index.build_stats.setup_seconds,
                "component_bytes": sizes,
                "tod_store_bytes": tod_sizes,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Figure 11: cardinality estimator
# --------------------------------------------------------------------- #


def estimator_report(
    workload: Workload,
    modes: Sequence[str] = ("ISA", "BT-Fast", "CSS-Fast", "BT-Acc", "CSS-Acc"),
    beta: int = 20,
    alpha_min_s: int = DEFAULT_INTERVAL_LADDER_S[0],
    max_queries: Optional[int] = None,
) -> Dict[str, Dict]:
    """Q-error per estimator mode over the workload's sub-queries.

    As in the paper (Figure 11a), estimates are compared against the true
    cardinality ``n`` of the initial pi_Z sub-queries, with the q-error
    convention of Section 5.3.4.  Two predicate families are probed:

    * periodic time-of-day windows (exercising formulas 1/2), and
    * fixed "recent history" time frames — "a user might wish to limit the
      query to a certain time frame, e.g. only considering trajectories
      within the past year" — exercising formula 3 vs. the CSS-tree's
      exact range count.
    """
    from ..core.intervals import FixedInterval
    from ..core.partitioning import get_partitioner

    queries = workload.queries[:max_queries] if max_queries else workload.queries
    partition = get_partitioner("pi_Z")

    estimators = {
        mode: CardinalityEstimator(workload.index, mode)
        for mode in modes
        if not (mode.startswith("CSS") and workload.index.kind != "css")
    }
    estimates: Dict[str, List[float]] = {mode: [] for mode in estimators}
    actuals: List[float] = []
    # "Past year": the most recent quarter of the indexed history.
    recent = FixedInterval(
        workload.index.t_min
        + (workload.t_max - workload.index.t_min) * 3 // 4,
        workload.t_max,
    )
    for spec in queries:
        trip = spec.to_query("temporal", alpha_min_s, workload.t_max, beta)
        for segment in partition(trip.path, workload.network):
            path = trip.path[segment.start : segment.end]
            for interval in (trip.interval, recent):
                sub = trip.with_path(path).with_interval(interval)
                actual = count_matches(
                    workload.index,
                    sub.path,
                    sub.interval,
                    user=sub.user,
                    exclude_ids=(spec.traj_id,),
                )
                actuals.append(actual)
                for mode, estimator in estimators.items():
                    estimates[mode].append(estimator.estimate(sub))

    return {
        mode: {
            "mean_q_error_log10": mean_q_error_log10(values, actuals),
            "n_subqueries": len(actuals),
        }
        for mode, values in estimates.items()
    }
