"""Core query processing: SPQs, planning, execution, estimation, engine.

Procedure 6 runs as a staged pipeline: :mod:`repro.core.plan` (pure
planning — partitioning, beta policy, shift-and-enlarge, relaxation
expansion), :mod:`repro.core.exec` (the trip machine, the fetch/combine
stages and the deduplicating batch executor), and :class:`QueryEngine`
as the thin driver over them — one driver: a single query is a batch of
one through :meth:`QueryEngine.run_batch`.
"""

from .engine import PerTripCache, QueryEngine, SubQueryOutcome, TripQueryResult
from .estimator import ESTIMATOR_MODES, CardinalityEstimator
from .exec import BatchExecutor, DedupStats, TripMachine
from .intervals import FixedInterval, PeriodicInterval, TimeInterval, is_periodic
from .plan import PlanPolicy, SubQueryTask
from .naive import naive_match_count, naive_travel_times
from .partitioning import PARTITIONER_NAMES, PathSegment, get_partitioner
from .policies import BetaPolicy, uniform_beta_policy, zone_beta_policy
from .splitting import longest_prefix_splitter, modify_subquery, regular_split
from .spq import StrictPathQuery

__all__ = [
    "StrictPathQuery",
    "FixedInterval",
    "PeriodicInterval",
    "TimeInterval",
    "is_periodic",
    "PathSegment",
    "get_partitioner",
    "PARTITIONER_NAMES",
    "regular_split",
    "longest_prefix_splitter",
    "modify_subquery",
    "CardinalityEstimator",
    "ESTIMATOR_MODES",
    "QueryEngine",
    "PerTripCache",
    "TripQueryResult",
    "SubQueryOutcome",
    "PlanPolicy",
    "SubQueryTask",
    "TripMachine",
    "BatchExecutor",
    "DedupStats",
    "naive_travel_times",
    "naive_match_count",
    "BetaPolicy",
    "uniform_beta_policy",
    "zone_beta_policy",
]
