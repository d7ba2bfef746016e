"""Query planning: the pure half of Procedure 6.

The trip-query pipeline (paper Figure 2) has a natural seam: everything
that decides *what to ask the index* — partitioning the trip path into
sub-queries, applying the beta policy, adapting later intervals with
shift-and-enlarge (Dai et al.), and expanding a failing sub-query
through the relaxation ladder (Procedure 1) — is a pure function of the
query, the configuration, and already-completed outcomes.  This module
holds that half; :mod:`repro.core.exec` holds the other half (the fetch
and combine stages that actually touch the :class:`IndexReader` and the
cache).

Keeping the planner pure is what makes batched execution safe: a
:class:`SubQueryTask` is answered identically no matter which trip
demanded it, so the batch executor can deduplicate identical tasks
across trips and fan one index scan out to every owner — bit-identical
to running the trips sequentially.

The one impurity is quarantined behind :func:`make_split_fn`: the
``sigma_L`` (longest-prefix) splitter probes the index for match counts
to choose its split point.  The planner treats it as an opaque
callable, so the expansion itself stays deterministic given the
splitter's answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..network.graph import RoadNetwork
from .intervals import PeriodicInterval, TimeInterval, is_periodic
from .partitioning import get_partitioner
from .splitting import longest_prefix_splitter, modify_subquery, regular_split
from .spq import StrictPathQuery

if TYPE_CHECKING:  # the api layer sits above core; runtime imports are lazy
    from ..api.config import EngineConfig
    from ..sntindex.reader import IndexReader

__all__ = [
    "SubQueryKey",
    "SubQueryTask",
    "PlanPolicy",
    "SplitFn",
    "canonical_exclude",
    "plan_trip",
    "apply_shift_enlarge",
    "wants_shift_enlarge",
    "expand_relaxation",
    "make_split_fn",
]

#: Identity of one sub-query fetch: every input Procedure 5 reads; the
#: key of the cache's ``results`` section.
SubQueryKey = Tuple[
    Tuple[int, ...],
    TimeInterval,
    Optional[int],
    Optional[int],
    Tuple[int, ...],
]

#: Split-point chooser ``sigma`` fed to :func:`modify_subquery`.
SplitFn = Callable[[StrictPathQuery, TimeInterval], int]


def canonical_exclude(exclude_ids: Iterable[int]) -> Tuple[int, ...]:
    """Sorted, deduplicated exclusion tuple — the cache-key form."""
    return tuple(sorted({int(i) for i in exclude_ids}))


@dataclass(frozen=True, slots=True)
class SubQueryTask:
    """One plannable unit of fetch work.

    The answer to a task depends only on its fields (retrieval is
    membership-filtered on ``exclude_ids``, so the canonical sorted
    tuple answers for every raw ordering) — never on the trip that
    emitted it.  That independence is the entire basis of cross-trip
    deduplication.
    """

    query: StrictPathQuery
    #: Canonical (sorted, deduplicated) excluded trajectory ids.
    exclude_ids: Tuple[int, ...]

    @property
    def key(self) -> SubQueryKey:
        """The shared-cache ``result_key`` (PR-1/PR-4 contract)."""
        query = self.query
        return (
            query.path,
            query.interval,
            query.user,
            query.beta,
            self.exclude_ids,
        )


@dataclass(frozen=True)
class PlanPolicy:
    """The config-derived inputs of the planner, resolved once per engine.

    A read-only snapshot of the answer-shaping
    :class:`~repro.api.EngineConfig` fields plus the resolved
    partitioner callable, so the planner never reaches back into the
    config object on the per-sub-query hot path.
    """

    partitioner_name: str
    partition: Callable[[Sequence[int], RoadNetwork], List[Any]]
    splitter: str
    ladder: Tuple[int, ...]
    bucket_width_s: float
    max_relaxations: int
    shift_and_enlarge: bool
    beta_policy: Optional[
        Callable[[Tuple[int, ...], Optional[int]], Optional[int]]
    ]

    @classmethod
    def from_config(cls, config: "EngineConfig") -> "PlanPolicy":
        return cls(
            partitioner_name=config.partitioner,
            partition=get_partitioner(config.partitioner),
            splitter=config.splitter,
            ladder=tuple(config.ladder),
            bucket_width_s=float(config.bucket_width_s),
            max_relaxations=config.max_relaxations,
            shift_and_enlarge=config.shift_and_enlarge,
            beta_policy=config.beta_policy,
        )


def plan_trip(
    policy: PlanPolicy, query: StrictPathQuery, network: RoadNetwork
) -> List[StrictPathQuery]:
    """The initial decomposition: partition the trip path into sub-queries.

    Paper Figure 2 step 1 — the Query Partitioner splits the path with
    the ``pi`` method, each segment optionally keeping the user
    predicate (``pi_MDM`` drops it off main roads), and the beta policy
    maps the trip's cardinality requirement onto each sub-path.  Pure:
    same (policy, query, network) always yields the same plan.
    """
    planned: List[StrictPathQuery] = []
    for segment in policy.partition(query.path, network):
        sub_path = query.path[segment.start : segment.end]
        beta = (
            policy.beta_policy(sub_path, query.beta)
            if policy.beta_policy is not None
            else query.beta
        )
        planned.append(
            StrictPathQuery(
                path=sub_path,
                interval=query.interval,
                user=query.user if segment.keep_user else None,
                beta=beta,
            )
        )
    return planned


def wants_shift_enlarge(
    policy: PlanPolicy, sub: StrictPathQuery, has_outcomes: bool
) -> bool:
    """Whether Procedure 6 line 4 applies to this sub-query now."""
    return (
        policy.shift_and_enlarge
        and is_periodic(sub.interval)
        and not sub.shift_applied
        and has_outcomes
    )


def apply_shift_enlarge(
    sub: StrictPathQuery, shift_s: float, enlarge_s: float
) -> StrictPathQuery:
    """Shift-and-enlarge (Dai et al.): adapt a later sub-query's periodic
    interval by the accumulated minima (``S_i``) and ranges (``R_i``) of
    the earlier histograms, once per relaxation chain."""
    interval = sub.interval
    assert isinstance(interval, PeriodicInterval)  # wants_shift_enlarge gated
    return sub.with_interval(
        interval.shifted_and_enlarged(int(shift_s), int(np.ceil(enlarge_s)))
    ).marked_shifted()


def expand_relaxation(
    policy: PlanPolicy,
    sub: StrictPathQuery,
    t_max: int,
    split_fn: SplitFn,
) -> List[StrictPathQuery]:
    """Procedure 1 as a pure planner: widen, then split, then drop filters.

    Returns the replacement sub-queries *in path order*; the caller owns
    queue placement (the engine pushes them back onto the head of its
    work queue) and the relaxation budget.
    """
    return modify_subquery(sub, policy.ladder, t_max, split_fn)


def make_split_fn(
    policy: PlanPolicy,
    index: "IndexReader",
    exclude_ids: Sequence[int],
) -> SplitFn:
    """The ``sigma`` split-point chooser for one trip's relaxations.

    ``sigma_R`` is pure; ``sigma_L`` closes over the index's exact match
    counter (with the trip's exclusions), which is why the splitter is
    built per trip and handed to the planner as an opaque callable.
    """
    if policy.splitter == "regular":
        return regular_split

    def counter(
        path: Sequence[int],
        interval: TimeInterval,
        user: Optional[int],
        limit: Optional[int],
    ) -> int:
        return int(
            index.count_matches(
                path,
                interval,
                user=user,
                exclude_ids=exclude_ids,
                limit=limit,
            )
        )

    return longest_prefix_splitter(counter)
