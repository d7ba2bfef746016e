"""Evaluation workload: dataset, index, and the query set (paper 5.2, 6).

The query set ``Q`` is a random sample of trajectories whose start time
lies after the median timestamp of the dataset (ensuring more than half the
data span is available as history), mirroring the paper's 1 % sample of
6,942 trajectories.  Every query carries its ground truth: the sampled
trajectory's own durations.  The sampled trajectory is excluded from
retrieval by default (see DESIGN.md, "Self-inclusion note").

Three query types are evaluated (Section 6):

* **temporal**: periodic interval around the trip start, no user filter;
* **user**: periodic interval + the trip's driver as user filter;
* **spq**: fixed interval over the whole history, no user filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..config import ExperimentScale, get_scale
from ..core.intervals import FixedInterval, PeriodicInterval
from ..core.spq import StrictPathQuery
from ..sntindex.index import SNTIndex
from ..trajectories.generator import GeneratedDataset, generate_dataset
from ..trajectories.model import Trajectory

__all__ = ["QuerySpec", "Workload", "build_workload", "QUERY_TYPES"]

QUERY_TYPES = ("temporal", "user", "spq")

#: Queries shorter than this are skipped: the paper's query trips average
#: 55 segments / 13.7 km, so near-degenerate errand hops are not
#: representative of the evaluated workload.
MIN_QUERY_PATH_LENGTH = 8


@dataclass(frozen=True)
class QuerySpec:
    """One evaluation query with its ground truth."""

    traj_id: int
    user_id: int
    path: Tuple[int, ...]
    start_time: int
    #: True total duration ``a_tr`` of the sampled trajectory.
    true_duration: float
    #: Cumulative durations per position (prefix sums of TT), used to
    #: compute true durations of arbitrary sub-paths for weighted error.
    cumulative: Tuple[float, ...]

    def true_subpath_duration(self, start: int, stop: int) -> float:
        """True duration of ``path[start:stop)``."""
        before = self.cumulative[start - 1] if start else 0.0
        return self.cumulative[stop - 1] - before

    def to_query(
        self, query_type: str, alpha_min_s: int, t_max: int, beta: Optional[int]
    ) -> StrictPathQuery:
        """Materialise the spq for one of the paper's three query types."""
        if query_type == "temporal":
            return StrictPathQuery(
                path=self.path,
                interval=PeriodicInterval.around(self.start_time, alpha_min_s),
                beta=beta,
            )
        if query_type == "user":
            return StrictPathQuery(
                path=self.path,
                interval=PeriodicInterval.around(self.start_time, alpha_min_s),
                user=self.user_id,
                beta=beta,
            )
        if query_type == "spq":
            return StrictPathQuery(
                path=self.path,
                interval=FixedInterval(0, t_max),
                beta=beta,
            )
        raise ValueError(
            f"unknown query type {query_type!r}; expected one of {QUERY_TYPES}"
        )


@dataclass
class Workload:
    """Dataset + index + query set, shared across experiment runs."""

    dataset: GeneratedDataset
    index: SNTIndex
    queries: List[QuerySpec]
    scale: ExperimentScale

    @property
    def network(self):
        return self.dataset.network

    @property
    def t_max(self) -> int:
        return self.index.t_max


def _spec_from(trajectory: Trajectory) -> QuerySpec:
    return QuerySpec(
        traj_id=trajectory.traj_id,
        user_id=trajectory.user_id,
        path=trajectory.path,
        start_time=trajectory.start_time,
        true_duration=trajectory.duration(),
        cumulative=tuple(trajectory.cumulative_durations()),
    )


def build_workload(
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
    partition_days: Optional[int] = None,
    kind: str = "css",
    min_path_length: int = MIN_QUERY_PATH_LENGTH,
) -> Workload:
    """Generate dataset, build the index, and derive the query set."""
    if not isinstance(scale, ExperimentScale):
        scale = get_scale(scale if isinstance(scale, str) else None)
    dataset = generate_dataset(scale, seed=seed)
    index = SNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        partition_days=partition_days,
        kind=kind,
    )
    queries = derive_query_set(
        dataset, seed=seed, scale=scale, min_path_length=min_path_length
    )
    return Workload(dataset=dataset, index=index, queries=queries, scale=scale)


def derive_query_set(
    dataset: GeneratedDataset,
    seed: int,
    scale: ExperimentScale,
    min_path_length: int = MIN_QUERY_PATH_LENGTH,
) -> List[QuerySpec]:
    """Sample the query set from the second half of the data span."""
    start, end = dataset.trajectories.time_span()
    median = (start + end) // 2
    eligible = [
        trajectory
        for trajectory in dataset.trajectories
        if trajectory.start_time > median
        and len(trajectory) >= min_path_length
    ]
    if not eligible:
        raise ValueError(
            "no eligible query trajectories; lower min_path_length or grow "
            "the dataset"
        )
    rng = np.random.default_rng(seed + 77)
    target = max(
        1,
        min(
            scale.max_queries,
            int(round(len(eligible) * scale.query_sample_fraction / 0.5)),
        ),
    )
    chosen = rng.choice(
        len(eligible), size=min(target, len(eligible)), replace=False
    )
    return [_spec_from(eligible[i]) for i in sorted(chosen)]
