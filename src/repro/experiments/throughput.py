"""Query-throughput experiment (paper Section 7, future work).

The paper's outlook: "While the processing time of a single query might
not considerably improve through parallelization, the overall query
throughput of the system most likely could, making it suitable for online
routing applications that support a large number of users."

The SNT-index is immutable after build, so concurrent readers need no
synchronisation.  This experiment measures queries/second for a fixed
batch of trip queries executed by 1..N worker threads sharing one index.
CPython's GIL caps the speed-up for pure-Python sections, but the numpy
kernels (temporal scans, mask filters) release the GIL, so moderate
scaling is expected — the honest quantification is the point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from ..api import EngineConfig, TripRequest, open_db
from .workload import Workload

__all__ = ["ThroughputResult", "measure_throughput"]


@dataclass(frozen=True)
class ThroughputResult:
    """Queries/second for one worker count."""

    n_workers: int
    n_queries: int
    elapsed_s: float

    @property
    def queries_per_second(self) -> float:
        return self.n_queries / self.elapsed_s if self.elapsed_s > 0 else 0.0


def measure_throughput(
    workload: Workload,
    worker_counts: Sequence[int] = (1, 2, 4),
    n_queries: int = 60,
    beta: int = 20,
    partitioner: str = "pi_Z",
) -> List[ThroughputResult]:
    """Run the same query batch under different worker-pool sizes.

    Execution goes through :meth:`repro.api.TravelTimeDB.query_many`
    (uncached, so every run measures real index work); the session owns
    the thread-pool fan-out over the shared immutable index.
    """
    if any(w < 1 for w in worker_counts):
        raise ValueError("worker counts must be positive")
    specs = workload.queries[:n_queries]
    requests = [
        TripRequest.from_spq(
            spec.to_query("temporal", 900, workload.t_max, beta),
            exclude_ids=(spec.traj_id,),
        )
        for spec in specs
    ]

    results = []
    for n_workers in worker_counts:
        db = open_db(
            workload.index,
            network=workload.network,
            cache=None,
            config=EngineConfig(partitioner=partitioner),
        )
        started = time.perf_counter()
        answered = db.query_many(requests, n_workers=n_workers)
        elapsed = time.perf_counter() - started
        assert len(answered) == len(requests)
        results.append(
            ThroughputResult(
                n_workers=n_workers,
                n_queries=len(requests),
                elapsed_s=elapsed,
            )
        )
    return results
