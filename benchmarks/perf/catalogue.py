"""The benchmark's metric catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repo root is the one definition of workload
names and of every metric's name, unit, direction and bound.  This
module loads it and adds the two things the driver's file cannot say:
``fail_share`` (always 0 on a healthy run, so not a contract metric)
and which counts and ratios must repeat exactly for a fixed seed.
README.md holds the prose: what each metric means, which end-to-end
metric each layer metric should move, and on which workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

__all__ = [
    "Metric",
    "WORKLOAD_NAMES",
    "RUN_SECONDS",
    "END_TO_END",
    "PER_LAYER",
    "PER_LAYER_NAMES",
    "CONTRACT_END_TO_END",
]

_SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: Counts, ratios and byte sizes that must repeat exactly for a fixed seed.
EXACT = frozenset({
    "fail_share",
    "index_bytes_per_record",
    "core.subqueries_per_trip",
    "core.relaxations_per_trip",
    "core.dedup_unique_ratio",
    "core.rounds_per_batch",
    "service.cache_hit_ratio",
    "fmindex.patterns_per_trip",
    "sntindex.scans_per_trip",
    "temporal.rows_selected_per_trip",
    "temporal.rows_returned_per_trip",
    "sntindex.shard_fanout",
    "sntindex.shard_prune_ratio",
    "fmindex.bytes_per_record",
    "temporal.bytes_per_record",
    "server.rejected_share",
})


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end: share of the baseline median by which the metric may
    #: worsen before it counts as a regression.  Per-layer: ``None``.
    bound: Optional[float] = None

    @property
    def exact(self) -> bool:
        return self.name in EXACT


def _metrics(section: str) -> Tuple[Metric, ...]:
    return tuple(
        Metric(m["name"], m["unit"], m["better"], m.get("bound"))
        for m in _SPEC[section]
    )


WORKLOAD_NAMES = tuple(w["name"] for w in _SPEC["workloads"])
#: How long one run times passes for, unless ``--seconds`` says otherwise.
RUN_SECONDS = float(_SPEC["run_seconds"])

#: What the driver reads.  ``fail_share`` is 0 on every healthy run and
#: the contract only takes metrics that are never 0 (its bounds are
#: shares of a median); the driver reads failures from
#: ``failed``/``attempted``.
CONTRACT_END_TO_END = _metrics("end_to_end")
#: Absolute bound: any failure at all is a regression.
END_TO_END = CONTRACT_END_TO_END + (Metric("fail_share", "ratio", "lower", 0.0),)

PER_LAYER = _metrics("per_layer")
PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
if not EXACT <= {m.name for m in END_TO_END + PER_LAYER}:
    raise ValueError("EXACT names a metric BENCHMARK.json does not have")
