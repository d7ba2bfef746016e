"""Query partitioning methods ``pi`` (paper Section 3.2).

A partitioner turns the full query path into an ordered list of sub-path
segments, each optionally keeping the query's user predicate.  Methods:

* ``pi_p`` (regular, p = 1, 2, 3): fixed-length chunks — the paper's
  baseline, equivalent to pre-computed histograms of length-p sub-paths;
* ``pi_C``: split at segment-category changes;
* ``pi_Z``: split at zone changes;
* ``pi_ZC``: split at (zone, category) changes;
* ``pi_N``: no initial partitioning (relaxation does everything);
* ``pi_MDM``: like ``pi_C`` but the user predicate is kept only on main
  roads (motorways and other major connecting roads), following the
  adaptive-predicate study the paper cites as [26].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..network.categories import MAIN_ROAD_CATEGORIES
from ..network.graph import RoadNetwork

__all__ = ["PathSegment", "get_partitioner", "PARTITIONER_NAMES"]


@dataclass(frozen=True)
class PathSegment:
    """One initial sub-query path: ``path[start:end)`` of the full path."""

    start: int
    end: int
    #: Whether the sub-query keeps the query's user predicate (pi_MDM drops
    #: it off main roads; every other method keeps it everywhere).
    keep_user: bool = True


Partitioner = Callable[[Sequence[int], RoadNetwork], List[PathSegment]]


def _regular(p: int) -> Partitioner:
    if p < 1:
        raise ValueError("regular partition length must be >= 1")

    def partition(path: Sequence[int], network: RoadNetwork) -> List[PathSegment]:
        l = len(path)
        return [
            PathSegment(start, min(start + p, l)) for start in range(0, l, p)
        ]

    return partition


def _split_on(
    key: Callable[[RoadNetwork, int], object]
) -> Partitioner:
    def partition(path: Sequence[int], network: RoadNetwork) -> List[PathSegment]:
        keys = [key(network, edge) for edge in path]
        segments: List[PathSegment] = []
        start = 0
        for i in range(1, len(path)):
            if keys[i] != keys[start]:
                segments.append(PathSegment(start, i))
                start = i
        segments.append(PathSegment(start, len(path)))
        return segments

    return partition


def _category_key(network: RoadNetwork, edge_id: int):
    return network.edge(edge_id).category


def _zone_key(network: RoadNetwork, edge_id: int):
    return network.edge(edge_id).zone


def _zone_category_key(network: RoadNetwork, edge_id: int):
    edge = network.edge(edge_id)
    return (edge.zone, edge.category)


def _none(path: Sequence[int], network: RoadNetwork) -> List[PathSegment]:
    return [PathSegment(0, len(path))]


def _mdm(path: Sequence[int], network: RoadNetwork) -> List[PathSegment]:
    base = _split_on(_category_key)(path, network)
    return [
        PathSegment(
            segment.start,
            segment.end,
            keep_user=(
                network.edge(path[segment.start]).category
                in MAIN_ROAD_CATEGORIES
            ),
        )
        for segment in base
    ]


_PARTITIONERS: Dict[str, Partitioner] = {
    "pi_1": _regular(1),
    "pi_2": _regular(2),
    "pi_3": _regular(3),
    "pi_C": _split_on(_category_key),
    "pi_Z": _split_on(_zone_key),
    "pi_ZC": _split_on(_zone_category_key),
    "pi_N": _none,
    "pi_MDM": _mdm,
}

PARTITIONER_NAMES: Tuple[str, ...] = tuple(_PARTITIONERS)


def get_partitioner(name: str) -> Partitioner:
    """Resolve a partitioning method by its paper name (e.g. ``"pi_Z"``)."""
    try:
        return _PARTITIONERS[name]
    except KeyError:
        raise KeyError(
            f"unknown partitioner {name!r}; expected one of "
            f"{sorted(_PARTITIONERS)}"
        ) from None
