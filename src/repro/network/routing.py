"""Shortest-path routing over the road network.

Used by the trajectory generator (drivers route by expected travel time
with personal taste perturbations) and by the risk-averse routing example
(generate alternatives, cost each with a travel-time histogram query).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from ..errors import NetworkError
from .graph import RoadNetwork

__all__ = ["shortest_path", "alternative_paths"]


def shortest_path(
    network: RoadNetwork,
    source: int,
    target: int,
    edge_weight: Optional[Callable[[int], float]] = None,
) -> Optional[List[int]]:
    """Dijkstra shortest path; returns an edge-id path or ``None``.

    Parameters
    ----------
    network:
        The road network.
    source, target:
        Vertex ids.
    edge_weight:
        Weight function mapping edge id to a positive cost; defaults to the
        network's ``estimateTT`` (expected seconds at the speed limit).
    """
    if edge_weight is None:
        edge_weight = network.estimate_tt
    if source == target:
        return []
    distances: Dict[int, float] = {source: 0.0}
    predecessor_edge: Dict[int, int] = {}
    heap: List = [(0.0, source)]
    visited = set()
    while heap:
        distance, vertex = heapq.heappop(heap)
        if vertex in visited:
            continue
        if vertex == target:
            break
        visited.add(vertex)
        for edge_id in network.out_edges(vertex):
            weight = edge_weight(edge_id)
            if weight <= 0:
                raise NetworkError(f"non-positive weight for edge {edge_id}")
            neighbour = network.edge(edge_id).target
            candidate = distance + weight
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                predecessor_edge[neighbour] = edge_id
                heapq.heappush(heap, (candidate, neighbour))
    if target not in predecessor_edge:
        return None
    path: List[int] = []
    vertex = target
    while vertex != source:
        edge_id = predecessor_edge[vertex]
        path.append(edge_id)
        vertex = network.edge(edge_id).source
    path.reverse()
    return path


def alternative_paths(
    network: RoadNetwork,
    source: int,
    target: int,
    k: int = 3,
    penalty: float = 1.4,
) -> List[List[int]]:
    """Generate up to ``k`` distinct paths via iterative edge penalisation.

    After each shortest-path computation, the weights of its edges are
    multiplied by ``penalty``, steering subsequent searches onto
    alternative routes.  Simple but effective for the routing example.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if penalty <= 1.0:
        raise ValueError("penalty must exceed 1.0")
    weights: Dict[int, float] = {}

    def weight(edge_id: int) -> float:
        base = weights.get(edge_id)
        if base is None:
            base = network.estimate_tt(edge_id)
            weights[edge_id] = base
        return base

    paths: List[List[int]] = []
    seen = set()
    for _ in range(k * 2):  # a few extra tries to find distinct routes
        path = shortest_path(network, source, target, edge_weight=weight)
        if path is None:
            break
        key = tuple(path)
        if key not in seen:
            seen.add(key)
            paths.append(path)
            if len(paths) == k:
                break
        for edge_id in path:
            weights[edge_id] = weight(edge_id) * penalty
    return paths
