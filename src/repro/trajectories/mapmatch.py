"""HMM map matching (Newson & Krumm style, paper reference [18]).

Matches a GPS fix sequence onto the road network with a Viterbi pass over
per-fix candidate edges:

* **emission**: Gaussian in the point-to-segment distance,
* **transition**: exponential in the absolute difference between on-network
  route distance and straight-line GPS displacement (the classic Newson &
  Krumm formulation that penalises detours and teleports).

The implementation targets the reproduction's network scales (hundreds to
a few thousand edges); route distances are computed with a radius-limited
Dijkstra and memoised.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Sequence, Tuple

from ..network.graph import RoadNetwork
from .gps import GPSPoint

__all__ = ["MapMatcher"]


class MapMatcher:
    """Viterbi map matcher over a road network."""

    def __init__(
        self,
        network: RoadNetwork,
        sigma_m: float = 8.0,
        beta_m: float = 20.0,
        candidate_radius_m: float = 40.0,
        max_candidates: int = 6,
        max_route_m: float = 2500.0,
    ):
        if sigma_m <= 0 or beta_m <= 0:
            raise ValueError("sigma and beta must be positive")
        self._network = network
        self._sigma = sigma_m
        self._beta = beta_m
        self._radius = candidate_radius_m
        self._max_candidates = max_candidates
        self._max_route = max_route_m
        self._route_cache: Dict[Tuple[int, int], float] = {}
        self._segments = [
            (
                edge.edge_id,
                network.position(edge.source),
                network.position(edge.target),
                edge.length_m,
            )
            for edge in network.edges()
        ]

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    @staticmethod
    def _project(
        point: Tuple[float, float],
        start: Tuple[float, float],
        end: Tuple[float, float],
    ) -> Tuple[float, float]:
        """(distance to segment, fraction along segment)."""
        px, py = point
        sx, sy = start
        ex, ey = end
        dx, dy = ex - sx, ey - sy
        norm = dx * dx + dy * dy
        if norm == 0:
            return math.hypot(px - sx, py - sy), 0.0
        fraction = ((px - sx) * dx + (py - sy) * dy) / norm
        fraction = min(1.0, max(0.0, fraction))
        qx, qy = sx + fraction * dx, sy + fraction * dy
        return math.hypot(px - qx, py - qy), fraction

    def _candidates(self, fix: GPSPoint) -> List[Tuple[int, float, float]]:
        """Candidate ``(edge, distance, fraction)`` within the radius."""
        found: List[Tuple[float, int, float]] = []
        for edge_id, start, end, _ in self._segments:
            distance, fraction = self._project((fix.x, fix.y), start, end)
            if distance <= self._radius:
                found.append((distance, edge_id, fraction))
        found.sort()
        return [
            (edge_id, distance, fraction)
            for distance, edge_id, fraction in found[: self._max_candidates]
        ]

    # ------------------------------------------------------------------ #
    # Route distances
    # ------------------------------------------------------------------ #

    def _vertex_route_distance(self, source: int, target: int) -> float:
        """Radius-limited Dijkstra distance in meters (inf when too far)."""
        if source == target:
            return 0.0
        key = (source, target)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        distances = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        result = math.inf
        while heap:
            distance, vertex = heapq.heappop(heap)
            if distance > self._max_route:
                break
            if vertex == target:
                result = distance
                break
            if distance > distances.get(vertex, math.inf):
                continue
            for edge_id in self._network.out_edges(vertex):
                edge = self._network.edge(edge_id)
                candidate = distance + edge.length_m
                if candidate < distances.get(edge.target, math.inf):
                    distances[edge.target] = candidate
                    heapq.heappush(heap, (candidate, edge.target))
        self._route_cache[key] = result
        return result

    def _route_distance(
        self,
        from_edge: int,
        from_fraction: float,
        to_edge: int,
        to_fraction: float,
    ) -> float:
        """On-network distance between positions on two edges."""
        a = self._network.edge(from_edge)
        b = self._network.edge(to_edge)
        if from_edge == to_edge:
            if to_fraction >= from_fraction:
                return (to_fraction - from_fraction) * a.length_m
            # Going backwards on the same edge: loop around.
            loop = self._vertex_route_distance(a.target, a.source)
            return (1.0 - from_fraction) * a.length_m + loop + to_fraction * b.length_m
        between = self._vertex_route_distance(a.target, b.source)
        return (
            (1.0 - from_fraction) * a.length_m
            + between
            + to_fraction * b.length_m
        )

    # ------------------------------------------------------------------ #
    # Viterbi
    # ------------------------------------------------------------------ #

    def match(self, fixes: Sequence[GPSPoint]) -> List[int]:
        """Return the most likely edge for every fix (empty when hopeless).

        Fixes without any candidate edge are skipped; the result keeps one
        edge per *retained* fix, so callers should pair it with
        :meth:`match_trace` for timing information.
        """
        edges, _ = self.match_trace(fixes)
        return edges

    def match_trace(
        self, fixes: Sequence[GPSPoint]
    ) -> Tuple[List[int], List[GPSPoint]]:
        """Viterbi decode: (edge per retained fix, the retained fixes)."""
        retained: List[GPSPoint] = []
        candidate_sets: List[List[Tuple[int, float, float]]] = []
        for fix in fixes:
            candidates = self._candidates(fix)
            if candidates:
                retained.append(fix)
                candidate_sets.append(candidates)
        if not candidate_sets:
            return [], []

        # Viterbi lattice.
        first = candidate_sets[0]
        scores = [self._emission(d) for _, d, _ in first]
        backptr: List[List[int]] = [[-1] * len(first)]
        for k in range(1, len(candidate_sets)):
            previous = candidate_sets[k - 1]
            current = candidate_sets[k]
            gps_dist = math.hypot(
                retained[k].x - retained[k - 1].x,
                retained[k].y - retained[k - 1].y,
            )
            new_scores = []
            pointers = []
            for edge_id, distance, fraction in current:
                best_score, best_prev = -math.inf, -1
                for j, (p_edge, _, p_fraction) in enumerate(previous):
                    route = self._route_distance(
                        p_edge, p_fraction, edge_id, fraction
                    )
                    transition = (
                        -abs(route - gps_dist) / self._beta
                        if math.isfinite(route)
                        else -1e9
                    )
                    score = scores[j] + transition
                    if score > best_score:
                        best_score, best_prev = score, j
                new_scores.append(best_score + self._emission(distance))
                pointers.append(best_prev)
            scores = new_scores
            backptr.append(pointers)

        # Backtrack.
        best_final = max(range(len(scores)), key=lambda i: scores[i])
        chosen = [0] * len(candidate_sets)
        chosen[-1] = best_final
        for k in range(len(candidate_sets) - 1, 0, -1):
            chosen[k - 1] = backptr[k][chosen[k]]
        edges = [
            candidate_sets[k][chosen[k]][0] for k in range(len(candidate_sets))
        ]
        return edges, retained

    def _emission(self, distance: float) -> float:
        return -0.5 * (distance / self._sigma) ** 2
