"""The spatial network graph G = (V, E, F) (paper Section 2.2).

Vertices are intersections with planar coordinates; edges are *directed*
road segments carrying the attribute functions F: category, zone, speed
limit (km/h) and length (m).  From F the fallback travel-time estimate

    estimateTT(e) = 3.6 * length(e) / speed_limit(e)

is derived (Table 1), returning the traversal time in seconds at the speed
limit.  Edge identifiers start at 1 — symbol 0 is reserved for the ``$``
trajectory-string terminator of the FM-index.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import NetworkError, UnknownEdgeError
from .categories import TYPICAL_SPEED_LIMIT_KMH, RoadCategory
from .zones import ZoneType

__all__ = ["Edge", "RoadNetwork"]

Point = Tuple[float, float]


@dataclass(frozen=True)
class Edge:
    """A directed road segment with its F-attributes."""

    edge_id: int
    source: int
    target: int
    category: RoadCategory
    zone: ZoneType
    length_m: float
    #: ``None`` when OSM does not know the limit; the network then falls
    #: back to the median limit of the edge's category (paper 5.1.1).
    speed_limit_kmh: Optional[float] = None

    def __post_init__(self):
        if self.edge_id < 1:
            raise NetworkError("edge ids must be >= 1 (0 is the terminator)")
        if self.length_m <= 0:
            raise NetworkError(f"edge {self.edge_id}: non-positive length")
        if self.speed_limit_kmh is not None and self.speed_limit_kmh <= 0:
            raise NetworkError(f"edge {self.edge_id}: non-positive speed limit")


class RoadNetwork:
    """Directed road-network graph with attribute functions and fallbacks."""

    def __init__(self):
        self._vertices: Dict[int, Point] = {}
        self._edges: Dict[int, Edge] = {}
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        self._median_speed_cache: Dict[RoadCategory, float] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_vertex(self, vertex_id: int, position: Point) -> None:
        self._vertices[int(vertex_id)] = (float(position[0]), float(position[1]))

    def add_edge(self, edge: Edge) -> None:
        if edge.edge_id in self._edges:
            raise NetworkError(f"duplicate edge id {edge.edge_id}")
        if edge.source not in self._vertices or edge.target not in self._vertices:
            raise NetworkError(
                f"edge {edge.edge_id}: endpoints must be added as vertices first"
            )
        self._edges[edge.edge_id] = edge
        self._out.setdefault(edge.source, []).append(edge.edge_id)
        self._in.setdefault(edge.target, []).append(edge.edge_id)
        self._median_speed_cache.clear()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> Iterable[int]:
        return self._vertices.keys()

    def edges(self) -> Iterable[Edge]:
        return self._edges.values()

    def edge_ids(self) -> Iterable[int]:
        return self._edges.keys()

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._edges[int(edge_id)]
        except KeyError:
            raise UnknownEdgeError(edge_id) from None

    def has_edge(self, edge_id: int) -> bool:
        return int(edge_id) in self._edges

    def position(self, vertex_id: int) -> Point:
        try:
            return self._vertices[int(vertex_id)]
        except KeyError:
            raise NetworkError(f"unknown vertex {vertex_id}") from None

    def out_edges(self, vertex_id: int) -> List[int]:
        return list(self._out.get(int(vertex_id), ()))

    def in_edges(self, vertex_id: int) -> List[int]:
        return list(self._in.get(int(vertex_id), ()))

    @property
    def alphabet_size(self) -> int:
        """FM-index alphabet size: max edge id + 1 (for the terminator)."""
        return (max(self._edges) + 1) if self._edges else 1

    # ------------------------------------------------------------------ #
    # Attribute functions and estimateTT
    # ------------------------------------------------------------------ #

    def speed_limit(self, edge_id: int) -> float:
        """Speed limit in km/h, imputed per paper Section 5.1.1.

        If the segment's own limit is unknown, the median of all known
        limits of its category is used; if the whole category is unknown,
        a typical limit for the category.
        """
        edge = self.edge(edge_id)
        if edge.speed_limit_kmh is not None:
            return edge.speed_limit_kmh
        return self._median_category_speed(edge.category)

    def _median_category_speed(self, category: RoadCategory) -> float:
        cached = self._median_speed_cache.get(category)
        if cached is not None:
            return cached
        known = [
            e.speed_limit_kmh
            for e in self._edges.values()
            if e.category is category and e.speed_limit_kmh is not None
        ]
        value = (
            float(statistics.median(known))
            if known
            else float(TYPICAL_SPEED_LIMIT_KMH[category])
        )
        self._median_speed_cache[category] = value
        return value

    def estimate_tt(self, edge_id: int) -> float:
        """``estimateTT``: seconds to traverse the edge at the speed limit.

        ``estimateTT(e) = 3.6 * F(e).l / F(e).sl`` (paper Section 2.2);
        used as a fallback when no trajectory data is available.
        """
        edge = self.edge(edge_id)
        return 3.6 * edge.length_m / self.speed_limit(edge_id)

    # ------------------------------------------------------------------ #
    # Path helpers
    # ------------------------------------------------------------------ #

    def is_path(self, edge_ids: Sequence[int]) -> bool:
        """Whether the edge sequence is traversable (P in paper 2.2)."""
        if not edge_ids:
            return False
        for first, second in zip(edge_ids, edge_ids[1:]):
            if self.edge(first).target != self.edge(second).source:
                return False
        return True

    def path_length_m(self, edge_ids: Sequence[int]) -> float:
        """Total length of a path in meters."""
        return sum(self.edge(e).length_m for e in edge_ids)

    def path_estimate_tt(self, edge_ids: Sequence[int]) -> float:
        """Speed-limit travel-time estimate summed over a path."""
        return sum(self.estimate_tt(e) for e in edge_ids)

    def validate(self) -> None:
        """Structural validation; raises :class:`NetworkError`."""
        for edge in self._edges.values():
            if edge.source not in self._vertices:
                raise NetworkError(f"edge {edge.edge_id}: missing source")
            if edge.target not in self._vertices:
                raise NetworkError(f"edge {edge.edge_id}: missing target")
