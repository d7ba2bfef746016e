"""Serving-tier statistics: counters, dedup accounting, latencies.

Everything here is mutated from the event-loop thread only (connection
handlers and the collector both run on the loop), so no locks are
needed; ``snapshot()`` may be called from any thread and reads plain
ints/floats (CPython attribute reads are atomic — a snapshot taken
mid-burst is merely a moment in time, never corrupt).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, Optional

from ..core.exec import DedupStats

__all__ = ["LatencyRing", "ClientStats", "ServerStats"]


class LatencyRing:
    """A bounded ring of per-trip latencies with quantile readout.

    O(window) memory forever; ``percentile`` sorts a copy on demand —
    ``/stats`` is rare next to the request path, so the cost lands on
    the reader.
    """

    def __init__(self, window: int) -> None:
        self._samples: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self._count += 1
        self._total += seconds

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (0..1) of the retained window; ``None``
        before the first sample."""
        ordered = sorted(self._samples)
        if not ordered:
            return None
        position = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[position]

    def snapshot_ms(self) -> Dict[str, Any]:
        p50 = self.percentile(0.50)
        p99 = self.percentile(0.99)
        mean = self._total / self._count if self._count else None
        return {
            "count": self._count,
            "p50_ms": None if p50 is None else round(p50 * 1000, 3),
            "p99_ms": None if p99 is None else round(p99 * 1000, 3),
            "mean_ms": None if mean is None else round(mean * 1000, 3),
        }


class ClientStats:
    """Per-client (peer address) accounting."""

    def __init__(self) -> None:
        self.requests = 0
        self.trips = 0
        self.rejected = 0
        self.invalid = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "trips": self.trips,
            "rejected": self.rejected,
            "invalid": self.invalid,
        }


class ServerStats:
    """Aggregate serving statistics surfaced on ``GET /stats``."""

    #: Distinct peers tracked before new ones are folded into "other"
    #: (a public server must not grow per-client state unboundedly).
    MAX_CLIENTS = 1024

    def __init__(self, latency_window: int) -> None:
        self.started_at = time.time()
        self.connections = 0
        self.http_requests = 0
        self.trips_admitted = 0
        self.trips_answered = 0
        self.trips_failed = 0
        self.rejected_trips = 0
        self.invalid_requests = 0
        self.rounds = 0
        #: Rounds dispatched before ``window_s`` ran out because no open
        #: connection could have added a rider.
        self.rounds_closed_early = 0
        self.peak_inflight = 0
        self.dedup = DedupStats()
        self.latency = LatencyRing(latency_window)
        self.clients: Dict[str, ClientStats] = {}

    def client(self, peer: str) -> ClientStats:
        stats = self.clients.get(peer)
        if stats is None:
            if len(self.clients) >= self.MAX_CLIENTS:
                peer = "other"
                stats = self.clients.get(peer)
                if stats is not None:
                    return stats
            stats = ClientStats()
            self.clients[peer] = stats
        return stats

    def note_admitted(self, n_trips: int, inflight: int) -> None:
        self.trips_admitted += n_trips
        self.peak_inflight = max(self.peak_inflight, inflight)

    def note_round(self, n_trips: int, dedup: DedupStats) -> None:
        self.rounds += 1
        self.trips_answered += n_trips
        self.dedup.absorb(dedup)

    def snapshot(self, queue_depth: int) -> Dict[str, Any]:
        """The ``/stats`` payload (JSON-compatible)."""
        dedup = self.dedup
        shareable = dedup.planned_subqueries
        absorbed = dedup.scans_saved + dedup.cache_hits
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "connections": self.connections,
            "requests": {
                "http": self.http_requests,
                "trips_admitted": self.trips_admitted,
                "trips_answered": self.trips_answered,
                "trips_failed": self.trips_failed,
                "rejected": self.rejected_trips,
                "invalid": self.invalid_requests,
            },
            "queue": {
                "depth": queue_depth,
                "peak": self.peak_inflight,
            },
            "rounds": {
                "count": self.rounds,
                "closed_early": self.rounds_closed_early,
                "planned_subqueries": dedup.planned_subqueries,
                "unique_subqueries": dedup.unique_subqueries,
                "index_scans": dedup.n_index_scans,
                "cache_hits": dedup.cache_hits,
                # Replayed trips are counted as if they had run: one
                # the cache's trip memo answered adds its demands to
                # planned_subqueries and cache_hits; a request identical
                # to an earlier one of the same round adds them to
                # planned_subqueries, and to cache_hits or scans_saved
                # as its twin's demands were hits or scans.
                "scans_saved": dedup.scans_saved,
                # Fraction of planned sub-query work answered without
                # its own index scan (shared-round dedup or cache).
                "dedup_hit_rate": (
                    round(absorbed / shareable, 4) if shareable else 0.0
                ),
            },
            "latency": self.latency.snapshot_ms(),
            "clients": {
                peer: stats.snapshot()
                for peer, stats in self.clients.items()
            },
        }
