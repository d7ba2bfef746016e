"""`ServerConfig`: one frozen, validated serving-tier configuration.

The HTTP tier's counterpart of :class:`repro.api.EngineConfig`:
everything that shapes *how the server schedules and protects* query
execution — listen address, the collection window that turns concurrent
connections into shared dedup rounds, the admission bound, executor
width, shutdown grace — lives here, is validated once at construction
(:class:`~repro.errors.ConfigurationError`, never a bare ``ValueError``),
and is hashable/comparable.  Nothing in it ever changes an answer; it is
pure serving plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..errors import ConfigurationError, is_count

__all__ = ["ServerConfig"]


@dataclass(frozen=True)
class ServerConfig:
    """Immutable HTTP serving-tier configuration.

    Attributes
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port (tests and
        benchmarks); the bound port is readable from the running server.
    window_s:
        The collection window: after the first trip of a round arrives,
        the collector keeps gathering trips for up to this long (or
        until ``max_batch``) before submitting the round, so requests
        from *different connections* land in one ``query_many`` dedup
        round and share sub-query scans.  It is waited out only while
        some open connection is between requests or mid-read: once every
        connection has queued its trips the round goes at once (so an
        idle keep-alive connection, e.g. a ``/stats`` poller, keeps the
        full window; brand-new connections whose first request is read
        before the others are accepted share through the sub-query
        cache, not the round).  ``0`` disables windowing (each round is
        whatever is already queued) — the latency knob: a larger window
        trades first-byte latency for cross-client dedup.
    max_batch:
        Maximum trips per collection round.  Bounds round latency under
        load: a full round is submitted immediately without waiting out
        the window.
    max_inflight:
        Admission bound on trips admitted but not yet answered — the
        backpressure valve, bounding queue growth the way ``stream``
        bounds its window.  A request that would exceed it is rejected
        fast with HTTP 429 and a ``Retry-After`` hint instead of
        queueing unboundedly.
    executor_workers:
        Threads executing collection rounds.  Rounds overlap: while one
        executes, the collector gathers the next window.  Each round
        itself is one ``query_many`` — the engine's deduplicating batch
        executor — on its executor thread.
    retry_after_s:
        Backoff hint carried by 429 responses (``Retry-After`` header,
        integer-ceiled per HTTP, plus the exact float in the JSON error
        body).
    max_body_bytes:
        Largest request body accepted; beyond it the connection gets
        HTTP 413.  Protects the loop from a client streaming an
        unbounded batch payload.
    shutdown_grace_s:
        On graceful shutdown, how long to wait for connection handlers
        to finish writing responses for already-admitted trips (the
        drained rounds themselves always complete) before force-closing
        the stragglers.
    latency_window:
        Per-trip latencies kept for the ``/stats`` p50/p99 percentiles
        (a bounded ring, so a long-running server's stats stay O(1)
        in memory).
    """

    host: str = "127.0.0.1"
    port: int = 8374
    window_s: float = 0.005
    max_batch: int = 64
    max_inflight: int = 256
    executor_workers: int = 2
    retry_after_s: float = 0.05
    max_body_bytes: int = 1_048_576
    shutdown_grace_s: float = 5.0
    latency_window: int = 4096

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError(
                f"host must be a non-empty string; got {self.host!r}"
            )
        if (
            not isinstance(self.port, int)
            or isinstance(self.port, bool)
            or not 0 <= self.port <= 65_535
        ):
            raise ConfigurationError(
                f"port must be an integer in [0, 65535]; got {self.port!r}"
            )
        try:
            window = float(self.window_s)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"window_s must be a number of seconds; got {self.window_s!r}"
            ) from error
        if not 0 <= window <= 1:
            raise ConfigurationError(
                "window_s must be in [0, 1] seconds (a collection window "
                f"is milliseconds, not minutes); got {self.window_s!r}"
            )
        object.__setattr__(self, "window_s", window)
        for name in ("max_batch", "max_inflight", "executor_workers",
                     "latency_window"):
            value = getattr(self, name)
            if not is_count(value):
                raise ConfigurationError(
                    f"{name} must be a positive integer; got {value!r}"
                )
        if self.max_batch > self.max_inflight:
            raise ConfigurationError(
                f"max_batch ({self.max_batch}) cannot exceed max_inflight "
                f"({self.max_inflight}); a full round must be admissible"
            )
        for name in ("retry_after_s", "shutdown_grace_s"):
            value = getattr(self, name)
            try:
                as_float = float(value)
            except (TypeError, ValueError) as error:
                raise ConfigurationError(
                    f"{name} must be a number of seconds; got {value!r}"
                ) from error
            if not as_float > 0:
                raise ConfigurationError(
                    f"{name} must be positive; got {value!r}"
                )
            object.__setattr__(self, name, as_float)
        if (
            not isinstance(self.max_body_bytes, int)
            or isinstance(self.max_body_bytes, bool)
            or self.max_body_bytes < 1024
        ):
            raise ConfigurationError(
                "max_body_bytes must be an integer >= 1024; got "
                f"{self.max_body_bytes!r}"
            )

    def replace(self, **changes: Any) -> "ServerConfig":
        """A copy with the given fields changed (re-validated)."""
        return replace(self, **changes)
