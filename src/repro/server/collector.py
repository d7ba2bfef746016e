"""The request collector: connection multiplexing onto dedup rounds.

This is the piece that turns the PR-5 property — concurrent requests
*speed each other up* — into an HTTP-tier behaviour.  Trips submitted
by any number of connection handlers land in one queue; the collector
gathers everything that arrives within the configured collection
window (or up to ``max_batch``) and submits the whole window as **one**
``query_many`` dedup round on a bounded executor-thread pool.  Repeated
sub-paths across clients are then scanned once per round, exactly as if
the clients had been one in-process batch.  The window is only waited
out while some open connection is between requests or mid-read
(``more_riders``): once every connection has queued its trips, waiting
cannot add a rider and the round is dispatched at once — so an idle
keep-alive connection keeps the full window, and brand-new connections
whose first request is read before the others are accepted share
through the sub-query cache, not the round.

Admission control lives here too: the collector tracks trips admitted
but not yet answered and rejects past ``max_inflight`` with
:class:`~repro.errors.AdmissionError` (the connection handler maps it
to HTTP 429 + ``Retry-After``), so the queue is bounded by
construction — backpressure the way ``TravelTimeDB.stream`` bounds its
window, applied to the network edge.

Everything except the round execution itself runs on the event-loop
thread: ``submit_many`` is handler-side loop code, the gather loop is a
single task, and round completion is marshalled back via
``run_in_executor``'s future — so the admission counter needs no lock.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Set

from ..core.engine import TripQueryResult
from ..errors import AdmissionError, ServerError
from .config import ServerConfig
from .stats import ServerStats

if TYPE_CHECKING:
    from ..api.db import TravelTimeDB
    from ..api.request import TripRequest

__all__ = ["RequestCollector"]


@dataclass
class _Entry:
    """One admitted trip waiting for (or riding in) a round."""

    request: "TripRequest"
    future: "asyncio.Future[TripQueryResult]"
    admitted_at: float
    # Entries whose future is already done when a round forms (client
    # gone, handler cancelled) are dropped from the round — a window of
    # nothing but dropped entries short-circuits to no round at all.


@dataclass
class RequestCollector:
    """Windowed trip batching over one :class:`TravelTimeDB` session."""

    db: "TravelTimeDB"
    config: ServerConfig
    executor: Executor
    stats: ServerStats
    #: Whether some open connection could still submit into the window
    #: being gathered (the server passes "a handler is not busy").  The
    #: default knows no connections and always waits the window out.
    more_riders: Callable[[], bool] = lambda: True
    _queue: "asyncio.Queue[Optional[_Entry]]" = field(
        default_factory=asyncio.Queue
    )
    _inflight: int = 0
    _closing: bool = False
    _gather_task: Optional["asyncio.Task[None]"] = None
    _round_tasks: Set["asyncio.Task[None]"] = field(default_factory=set)

    @property
    def inflight(self) -> int:
        """Trips admitted but not yet answered (the queue depth the
        admission bound protects)."""
        return self._inflight

    def start(self) -> None:
        self._gather_task = asyncio.get_running_loop().create_task(
            self._gather_loop()
        )

    # ------------------------------------------------------------------ #
    # Handler side
    # ------------------------------------------------------------------ #

    def submit_many(
        self, requests: Sequence["TripRequest"]
    ) -> List["asyncio.Future[TripQueryResult]"]:
        """Admit validated trips into the next collection window(s).

        All-or-nothing per call: a batch that does not fit under
        ``max_inflight`` is rejected whole (:class:`AdmissionError`),
        so a client never gets half a batch answered and half 429'd.
        Raises :class:`ServerError` once shutdown has begun.
        """
        if not requests:
            return []
        if self._closing:
            raise ServerError(
                "server is shutting down; not admitting new requests"
            )
        n_new = len(requests)
        limit = self.config.max_inflight
        if self._inflight + n_new > limit:
            raise AdmissionError(
                f"admission bound reached ({self._inflight} trips in "
                f"flight, limit {limit}, {n_new} more requested); retry "
                f"after {self.config.retry_after_s}s",
                retry_after_s=self.config.retry_after_s,
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        entries = [
            _Entry(request, loop.create_future(), now)
            for request in requests
        ]
        self._inflight += n_new
        self.stats.note_admitted(n_new, self._inflight)
        for entry in entries:
            self._queue.put_nowait(entry)
        return [entry.future for entry in entries]

    # ------------------------------------------------------------------ #
    # Collector side
    # ------------------------------------------------------------------ #

    async def _gather_loop(self) -> None:
        """Form collection windows until the shutdown sentinel arrives.

        A window opens when its first trip arrives and closes after
        ``window_s``, at ``max_batch``, or as soon as the queue is empty
        and ``more_riders()`` is false; whatever was gathered is
        submitted as one round task.  Rounds overlap gathering: the
        loop never waits for a round to finish.
        """
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is None:
                break
            batch = [first]
            deadline = loop.time() + self.config.window_s
            saw_sentinel = closed_early = False
            while len(batch) < self.config.max_batch:
                entry: Optional[_Entry]
                try:
                    entry = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    if not self.more_riders():
                        closed_early = True
                        break
                    try:
                        entry = await asyncio.wait_for(
                            self._queue.get(), timeout
                        )
                    except asyncio.TimeoutError:
                        break
                if entry is None:
                    saw_sentinel = True
                    break
                batch.append(entry)
            self._submit_round(batch, closed_early)
            if saw_sentinel:
                break

    def _submit_round(self, batch: List[_Entry], closed_early: bool) -> None:
        # Entries abandoned while queued (handler cancelled, connection
        # gone) leave the round before it forms; a window containing
        # nothing else short-circuits — no executor submission, no
        # empty query_many, and the admission counter is settled here
        # so the dropped capacity frees immediately.
        live = [entry for entry in batch if not entry.future.done()]
        dropped = len(batch) - len(live)
        if dropped:
            self._inflight -= dropped
        if not live:
            return
        if closed_early:
            self.stats.rounds_closed_early += 1
        task = asyncio.get_running_loop().create_task(
            self._run_round(live)
        )
        self._round_tasks.add(task)
        task.add_done_callback(self._round_tasks.discard)

    async def _run_round(self, entries: List[_Entry]) -> None:
        """Execute one window as one dedup round off the loop thread."""
        loop = asyncio.get_running_loop()
        requests = [entry.request for entry in entries]
        try:
            results, dedup = await loop.run_in_executor(
                self.executor,
                lambda: self.db.query_many_with_stats(requests),
            )
        except Exception as error:
            # One poisoned trip fails its whole round; handlers answer
            # 500 per trip.  Requests were validated at the edge, so
            # this is an engine/index failure, not client input.
            self.stats.trips_failed += len(entries)
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(error)
            # A Future whose exception is never retrieved (handler gone)
            # would log noisily at GC; touching it here marks every
            # round member as observed.
            for entry in entries:
                if entry.future.cancelled():
                    continue
                entry.future.exception()
        else:
            # A rider whose handler went away mid-round was not answered.
            now = loop.time()
            resolved = 0
            for entry, result in zip(entries, results):
                if not entry.future.done():
                    entry.future.set_result(result)
                    self.stats.latency.record(now - entry.admitted_at)
                    resolved += 1
            self.stats.note_round(resolved, dedup)
        finally:
            self._inflight -= len(entries)

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    async def drain_and_stop(self) -> None:
        """Stop admitting, flush every queued trip through final rounds,
        and wait for all in-flight rounds to complete.

        Every admitted trip's future is resolved by the time this
        returns — the graceful-shutdown drain contract.
        """
        self._closing = True
        self._queue.put_nowait(None)
        if self._gather_task is not None:
            await self._gather_task
            self._gather_task = None
        if self._round_tasks:
            await asyncio.gather(
                *tuple(self._round_tasks), return_exceptions=True
            )
