"""The asyncio HTTP serving tier in front of a :class:`TravelTimeDB`.

:class:`TravelTimeServer` owns the listener, the per-connection
handlers, the :class:`~repro.server.collector.RequestCollector`, and a
bounded executor-thread pool.  The event loop does all scheduling and
bookkeeping; only dedup rounds run on executor threads, so ``/healthz``
and ``/stats`` stay responsive even when every executor worker is busy
— they are answered inline on the loop and never touch the collector.

Routes
------
``POST /v1/query``
    One :class:`~repro.api.TripRequest` wire form in, one
    :class:`TripQueryResult` wire form out.
``POST /v1/query_batch``
    ``{"requests": [...]}`` in, ``{"results": [...]}`` out, positionally
    aligned.  The whole batch joins the same collection window.
``GET /healthz``
    Liveness: ``{"status": "ok", ...}`` — served off the query path.
``GET /stats``
    The :class:`~repro.server.stats.ServerStats` snapshot.

Error mapping: invalid JSON or an invalid ``TripRequest`` is HTTP 400
carrying the wire-form error body (type + message, mirroring the typed
taxonomy); admission rejection is 429 with ``Retry-After``; submission
after shutdown begins is 503; an engine failure inside a round is 500.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..errors import AdmissionError, RequestValidationError, ServerError
from .collector import RequestCollector
from .config import ServerConfig
from .http import (
    HttpProtocolError,
    HttpRequest,
    error_body,
    json_response,
    read_request,
    render_response,
)
from .stats import ClientStats, ServerStats

if TYPE_CHECKING:
    from ..api.db import TravelTimeDB
    from ..api.request import TripRequest

__all__ = ["TravelTimeServer", "BackgroundServer", "run_server"]


class _HandlerState:
    """Per-connection bookkeeping.  Graceful shutdown closes an idle
    handler (parked between requests) immediately and gives a busy one
    (request read, response pending) the grace period; the collector
    waits its window out only while some handler is not busy, because
    only such a connection can still add a rider to the round."""

    __slots__ = ("busy",)

    def __init__(self) -> None:
        self.busy = False


class TravelTimeServer:
    """One asyncio HTTP server multiplexing connections onto the dedup
    batch executor of a single :class:`TravelTimeDB` session.

    Lifecycle: construct, ``await start()`` (binds; :class:`ServerError`
    on failure), serve until ``request_shutdown()`` (thread-safe via
    ``call_soon_threadsafe``; also wired to SIGINT/SIGTERM by
    :func:`run_server`), then ``await shutdown()`` — which stops
    accepting, drains every admitted trip through its round, lets
    handlers write those responses, and only then force-closes.
    """

    def __init__(
        self, db: "TravelTimeDB", config: Optional[ServerConfig] = None
    ) -> None:
        self.db = db
        self.config = config if config is not None else ServerConfig()
        self.stats = ServerStats(self.config.latency_window)
        self.collector: Optional[RequestCollector] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: Dict["asyncio.Task[None]", _HandlerState] = {}
        self._closing = False
        self._shutdown_requested: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and begin serving; :class:`ServerError` on bind failure."""
        config = self.config
        self._shutdown_requested = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=config.executor_workers,
            thread_name_prefix="repro-serve",
        )
        self.collector = RequestCollector(
            db=self.db,
            config=config,
            executor=self._executor,
            stats=self.stats,
            more_riders=self._any_handler_reading,
        )
        self.collector.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, config.host, config.port
            )
        except OSError as error:
            await self.collector.drain_and_stop()
            self._executor.shutdown(wait=False)
            raise ServerError(
                f"cannot bind {config.host}:{config.port}: {error}"
            ) from error

    @property
    def port(self) -> int:
        """The bound port (meaningful once started; resolves port=0)."""
        if self._server is None or not self._server.sockets:
            raise ServerError("server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    def request_shutdown(self) -> None:
        """Flag graceful shutdown.  Loop-thread only; from another
        thread use ``loop.call_soon_threadsafe(server.request_shutdown)``."""
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def wait_shutdown_requested(self) -> None:
        if self._shutdown_requested is not None:
            await self._shutdown_requested.wait()

    async def shutdown(self) -> None:
        """Graceful shutdown: every trip admitted before this call is
        answered; only idle connections are dropped immediately."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.collector is not None:
            # Completes every in-flight round and resolves every future.
            await self.collector.drain_and_stop()
        # Idle handlers are parked in read_request with nothing owed to
        # them; cancel outright.  Busy ones are writing answers for
        # drained trips — give them the grace period.
        for task, state in list(self._handlers.items()):
            if not state.busy:
                task.cancel()
        pending = set(self._handlers)
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.config.shutdown_grace_s
            )
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(*still_pending, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and stop."""
        try:
            await self.wait_shutdown_requested()
        finally:
            await self.shutdown()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    def _peer_of(self, writer: asyncio.StreamWriter) -> str:
        peername = writer.get_extra_info("peername")
        if isinstance(peername, tuple) and peername:
            return str(peername[0])
        return "local"

    def _any_handler_reading(self) -> bool:
        # ``busy`` is set and ``submit_many`` called with no ``await``
        # between them, so a busy handler has already queued its trips.
        return any(not state.busy for state in self._handlers.values())

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        peer = self._peer_of(writer)
        task = asyncio.current_task()
        state = _HandlerState()
        if task is not None:
            self._handlers[task] = state
        try:
            while not self._closing:
                state.busy = False
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except HttpProtocolError as error:
                    state.busy = True
                    writer.write(
                        json_response(
                            error.status,
                            error_body("ServerError", str(error)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                state.busy = True
                response = await self._dispatch(request, peer)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (
            ConnectionError,
            TimeoutError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Shutdown cancelling an idle (or grace-expired) handler —
            # complete normally so the stream protocol's done-callback
            # does not log the cancellation as an error.
            pass
        finally:
            if task is not None:
                self._handlers.pop(task, None)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _dispatch(self, request: HttpRequest, peer: str) -> bytes:
        self.stats.http_requests += 1
        client = self.stats.client(peer)
        client.requests += 1
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed(request, "GET")
            return self._healthz(request)
        if path == "/stats":
            if request.method != "GET":
                return self._method_not_allowed(request, "GET")
            return self._stats_snapshot(request)
        if path == "/v1/query":
            if request.method != "POST":
                return self._method_not_allowed(request, "POST")
            return await self._query(request, client, batch=False)
        if path == "/v1/query_batch":
            if request.method != "POST":
                return self._method_not_allowed(request, "POST")
            return await self._query(request, client, batch=True)
        return json_response(
            404,
            error_body("ServerError", f"no such route: {path}"),
            keep_alive=request.keep_alive,
        )

    def _method_not_allowed(
        self, request: HttpRequest, allowed: str
    ) -> bytes:
        return json_response(
            405,
            error_body(
                "ServerError",
                f"{request.method} not allowed on {request.path}",
            ),
            keep_alive=request.keep_alive,
            extra_headers=(("Allow", allowed),),
        )

    def _healthz(self, request: HttpRequest) -> bytes:
        # Inline on the loop — never blocked by saturated executors.
        collector = self.collector
        payload = {
            "status": "draining" if self._closing else "ok",
            "inflight": 0 if collector is None else collector.inflight,
            "max_inflight": self.config.max_inflight,
        }
        return json_response(200, payload, keep_alive=request.keep_alive)

    def _stats_snapshot(self, request: HttpRequest) -> bytes:
        depth = 0 if self.collector is None else self.collector.inflight
        return json_response(
            200,
            self.stats.snapshot(queue_depth=depth),
            keep_alive=request.keep_alive,
        )

    # ------------------------------------------------------------------ #
    # Query routes
    # ------------------------------------------------------------------ #

    def _parse_trips(
        self, request: HttpRequest, batch: bool
    ) -> List["TripRequest"]:
        """Decode and validate the payload; raises
        :class:`RequestValidationError` (mapped to 400 by the caller)."""
        from ..api.request import TripRequest

        try:
            payload = request.json()
        except HttpProtocolError as error:
            raise RequestValidationError(str(error)) from error
        if not batch:
            if not isinstance(payload, dict):
                raise RequestValidationError(
                    "query payload must be a JSON object (TripRequest "
                    f"wire form); got {type(payload).__name__}"
                )
            return [TripRequest.from_dict(payload)]
        if not isinstance(payload, dict) or not isinstance(
            payload.get("requests"), list
        ):
            raise RequestValidationError(
                'batch payload must be {"requests": [...]} of TripRequest '
                "wire forms"
            )
        trips: List["TripRequest"] = []
        for position, entry in enumerate(payload["requests"]):
            if not isinstance(entry, dict):
                raise RequestValidationError(
                    f"requests[{position}] must be a JSON object; got "
                    f"{type(entry).__name__}"
                )
            try:
                trips.append(TripRequest.from_dict(entry))
            except RequestValidationError as error:
                raise RequestValidationError(
                    f"requests[{position}]: {error}"
                ) from error
        return trips

    def _submit(
        self, trips: List["TripRequest"], client: ClientStats
    ) -> "List[asyncio.Future[Any]]":
        """Admission-checked submission; returns per-trip futures."""
        assert self.collector is not None
        futures = self.collector.submit_many(trips)
        client.trips += len(trips)
        return list(futures)

    def _reject_response(
        self, error: AdmissionError, request: HttpRequest, client: ClientStats,
        n_trips: int,
    ) -> bytes:
        self.stats.rejected_trips += n_trips
        client.rejected += n_trips
        retry_after = (
            error.retry_after_s
            if error.retry_after_s is not None
            else self.config.retry_after_s
        )
        return json_response(
            429,
            error_body(
                "AdmissionError", str(error), retry_after_s=retry_after
            ),
            keep_alive=request.keep_alive,
            extra_headers=(
                ("Retry-After", str(max(1, math.ceil(retry_after)))),
            ),
        )

    def _invalid_response(
        self,
        error: RequestValidationError,
        request: HttpRequest,
        client: ClientStats,
    ) -> bytes:
        self.stats.invalid_requests += 1
        client.invalid += 1
        return json_response(
            400,
            error_body("RequestValidationError", str(error)),
            keep_alive=request.keep_alive,
        )

    async def _query(
        self, request: HttpRequest, client: ClientStats, batch: bool
    ) -> bytes:
        """Both query routes: parse, submit, await the round, and join
        the results' wire texts into the body (an empty batch submits
        nothing — no round, no admission — and is answered at once)."""
        try:
            trips = self._parse_trips(request, batch)
        except RequestValidationError as error:
            return self._invalid_response(error, request, client)
        try:
            futures = self._submit(trips, client)
        except AdmissionError as error:
            return self._reject_response(
                error, request, client, len(trips)
            )
        except ServerError as error:
            return json_response(
                503,
                error_body("ServerError", str(error)),
                keep_alive=False,
            )
        try:
            results = await asyncio.gather(*futures)
        except Exception as error:
            return json_response(
                500,
                error_body(type(error).__name__, str(error)),
                keep_alive=request.keep_alive,
            )
        # Byte-for-byte ``json.dumps`` of the ``to_dict()`` forms.
        body = ", ".join(result.to_json() for result in results)
        if batch:
            body = '{"results": [' + body + "]}"
        return render_response(
            200, body.encode("utf-8"), keep_alive=request.keep_alive
        )


# ---------------------------------------------------------------------- #
# Entrypoints
# ---------------------------------------------------------------------- #


def run_server(
    db: "TravelTimeDB",
    config: Optional[ServerConfig] = None,
    on_started: Optional[Callable[[TravelTimeServer], None]] = None,
) -> None:
    """Run a server in the foreground until SIGINT/SIGTERM (the
    ``repro serve`` entrypoint).  :class:`ServerError` on bind failure."""

    async def _main() -> None:
        server = TravelTimeServer(db, config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, server.request_shutdown)
        if on_started is not None:
            on_started(server)
        try:
            await server.serve_until_shutdown()
        finally:
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(
                    NotImplementedError, RuntimeError
                ):
                    loop.remove_signal_handler(signum)

    asyncio.run(_main())


class BackgroundServer:
    """A server on a daemon thread with its own event loop — the
    harness tests and benchmarks use to serve and call from one process.

    Construction blocks until the server is listening (``.port`` is then
    the bound port, resolving ``port=0``) and re-raises any startup
    failure — a bind error surfaces here, not on first request.
    ``stop()`` runs the graceful drain and joins the thread.  Also a
    context manager.
    """

    def __init__(
        self, db: "TravelTimeDB", config: Optional[ServerConfig] = None
    ) -> None:
        self._db = db
        self._config = config
        self.server: Optional[TravelTimeServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServerError("server thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - defensive
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()

    async def _main(self) -> None:
        server = TravelTimeServer(self._db, self._config)
        try:
            await server.start()
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            return
        self.server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await server.serve_until_shutdown()

    @property
    def address(self) -> str:
        host = (
            self.server.config.host
            if self.server is not None
            else "127.0.0.1"
        )
        return f"http://{host}:{self.port}"

    def stop(self) -> None:
        """Request graceful shutdown and wait for the drain to finish."""
        server, loop = self.server, self._loop
        if server is not None and loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(server.request_shutdown)
        self._thread.join(timeout=30)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServerError("server thread did not stop within 30s")

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
