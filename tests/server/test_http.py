"""Unit tests for the serving tier's building blocks (ISSUE 8).

HTTP/1.1 framing (``read_request``/``render_response``), the validated
:class:`ServerConfig`, the collector's admission/short-circuit rules,
and the client's error-body mapping — all without opening a socket.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import AdmissionError, ConfigurationError, ServerError
from repro.server import ServerConfig
from repro.server.client import _error_from_body
from repro.server.collector import RequestCollector
from repro.server.http import (
    HttpProtocolError,
    error_body,
    json_response,
    read_request,
    render_response,
)
from repro.server.stats import LatencyRing, ServerStats


# --------------------------------------------------------------------- #
# HTTP framing
# --------------------------------------------------------------------- #


def _parse(data: bytes, max_body_bytes: int = 1_048_576):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes)

    return asyncio.run(run())


class TestReadRequest:
    def test_get_without_body(self):
        request = _parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.body == b""
        assert request.keep_alive

    def test_post_with_content_length(self):
        request = _parse(
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert request.method == "POST"
        assert request.body == b"abcd"

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_header_names_lowercased_and_query_string_stripped(self):
        request = _parse(
            b"GET /stats?verbose=1 HTTP/1.1\r\nX-Thing: Value\r\n\r\n"
        )
        assert request.path == "/stats"
        assert request.headers["x-thing"] == "Value"

    def test_connection_close_drops_keep_alive(self):
        request = _parse(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    @pytest.mark.parametrize(
        "version, connection, persistent",
        [
            ("HTTP/1.1", None, True),
            ("HTTP/1.1", "keep-alive", True),
            ("HTTP/1.1", "close", False),
            # 1.0 clients wait for the server to close unless they asked
            # for keep-alive; answering them "keep-alive" parks the
            # handler forever.
            ("HTTP/1.0", None, False),
            ("HTTP/1.0", "Keep-Alive", True),
            ("HTTP/1.0", "close", False),
        ],
    )
    def test_persistence_follows_the_protocol_version(
        self, version, connection, persistent
    ):
        header = f"Connection: {connection}\r\n" if connection else ""
        request = _parse(f"GET /healthz {version}\r\n{header}\r\n".encode())
        assert request.version == version
        assert request.keep_alive is persistent

    @pytest.mark.parametrize(
        "raw",
        [
            b"NONSENSE\r\n\r\n",  # malformed request line
            b"GET /x HTTP/9.9\r\n\r\n",  # unsupported protocol
            b"GET /x HTTP/1.1\r\nContent-Length: zap\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
        ],
        ids=[
            "request-line",
            "protocol",
            "content-length",
            "negative-length",
            "chunked",
            "header-line",
        ],
    )
    def test_malformed_framing_raises_protocol_error(self, raw):
        with pytest.raises(HttpProtocolError):
            _parse(raw)

    def test_body_over_limit_is_413(self):
        with pytest.raises(HttpProtocolError) as info:
            _parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 5000\r\n\r\n",
                max_body_bytes=1024,
            )
        assert info.value.status == 413

    def test_truncated_request_raises(self):
        with pytest.raises(HttpProtocolError):
            _parse(b"GET /x HTTP/1.1\r\nHost:")

    def test_json_helper_maps_bad_body_to_protocol_error(self):
        request = _parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 8\r\n\r\n{not js}"
        )
        with pytest.raises(HttpProtocolError):
            request.json()


class TestRenderResponse:
    def test_shape_and_length(self):
        raw = render_response(200, b'{"ok":1}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 8" in head
        assert b"Connection: keep-alive" in head
        assert body == b'{"ok":1}'

    def test_close_and_extra_headers(self):
        raw = render_response(
            429, b"{}", keep_alive=False,
            extra_headers=(("Retry-After", "1"),),
        )
        assert b"Connection: close" in raw
        assert b"Retry-After: 1" in raw

    def test_error_body_wire_form(self):
        body = error_body("AdmissionError", "full", retry_after_s=0.05)
        assert body == {
            "error": {
                "type": "AdmissionError",
                "message": "full",
                "retry_after_s": 0.05,
            }
        }

    def test_json_response_round_trips(self):
        import json

        raw = json_response(200, {"a": [1, 2]})
        body = raw.partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"a": [1, 2]}


# --------------------------------------------------------------------- #
# ServerConfig validation
# --------------------------------------------------------------------- #


class TestServerConfig:
    def test_defaults_are_valid(self):
        config = ServerConfig()
        assert config.window_s == pytest.approx(0.005)
        assert config.max_batch <= config.max_inflight

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"host": ""},
            {"port": -1},
            {"port": 70_000},
            {"port": True},
            {"window_s": -0.1},
            {"window_s": 30.0},  # a window is ms, not minutes
            {"window_s": "soon"},
            {"max_batch": 0},
            {"max_inflight": 0},
            {"executor_workers": 0},
            {"latency_window": 0},
            {"max_batch": 64, "max_inflight": 8},
            {"retry_after_s": 0},
            {"shutdown_grace_s": -1},
            {"max_body_bytes": 16},
        ],
        ids=lambda kw: ",".join(sorted(kw)),
    )
    def test_invalid_values_raise_configuration_error(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServerConfig(**kwargs)

    def test_replace_revalidates(self):
        config = ServerConfig()
        assert config.replace(max_batch=8).max_batch == 8
        with pytest.raises(ConfigurationError):
            config.replace(max_batch=config.max_inflight + 1)

    def test_configuration_error_is_value_error(self):
        # Same contract as EngineConfig: library-typed AND stdlib-shaped.
        with pytest.raises(ValueError):
            ServerConfig(port=-1)


# --------------------------------------------------------------------- #
# Collector admission + short-circuits (no sockets, fake db)
# --------------------------------------------------------------------- #


class _FakeDB:
    """Stands in for TravelTimeDB: echoes one token per request."""

    def __init__(self):
        self.calls = []

    def query_many_with_stats(self, requests):
        self.calls.append(len(requests))
        return [("answer", request) for request in requests], None


def _collector(db, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("window_s", 0.005)
    config = ServerConfig(**config_kwargs)
    executor = ThreadPoolExecutor(max_workers=1)
    collector = RequestCollector(
        db=db,
        config=config,
        executor=executor,
        stats=ServerStats(config.latency_window),
    )
    return collector, executor


class TestCollector:
    def test_round_trip_resolves_futures_in_order(self):
        async def main():
            db = _FakeDB()
            collector, executor = _collector(db)
            collector.start()
            futures = collector.submit_many(["a", "b", "c"])
            results = await asyncio.gather(*futures)
            assert [token for _, token in results] == ["a", "b", "c"]
            assert collector.inflight == 0
            await collector.drain_and_stop()
            executor.shutdown()
            # All three shared one collection window -> one round.
            assert db.calls == [3]

        asyncio.run(main())

    def test_empty_submission_short_circuits(self):
        async def main():
            collector, executor = _collector(_FakeDB())
            collector.start()
            assert collector.submit_many([]) == []
            await collector.drain_and_stop()
            executor.shutdown()

        asyncio.run(main())

    def test_over_admission_raises_with_retry_hint(self):
        async def main():
            collector, executor = _collector(
                _FakeDB(), max_inflight=2, max_batch=2, retry_after_s=0.25
            )
            # Not started: nothing drains, so admissions accumulate.
            collector.submit_many(["a", "b"])
            with pytest.raises(AdmissionError) as info:
                collector.submit_many(["c"])
            assert info.value.retry_after_s == pytest.approx(0.25)
            assert collector.inflight == 2  # rejected trips never queue
            collector.start()
            await collector.drain_and_stop()
            executor.shutdown()

        asyncio.run(main())

    def test_window_of_only_cancelled_entries_runs_no_round(self):
        """The dead-window short-circuit: every entry abandoned before
        the round forms means no executor submission and no deadlock —
        inflight returns to zero and later trips still flow."""

        async def main():
            db = _FakeDB()
            collector, executor = _collector(db)
            collector.start()
            doomed = collector.submit_many(["a", "b"])
            for future in doomed:
                future.cancel()
            await asyncio.sleep(0.05)
            assert db.calls == []
            assert collector.inflight == 0
            # The collector is still alive for real work afterwards.
            (future,) = collector.submit_many(["c"])
            assert (await future)[1] == "c"
            await collector.drain_and_stop()
            executor.shutdown()
            assert db.calls == [1]

        asyncio.run(main())

    def test_submission_after_drain_is_server_error(self):
        async def main():
            collector, executor = _collector(_FakeDB())
            collector.start()
            await collector.drain_and_stop()
            with pytest.raises(ServerError):
                collector.submit_many(["late"])
            executor.shutdown()

        asyncio.run(main())

    def test_failed_round_fails_every_member(self):
        class ExplodingDB:
            def query_many_with_stats(self, requests):
                raise RuntimeError("index on fire")

        async def main():
            collector, executor = _collector(ExplodingDB())
            collector.start()
            futures = collector.submit_many(["a", "b"])
            for future in futures:
                with pytest.raises(RuntimeError, match="index on fire"):
                    await future
            assert collector.inflight == 0
            assert collector.stats.trips_failed == 2
            await collector.drain_and_stop()
            executor.shutdown()

        asyncio.run(main())

    def test_max_batch_splits_rounds(self):
        async def main():
            db = _FakeDB()
            collector, executor = _collector(db, max_batch=2, max_inflight=8)
            collector.start()
            futures = collector.submit_many(["a", "b", "c", "d", "e"])
            await asyncio.gather(*futures)
            await collector.drain_and_stop()
            executor.shutdown()
            assert all(size <= 2 for size in db.calls)
            assert sum(db.calls) == 5

        asyncio.run(main())


    def test_riders_cancelled_mid_round_are_not_counted_as_answered(self):
        """A handler that goes away while its round executes was not
        answered: neither ``trips_answered`` nor the latency ring may
        count it (``/stats`` would otherwise report service it never
        gave)."""
        entered, release = threading.Event(), threading.Event()

        class GatedDB(_FakeDB):
            def query_many_with_stats(self, requests):
                entered.set()
                assert release.wait(timeout=30), "gate never released"
                return super().query_many_with_stats(requests)

        async def main():
            collector, executor = _collector(GatedDB())
            collector.start()
            kept, gone, also_kept = collector.submit_many(["a", "b", "c"])
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, entered.wait, 30)
            gone.cancel()  # the round of three is already executing
            release.set()
            assert (await kept)[1] == "a" and (await also_kept)[1] == "c"
            await collector.drain_and_stop()
            executor.shutdown()
            snapshot = collector.stats.snapshot(queue_depth=collector.inflight)
            assert snapshot["requests"]["trips_admitted"] == 3
            assert snapshot["requests"]["trips_answered"] == 2
            assert snapshot["latency"]["count"] == 2
            assert snapshot["rounds"]["count"] == 1
            assert snapshot["queue"]["depth"] == 0

        asyncio.run(main())

    def test_window_closes_early_only_when_no_connection_can_add_a_rider(self):
        async def main():
            db = _FakeDB()
            collector, executor = _collector(db, window_s=1.0)
            waiting = [True]
            collector.more_riders = lambda: waiting[0]
            collector.start()
            loop = asyncio.get_running_loop()
            (first,) = collector.submit_many(["a"])
            await asyncio.sleep(0.05)
            assert not first.done()  # a reader is open: the window holds
            waiting[0] = False
            (second,) = collector.submit_many(["b"])
            started = loop.time()
            await asyncio.gather(first, second)
            (third,) = collector.submit_many(["c"])
            await third
            assert loop.time() - started < 0.5  # two rounds, no window
            await collector.drain_and_stop()
            executor.shutdown()
            assert db.calls == [2, 1]
            assert collector.stats.rounds_closed_early == 2

        asyncio.run(main())


# --------------------------------------------------------------------- #
# Stats plumbing + client error mapping
# --------------------------------------------------------------------- #


class TestStats:
    def test_latency_ring_is_bounded(self):
        ring = LatencyRing(window=4)
        for i in range(100):
            ring.record(i / 1000.0)
        snap = ring.snapshot_ms()
        assert snap["count"] == 100  # total observed
        assert ring.percentile(0.5) >= 0.096  # window keeps the tail

    def test_latency_ring_empty(self):
        snap = LatencyRing(window=4).snapshot_ms()
        assert snap == {
            "count": 0, "p50_ms": None, "p99_ms": None, "mean_ms": None,
        }

    def test_snapshot_shape_and_hit_rate(self):
        stats = ServerStats(latency_window=8)
        snap = stats.snapshot(queue_depth=3)
        assert snap["queue"]["depth"] == 3
        assert snap["rounds"]["dedup_hit_rate"] == 0.0
        # Every round runs the deduplicating executor, so there is no
        # separate count of rounds that did.
        assert set(snap["rounds"]) == {
            "count", "closed_early", "planned_subqueries",
            "unique_subqueries", "index_scans", "cache_hits",
            "scans_saved", "dedup_hit_rate",
        }
        for key in ("uptime_s", "connections", "requests", "latency",
                    "clients"):
            assert key in snap

    def test_client_folding_is_bounded(self):
        stats = ServerStats(latency_window=8)
        for i in range(stats.MAX_CLIENTS + 10):
            stats.client(f"10.0.{i // 256}.{i % 256}").requests += 1
        assert len(stats.clients) <= stats.MAX_CLIENTS + 1
        assert "other" in stats.clients


class TestClientErrorMapping:
    def test_429_maps_to_admission_error_with_hint(self):
        error = _error_from_body(
            429,
            {"error": {"type": "AdmissionError", "message": "full",
                       "retry_after_s": 0.125}},
        )
        assert isinstance(error, AdmissionError)
        assert error.retry_after_s == pytest.approx(0.125)

    def test_named_types_resolve_against_the_taxonomy(self):
        from repro.errors import RequestValidationError

        error = _error_from_body(
            400,
            {"error": {"type": "RequestValidationError",
                       "message": "bad path"}},
        )
        assert isinstance(error, RequestValidationError)

    def test_unknown_type_falls_back_to_server_error(self):
        error = _error_from_body(
            500, {"error": {"type": "Nonsense", "message": "boom"}}
        )
        assert isinstance(error, ServerError)
        assert "boom" in str(error)

    def test_undecodable_payload_falls_back(self):
        assert isinstance(_error_from_body(500, None), ServerError)
