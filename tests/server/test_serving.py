"""Integration tests for the HTTP serving tier (ISSUE 8 tentpole).

The contracts enforced over real sockets:

1. **Bit-identity** — N concurrent HTTP clients receive byte-identical
   histograms to sequential in-process ``query`` calls.
2. **Shared rounds** — requests arriving within one collection window
   land in one ``query_many`` dedup round (``/stats`` shows hits).
3. **Backpressure** — trips over the admission bound get a fast 429 +
   ``Retry-After`` and never queue; the queue stays bounded.
4. **Graceful drain** — shutdown answers every admitted trip before the
   server stops.
5. **Typed errors** — malformed JSON / invalid TripRequests are HTTP
   400 carrying the wire-form error body, never a 500.
6. **Liveness off the query path** — ``/healthz``/``/stats`` respond
   while every executor worker is saturated.
7. **The window is waited only for a possible rider** — a round closes
   as soon as no open connection is between requests (ISSUE 24a).
8. **Bodies are** ``json.dumps`` **of the wire forms, byte for byte** —
   also when spliced from an answer's cached text (ISSUE 24b).
"""

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import EstimatorMode, TripRequest, open_db
from repro.core.intervals import PeriodicInterval
from repro.errors import AdmissionError, RequestValidationError
from repro.server import BackgroundServer, ServerConfig, ServingClient


@pytest.fixture(scope="module")
def world():
    from repro import SNTIndex, generate_dataset

    dataset = generate_dataset("tiny", seed=0)
    index = SNTIndex.build(
        dataset.trajectories, dataset.network.alphabet_size
    )
    trips = [tr for tr in dataset.trajectories if len(tr) >= 6]
    return dataset, index, trips


def requests_for(trips, count):
    return [
        TripRequest(
            path=trip.path,
            interval=PeriodicInterval.around(trip.start_time, 900),
            beta=10,
            exclude_ids=(trip.traj_id,),
        )
        for trip in trips[:count]
    ]


def open_session(world, cache="default"):
    dataset, index, _ = world
    return open_db(index, network=dataset.network, cache=cache)


def serialised(result):
    """The answer's wire form, canonicalised — byte-identity of the
    histogram, every sub-query outcome, and the echoed request.

    Execution accounting (``elapsed_s``, scan/cache counters) is
    excluded: a shared dedup round *should* report fewer scans than the
    same trips run sequentially."""
    payload = result.to_dict()
    for accounting in ("elapsed_s", "n_index_scans", "n_cache_hits",
                       "n_estimator_skips"):
        payload.pop(accounting, None)
    return json.dumps(payload, sort_keys=True)


class _GatedDB:
    """Wraps a session so rounds block until the test releases them —
    deterministic saturation for admission/drain/liveness tests."""

    def __init__(self, db):
        self._db = db
        self.entered = threading.Event()
        self.release = threading.Event()

    def query_many_with_stats(self, requests):
        self.entered.set()
        assert self.release.wait(timeout=30), "test never released the gate"
        return self._db.query_many_with_stats(requests)


def _post_bytes(port, path, body, timeout=10):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _raw_post(port, path, body, timeout=10):
    status, raw = _post_bytes(port, path, body, timeout)
    return status, json.loads(raw or b"null")


# --------------------------------------------------------------------- #
# 1. Bit-identity under concurrency
# --------------------------------------------------------------------- #


def test_concurrent_clients_match_sequential_query(world):
    db = open_session(world)
    requests = requests_for(world[2], 6)
    expected = [serialised(db.query(request)) for request in requests]

    with BackgroundServer(db, ServerConfig(port=0)) as background:

        def fetch(request):
            with ServingClient(port=background.port) as client:
                return serialised(client.query(request))

        with ThreadPoolExecutor(max_workers=6) as pool:
            served = list(pool.map(fetch, requests))

    assert served == expected


def test_batch_endpoint_matches_query_many(world):
    db = open_session(world)
    requests = requests_for(world[2], 5)
    expected = [serialised(r) for r in db.query_many(requests)]
    with BackgroundServer(db, ServerConfig(port=0)) as background:
        with ServingClient(port=background.port) as client:
            served = [serialised(r) for r in client.query_batch(requests)]
            assert client.query_batch([]) == []
    assert served == expected


# --------------------------------------------------------------------- #
# 2. Requests within one window share dedup rounds
# --------------------------------------------------------------------- #


def test_concurrent_connections_share_dedup_rounds(world):
    # Cache off: any sub-query work absorbed can only come from
    # round-sharing, which is exactly what the assertion targets.
    db = open_session(world, cache=None)
    request = requests_for(world[2], 1)[0]
    n_clients = 4
    barrier = threading.Barrier(n_clients)
    config = ServerConfig(port=0, window_s=0.5, max_batch=64)

    with BackgroundServer(db, config) as background:

        def fire(_):
            with ServingClient(port=background.port) as client:
                barrier.wait(timeout=10)
                return serialised(client.query(request))

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            answers = list(pool.map(fire, range(n_clients)))
        with ServingClient(port=background.port) as client:
            stats = client.stats()

    assert len(set(answers)) == 1  # identical trips, identical answers
    rounds = stats["rounds"]
    # The four identical trips arrived within one 500 ms window, so the
    # round planned 4x the unique sub-queries and scanned each once.
    assert rounds["scans_saved"] > 0
    assert rounds["dedup_hit_rate"] > 0
    assert rounds["count"] < n_clients
    assert stats["requests"]["trips_answered"] == n_clients


# --------------------------------------------------------------------- #
# 7. The window is waited out only while a connection could add a rider
# --------------------------------------------------------------------- #

WINDOW_S = 0.5


def test_lone_keep_alive_connection_never_waits_the_window(world):
    db = open_session(world)
    requests = requests_for(world[2], 6)
    calls = (requests[:1], requests[1:4], requests[3:])
    seconds = []
    config = ServerConfig(port=0, window_s=WINDOW_S)
    with BackgroundServer(db, config) as background:
        with ServingClient(port=background.port) as client:
            client.healthz()  # connected, and parked between requests
            for call in calls:
                started = time.perf_counter()
                assert len(client.query_batch(call)) == len(call)
                seconds.append(time.perf_counter() - started)
            stats = client.stats()
    # The one connection had queued its whole batch each time.
    assert stats["rounds"]["count"] == len(calls)
    assert stats["rounds"]["closed_early"] == len(calls)
    assert stats["requests"]["trips_answered"] == sum(map(len, calls))
    assert max(seconds) < WINDOW_S


def test_a_parked_connection_keeps_the_window_open(world):
    db = open_session(world)
    request = requests_for(world[2], 1)[0]
    config = ServerConfig(port=0, window_s=WINDOW_S)
    with BackgroundServer(db, config) as background:
        with ServingClient(port=background.port) as parked:
            parked.healthz()  # open, idle: it could still send a trip
            with ServingClient(port=background.port) as client:
                started = time.perf_counter()
                client.query(request)
                elapsed = time.perf_counter() - started
            stats = parked.stats()
    assert stats["rounds"]["count"] == 1
    assert stats["rounds"]["closed_early"] == 0
    assert elapsed >= 0.9 * WINDOW_S


def test_connected_clients_share_one_round_closed_by_the_last_rider(world):
    db = open_session(world)
    n_clients = 4
    requests = requests_for(world[2], n_clients)
    barrier = threading.Barrier(n_clients)
    # A full second: the round must close on the fourth rider, not on it.
    config = ServerConfig(port=0, window_s=1.0)
    with BackgroundServer(db, config) as background:

        def fire(request):
            with ServingClient(port=background.port) as client:
                client.healthz()  # connected before anyone sends a trip
                barrier.wait(timeout=10)
                started = time.perf_counter()
                answer = serialised(client.query(request))
                return answer, time.perf_counter() - started

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            answers = list(pool.map(fire, requests))
        with ServingClient(port=background.port) as client:
            stats = client.stats()

    assert [answer for answer, _ in answers] == [
        serialised(db.query(request)) for request in requests
    ]
    assert stats["rounds"]["count"] == 1
    assert stats["rounds"]["closed_early"] == 1
    assert stats["requests"]["trips_answered"] == n_clients
    assert max(seconds for _, seconds in answers) < config.window_s


# --------------------------------------------------------------------- #
# 8. Response bodies: json.dumps of the wire forms, byte for byte
# --------------------------------------------------------------------- #


class _RecordingDB:
    """Wraps a session and keeps the result objects each round returned
    — the very objects the handlers encode."""

    def __init__(self, db):
        self._db = db
        self.answers = []

    def query_many_with_stats(self, requests):
        results, dedup = self._db.query_many_with_stats(requests)
        self.answers.extend(results)
        return results, dedup


def test_response_bodies_are_json_dumps_of_the_wire_forms(world):
    dataset, _, trips = world
    recording = _RecordingDB(open_session(world))
    plain, other = requests_for(trips, 2)
    # Nothing is left on the path's rarest edge: estimateTT answers it.
    rarest = min(
        plain.path,
        key=lambda edge: sum(edge in tr.path for tr in dataset.trajectories),
    )
    fallback = TripRequest(
        path=plain.path,
        interval=plain.interval,
        beta=10,
        exclude_ids=tuple(
            tr.traj_id for tr in dataset.trajectories if rarest in tr.path
        ),
    )

    with BackgroundServer(recording, ServerConfig(port=0)) as background:

        def served(requests, batch=True):
            """The round's result objects, after checking the body."""
            forms = [request.to_dict() for request in requests]
            payload = {"requests": forms} if batch else forms[0]
            status, raw = _post_bytes(
                background.port,
                "/v1/query_batch" if batch else "/v1/query",
                json.dumps(payload).encode(),
            )
            assert status == 200
            answers, recording.answers = recording.answers, []
            forms = [answer.to_dict() for answer in answers]
            expected = {"results": forms} if batch else forms[0]
            assert raw == json.dumps(expected).encode("utf-8")
            return answers

        (fresh,) = served([plain], batch=False)
        assert fresh.n_index_scans > 0
        (replay,) = served([plain], batch=False)
        assert replay.n_index_scans == 0 and replay.n_cache_hits > 0
        first, twin, again, estimated = served(
            [other, other, plain, fallback]
        )
        assert first.n_index_scans > 0 and twin.n_index_scans == 0
        assert again.n_index_scans == 0
        assert any(outcome.from_fallback for outcome in estimated.outcomes)
        # Each mode once computed, once replayed from the memo.
        modes = [other.with_estimator(mode) for mode in EstimatorMode]
        assert len(served(modes)) == len(modes)
        assert len(served(modes + [fallback])) == len(modes) + 1
        assert served([]) == []


# --------------------------------------------------------------------- #
# 3. Admission control / backpressure + 6. liveness under saturation
# --------------------------------------------------------------------- #


def test_over_admission_is_fast_429_and_queue_stays_bounded(world):
    db = open_session(world)
    gated = _GatedDB(db)
    requests = requests_for(world[2], 4)
    config = ServerConfig(
        port=0, window_s=0.0, max_batch=4, max_inflight=4,
        executor_workers=1, retry_after_s=0.25,
    )
    with BackgroundServer(gated, config) as background:
        results = {}

        def run_batch():
            with ServingClient(port=background.port) as client:
                results["batch"] = [
                    serialised(r)
                    for r in client.query_batch(requests[:3])
                ]

        def run_single():
            with ServingClient(port=background.port) as client:
                results["single"] = serialised(client.query(requests[3]))

        batch_thread = threading.Thread(target=run_batch)
        batch_thread.start()
        assert gated.entered.wait(timeout=10)  # round of 3 is executing

        single_thread = threading.Thread(target=run_single)
        single_thread.start()

        probe = ServingClient(port=background.port)
        try:
            # Wait until the 4th trip is admitted (inflight == limit).
            for _ in range(200):
                if probe.healthz()["inflight"] == 4:
                    break
                import time

                time.sleep(0.01)
            # /healthz and /stats answer while the only executor worker
            # is blocked — they never touch the collector.
            health = probe.healthz()
            assert health["status"] == "ok"
            assert health["inflight"] == 4
            assert probe.stats()["queue"]["depth"] == 4

            # The 5th trip cannot be admitted: fast 429, typed + hinted.
            with pytest.raises(AdmissionError) as info:
                probe.query(requests[0])
            assert info.value.retry_after_s == pytest.approx(0.25)

            # The raw response carries the HTTP Retry-After header too.
            status, payload = _raw_post(
                background.port, "/v1/query",
                json.dumps(requests[0].to_dict()).encode(),
            )
            assert status == 429
            assert payload["error"]["type"] == "AdmissionError"
        finally:
            probe.close()
            gated.release.set()
        batch_thread.join(timeout=30)
        single_thread.join(timeout=30)

        with ServingClient(port=background.port) as client:
            stats = client.stats()

    # Everyone admitted was answered; the rejected trips never queued.
    assert len(results["batch"]) == 3
    assert results["single"] == serialised(db.query(requests[3]))
    assert stats["requests"]["rejected"] == 2
    assert stats["queue"]["peak"] <= config.max_inflight
    assert stats["queue"]["depth"] == 0


def test_retry_after_header_is_integer_ceiled(world):
    db = open_session(world)
    gated = _GatedDB(db)
    config = ServerConfig(
        port=0, window_s=0.0, max_batch=1, max_inflight=1,
        executor_workers=1, retry_after_s=0.25,
    )
    request = requests_for(world[2], 1)[0]
    body = json.dumps(request.to_dict()).encode()
    with BackgroundServer(gated, config) as background:
        blocker = threading.Thread(
            target=lambda: _raw_post(background.port, "/v1/query", body, 30)
        )
        blocker.start()
        assert gated.entered.wait(timeout=10)
        connection = http.client.HTTPConnection(
            "127.0.0.1", background.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/v1/query", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 429
            assert response.getheader("Retry-After") == "1"
            assert payload["error"]["retry_after_s"] == pytest.approx(0.25)
        finally:
            connection.close()
            gated.release.set()
        blocker.join(timeout=30)


# --------------------------------------------------------------------- #
# 4. Graceful shutdown drains in-flight requests
# --------------------------------------------------------------------- #


def test_graceful_shutdown_drains_inflight_rounds(world):
    db = open_session(world)
    gated = _GatedDB(db)
    requests = requests_for(world[2], 3)
    expected = [serialised(r) for r in db.query_many(requests)]
    background = BackgroundServer(
        gated, ServerConfig(port=0, window_s=0.0, executor_workers=1)
    )
    results = {}

    def run_batch():
        with ServingClient(port=background.port) as client:
            results["batch"] = [
                serialised(r) for r in client.query_batch(requests)
            ]

    client_thread = threading.Thread(target=run_batch)
    client_thread.start()
    assert gated.entered.wait(timeout=10)  # the round is in flight

    stopper = threading.Thread(target=background.stop)
    stopper.start()
    # Shutdown must be draining, not dropping: the round is still gated.
    stopper.join(timeout=0.3)
    assert stopper.is_alive()

    gated.release.set()
    stopper.join(timeout=30)
    client_thread.join(timeout=30)
    assert not stopper.is_alive()
    assert results["batch"] == expected


# --------------------------------------------------------------------- #
# 5. Typed 400s for bad input (never a 500)
# --------------------------------------------------------------------- #


class TestBadInput:
    @pytest.fixture(scope="class")
    def served(self, world):
        db = open_session(world)
        with BackgroundServer(db, ServerConfig(port=0)) as background:
            yield background

    def test_malformed_json_is_400_wire_form(self, served):
        status, payload = _raw_post(served.port, "/v1/query", b"{not json")
        assert status == 400
        assert payload["error"]["type"] == "RequestValidationError"
        assert "JSON" in payload["error"]["message"]

    def test_invalid_trip_request_is_400_wire_form(self, served):
        status, payload = _raw_post(
            served.port, "/v1/query", json.dumps({"path": []}).encode()
        )
        assert status == 400
        assert payload["error"]["type"] == "RequestValidationError"

    def test_batch_reports_offending_position(self, served, world):
        valid = requests_for(world[2], 1)[0].to_dict()
        body = json.dumps(
            {"requests": [valid, {"path": []}]}
        ).encode()
        status, payload = _raw_post(served.port, "/v1/query_batch", body)
        assert status == 400
        assert "requests[1]" in payload["error"]["message"]

    def test_batch_payload_must_be_object_with_requests(self, served):
        status, payload = _raw_post(
            served.port, "/v1/query_batch", json.dumps([1, 2]).encode()
        )
        assert status == 400
        assert payload["error"]["type"] == "RequestValidationError"

    def test_client_raises_typed_validation_error(self, served, world):
        with ServingClient(port=served.port) as client:
            broken = requests_for(world[2], 1)[0].to_dict()
            broken["path"] = []
            with pytest.raises(RequestValidationError):
                client._roundtrip(
                    "POST", "/v1/query", json.dumps(broken).encode()
                )

    def test_unknown_route_is_404(self, served):
        status, payload = _raw_post(served.port, "/nope", b"{}")
        assert status == 404
        assert payload["error"]["type"] == "ServerError"

    def test_wrong_method_is_405(self, served):
        connection = http.client.HTTPConnection(
            "127.0.0.1", served.port, timeout=10
        )
        try:
            connection.request("GET", "/v1/query")
            response = connection.getresponse()
            assert response.status == 405
            assert response.getheader("Allow") == "POST"
            response.read()
        finally:
            connection.close()

    def test_infinite_number_is_400_and_keeps_the_connection(
        self, served, world
    ):
        """Standard JSON parses ``1e999`` as inf: the request is a typed
        400, counted as invalid, and the keep-alive connection goes on
        to answer the next request."""
        with ServingClient(port=served.port) as client:
            invalid_before = client.stats()["requests"]["invalid"]
        valid = requests_for(world[2], 1)[0].to_dict()
        valid["interval"] = {"type": "fixed", "start": 0, "end": 10**9}
        body = json.dumps(valid).replace('"end": 1000000000', '"end": 1e999')
        assert "1e999" in body
        connection = http.client.HTTPConnection(
            "127.0.0.1", served.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/v1/query", body=body.encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["type"] == "RequestValidationError"
            connection.request(
                "POST", "/v1/query", body=json.dumps(valid).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            answer = json.loads(response.read())
            assert response.status == 200
            assert answer["request"] == valid
        finally:
            connection.close()
        with ServingClient(port=served.port) as client:
            invalid_after = client.stats()["requests"]["invalid"]
        assert invalid_after == invalid_before + 1

    def test_invalid_requests_are_counted_not_crashed(self, served):
        with ServingClient(port=served.port) as client:
            stats = client.stats()
        assert stats["requests"]["invalid"] >= 3
        assert stats["requests"]["trips_failed"] == 0


# --------------------------------------------------------------------- #
# Stats surface
# --------------------------------------------------------------------- #


def test_stats_surface_tracks_clients_and_latency(world):
    db = open_session(world)
    requests = requests_for(world[2], 3)
    with BackgroundServer(db, ServerConfig(port=0)) as background:
        with ServingClient(port=background.port) as client:
            client.query_batch(requests)
            stats = client.stats()
    assert stats["requests"]["trips_answered"] == 3
    assert stats["latency"]["count"] == 3
    assert stats["latency"]["p50_ms"] > 0
    assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"]
    (client_stats,) = stats["clients"].values()
    assert client_stats["trips"] == 3
    assert stats["connections"] >= 1
