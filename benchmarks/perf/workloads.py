"""The four seeded workloads and the world they run against.

Each workload drives the program through its public surfaces only and
stresses layers the others bypass (see README.md for why each exists):

``trip-cold``        ``db.query`` one trip at a time, cache off.
``batch-shared``     ``db.query_many`` of Zipf-popular batches, dedup and
                     memory cache on, cache cleared at each pass start.
``served-warm``      ``repro serve`` child, one keep-alive connection, warm cache.
``shard-lifecycle``  reads beside append / seal / compact / save on the
                     sharded reader, index re-opened at each pass start.

A workload object owns its inputs (derived from ``--seed`` alone), its
set-up (index build + save + open, repeatable), its identical timed
pass, and the requests whose reference answers verify it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    EngineConfig,
    PeriodicInterval,
    ShardedSNTIndex,
    SNTIndex,
    TripRequest,
    generate_dataset,
    load_any_index,
    open_db,
)
from repro.cli import NETWORK_FILE, TRAJECTORY_FILE, WORLD_DIGEST_KEY
from repro.config import SECONDS_PER_DAY, get_scale
from repro.experiments.workload import QUERY_TYPES, QuerySpec, derive_query_set
from repro.network.io import save_network, save_trajectories
from repro.server import BackgroundServer, ServerConfig, ServingClient
from repro.server.http import json_response, read_request
from repro.trajectories import TrajectorySet

__all__ = ["WORKLOADS", "WORLD_SEED", "Pass", "World", "timed_call"]

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: The world and its query set are the same on every run; ``--seed``
#: only shuffles (call order, trip order inside a batch, the oracle
#: sample) and never changes a call or the work in a pass.  Re-drawing the world per seed
#: moves the record count by +-10 %, and re-drawing the 120 query trips
#: moves cold throughput by +-15 % (trip cost is heavy-tailed) -- input
#: variation that would drown the regressions the bounds are there for.
WORLD_SEED = 0
#: Query derivation of paper Section 5.2: 15-minute periodic window,
#: cardinality requirement beta = 20.
ALPHA_S = 900
BETA = 20
#: Time-of-day slot centres for the repeated-route workloads.
TOD_SLOTS = (7 * 3600 + 1800, 12 * 3600, 17 * 3600, 21 * 3600)

clock = time.perf_counter


def timed_call(function: Callable[[Any], Any], argument: Any) -> Tuple[Any, float]:
    """One caller-visible call and its latency (untraced twin of
    :meth:`spans.Tracer.invoke`)."""
    start = clock()
    result = function(argument)
    return result, clock() - start


@dataclass
class World:
    """The generated inputs: dataset plus the seeded query set."""

    scale_name: str
    dataset: Any
    specs: List[QuerySpec]
    generate_s: float

    @classmethod
    def generate(cls, scale_name: str) -> "World":
        started = clock()
        dataset = generate_dataset(scale_name, seed=WORLD_SEED)
        specs = derive_query_set(
            dataset, seed=WORLD_SEED, scale=get_scale(scale_name)
        )
        return cls(scale_name, dataset, specs, clock() - started)

    @classmethod
    def cached(cls, scale_name: str, directory: Path) -> "World":
        """The world an earlier run left in ``directory``, else a
        generated one, left there for the next run.

        The world is the same on every run, generating it takes 3-4 s,
        and the driver's time budget is spent per run.  The file name
        carries a digest of the program's sources, so a world from
        other code is never loaded; ``generate_s`` is the time this run
        spent obtaining the world either way.
        """
        digest = hashlib.sha256()
        for source in sorted(SRC_DIR.rglob("*.py")):
            digest.update(source.read_bytes())
        path = directory / f"world-{scale_name}-{digest.hexdigest()[:16]}.pickle"
        started = clock()
        try:
            with open(path, "rb") as handle:
                dataset, specs = pickle.load(handle)  # written below, by us
        except (OSError, EOFError, pickle.UnpicklingError):
            world = cls.generate(scale_name)
            for stale in directory.glob(f"world-{scale_name}-*.pickle"):
                stale.unlink(missing_ok=True)
            # Written aside and renamed: a killed run leaves no torn file.
            fd, aside = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as out:
                    pickle.dump((world.dataset, world.specs), out, protocol=5)
                os.replace(aside, path)
            finally:
                Path(aside).unlink(missing_ok=True)
            return world
        return cls(scale_name, dataset, specs, clock() - started)

    def spread_specs(self, n: int) -> List[QuerySpec]:
        """``n`` query trips evenly spaced over the query set."""
        n = min(n, len(self.specs))
        return [self.specs[(i * len(self.specs)) // n] for i in range(n)]

    @property
    def network(self) -> Any:
        return self.dataset.network

    @property
    def trajectories(self) -> TrajectorySet:
        return self.dataset.trajectories


@dataclass
class Pass:
    """What one timed pass produced."""

    wall_s: float
    trips: int
    #: Latency of every caller-visible call, seconds.
    latencies: List[float]
    #: ``(reference key, TripQueryResult)`` per trip, verified after the pass.
    answers: List[Tuple[Hashable, Any]]
    #: Index-write phases of the pass, seconds (shard-lifecycle only).
    writes: Dict[str, float] = field(default_factory=dict)
    #: Exact counts the workload read off the program's public stats.
    counts: Dict[str, int] = field(default_factory=dict)


def slot_request(
    spec: QuerySpec, tod: int, path: Optional[Sequence[int]] = None
) -> TripRequest:
    return TripRequest(
        path=tuple(path if path is not None else spec.path),
        interval=PeriodicInterval.around(tod, ALPHA_S),
        exclude_ids=(spec.traj_id,),
        beta=BETA,
    )


def _summed(passes: Sequence[Pass]) -> Dict[str, int]:
    """The passes' exact counts, added up."""
    return {key: sum(p.counts[key] for p in passes) for key in passes[0].counts}


class Workload:
    """Shared plumbing; subclasses define inputs, set-up and the pass."""

    name = ""

    def __init__(
        self, world: World, seed: int, scratch: Path, traced_passes: int = 0
    ) -> None:
        self.world = world
        self.seed = seed
        self.scratch = scratch
        #: Passes the run will trace (0: an untraced, end-to-end run).
        self.traced_passes = traced_passes
        self.index_dir = scratch / "index"
        #: Replaced by ``Tracer.invoke`` for traced passes.
        self.invoke: Callable[[Callable, Any], Tuple[Any, float]] = timed_call
        #: Set-up phase timings of the latest :meth:`setup`, seconds.
        self.parts: Dict[str, float] = {}
        #: Traversal records the latest set-up indexed.
        self.records_built = 0
        self.built: Any = None  # the in-memory index the set-up built
        self.db: Any = None
        self.derive_inputs()

    def derive_inputs(self) -> None:
        """Build the workload's requests and plans from ``seed`` alone."""
        raise NotImplementedError

    # -- set-up --------------------------------------------------------- #

    def setup(self) -> None:
        """Program time before the first call: build, save, open."""
        raise NotImplementedError

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def _build_monolithic(self, extra: Optional[dict] = None) -> None:
        world = self.world
        started = clock()
        index = SNTIndex.build(world.trajectories, world.network.alphabet_size)
        self.parts["build_s"] = clock() - started
        started = clock()
        index.save(self.index_dir, extra=extra)
        self.parts["save_s"] = clock() - started
        self.built = index
        self.records_built = index.build_stats.n_traversals

    def _open(self, **kwargs: Any) -> None:
        started = clock()
        self.db = open_db(
            str(self.index_dir), network=self.world.network, **kwargs
        )
        self.parts["open_s"] = clock() - started

    def open_once(self) -> float:
        """Cold open of the saved index plus the first answer, seconds."""
        request = self.reference_requests()[0][1]
        started = clock()
        with open_db(
            str(self.index_dir), network=self.world.network, cache=None
        ) as db:
            db.query(request)
        return clock() - started

    # -- the timed pass -------------------------------------------------- #

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def warm_up(self) -> Pass:
        """The one untimed pass that ends set-up."""
        return self.run_pass()

    # -- verification ---------------------------------------------------- #

    def reference_db(self) -> Any:
        """In-memory monolithic index, cache and dedup off."""
        return open_db(self.built, network=self.world.network, cache=None)

    def reference_requests(self) -> List[Tuple[Hashable, TripRequest]]:
        """``(key, request)`` for every distinct answer a pass produces."""
        raise NotImplementedError

    # -- reporting -------------------------------------------------------- #

    def index_under_test(self) -> Any:
        """The index the oracle check queries, and (below) the
        trajectories it covers."""
        return self.db.index

    def oracle_trajectories(self) -> Sequence[Any]:
        return self.world.trajectories

    def component_sizes(self) -> Dict[str, int]:
        return dict(self.built.component_sizes())

    def disk_bytes(self) -> int:
        files = self.index_dir.rglob("*")
        return sum(f.stat().st_size for f in files if f.is_file())

    def rss_peak_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def mark_counts(self) -> None:
        """Called before the traced passes: start counting from here."""

    def layer_counts(
        self, passes: Sequence[Pass], spans: Sequence[tuple]
    ) -> Dict[str, float]:
        """Per-layer counts and ratios this workload reads off the
        program's public stats over ``passes``."""
        return {}


# ---------------------------------------------------------------------- #
# trip-cold
# ---------------------------------------------------------------------- #


class TripCold(Workload):
    """The paper's online case: one trip per call, nothing shared."""

    name = "trip-cold"
    TRIPS = 120

    def derive_inputs(self) -> None:
        world = self.world
        t_max = world.trajectories.time_span()[1]
        requests = [
            TripRequest.from_spq(
                spec.to_query(query_type, ALPHA_S, t_max, BETA),
                exclude_ids=(spec.traj_id,),
            )
            for query_type in QUERY_TYPES
            for spec in world.spread_specs(self.TRIPS)
        ]
        order = np.random.default_rng(self.seed).permutation(len(requests))
        self.requests = [requests[i] for i in order]

    def setup(self) -> None:
        self._build_monolithic()
        self._open(cache=None)

    def run_pass(self) -> Pass:
        invoke, query = self.invoke, self.db.query
        latencies: List[float] = []
        answers: List[Tuple[Hashable, Any]] = []
        started = clock()
        for request in self.requests:
            result, seconds = invoke(query, request)
            latencies.append(seconds)
            answers.append((request, result))
        wall = clock() - started
        return Pass(wall, len(answers), latencies, answers)

    def reference_requests(self) -> List[Tuple[Hashable, TripRequest]]:
        return [(request, request) for request in self.requests]


# ---------------------------------------------------------------------- #
# batch-shared
# ---------------------------------------------------------------------- #


class BatchShared(Workload):
    """Candidate-route evaluation: shared sub-queries, dedup + cache."""

    name = "batch-shared"
    ROUTES = 32
    BATCH = 16
    BATCHES = 32

    def derive_inputs(self) -> None:
        routes = sorted(
            self.world.specs, key=lambda spec: (-len(spec.path), spec.traj_id)
        )[: self.ROUTES]
        self.trips = [
            slot_request(spec, tod) for spec in routes for tod in TOD_SLOTS
        ]
        # Zipf(1) popularity over a fixed ranking of the distinct trips.
        # Every pass opens with the hottest trips once each, all cold;
        # how often each trip occurs in the rest of the pass is fixed
        # too (Zipf shares, largest remainders rounded up), and so is
        # which trips share a batch and in what order the batches arrive
        # (what a batch finds cached depends on its predecessors).  The
        # seed only shuffles the trips inside each batch, so no call's
        # work depends on it.
        rng = np.random.default_rng(WORLD_SEED)
        ranking = rng.permutation(len(self.trips))
        opening = list(ranking[: self.BATCH])
        draws = self.BATCHES * self.BATCH - len(opening)
        shares = 1.0 / np.arange(1, len(self.trips) + 1)
        shares *= draws / shares.sum()
        counts = np.floor(shares).astype(int)
        short = draws - int(counts.sum())
        counts[np.argsort(counts - shares, kind="stable")[:short]] += 1
        rest = np.repeat(ranking, counts)
        rng.shuffle(rest)
        sequence = [self.trips[i] for i in opening + list(rest)]
        batches = [
            sequence[i : i + self.BATCH]
            for i in range(0, len(sequence), self.BATCH)
        ]
        shuffled = np.random.default_rng(self.seed)
        self.batches = [
            [batch[i] for i in shuffled.permutation(len(batch))]
            for batch in batches
        ]

    def setup(self) -> None:
        self._build_monolithic()
        self._open(config=EngineConfig(dedup_subqueries=True))

    def run_pass(self) -> Pass:
        db, invoke = self.db, self.invoke
        query_many = db.query_many
        db.clear_cache()  # every pass goes cold -> warm identically
        latencies: List[float] = []
        answers: List[Tuple[Hashable, Any]] = []
        counts = dict.fromkeys(("planned", "unique", "cache_hits", "rounds"), 0)
        started = clock()
        for batch in self.batches:
            results, seconds = invoke(query_many, batch)
            latencies.append(seconds)
            answers.extend(zip(batch, results))
            stats = db.last_dedup_stats
            counts["planned"] += stats.planned_subqueries
            counts["unique"] += stats.unique_subqueries
            counts["cache_hits"] += stats.cache_hits
            counts["rounds"] += stats.n_rounds
        wall = clock() - started
        counts["batches"] = len(self.batches)
        return Pass(wall, len(answers), latencies, answers, counts=counts)

    def reference_requests(self) -> List[Tuple[Hashable, TripRequest]]:
        used = {trip for batch in self.batches for trip in batch}
        return [(trip, trip) for trip in self.trips if trip in used]

    def layer_counts(
        self, passes: Sequence[Pass], spans: Sequence[tuple]
    ) -> Dict[str, float]:
        total = _summed(passes)
        return {
            "core.dedup_unique_ratio": total["unique"] / total["planned"],
            "core.rounds_per_batch": total["rounds"] / total["batches"],
            "service.cache_hit_ratio": total["cache_hits"] / total["planned"],
        }


# ---------------------------------------------------------------------- #
# served-warm
# ---------------------------------------------------------------------- #


class ServedWarm(Workload):
    """The HTTP tier over a warm cache: framing, wire and window wait."""

    name = "served-warm"
    ROUTES = 48
    BATCH = 8
    CALLS = 48

    def derive_inputs(self) -> None:
        world = self.world
        #: A traced run serves from a BackgroundServer in this process so
        #: the harness's spans see the server side; end-to-end numbers
        #: always come from the ``repro serve`` child.
        self.in_process = self.traced_passes > 0
        self.trips = [
            slot_request(spec, tod)
            for spec in world.spread_specs(self.ROUTES)
            for tod in TOD_SLOTS
        ]
        # Every hot trip occurs equally often in a pass, and which trips
        # share a call is fixed: the seed only shuffles the order of the
        # calls, so neither the work in a pass nor the cost of its
        # costliest call depends on it.
        order = np.resize(np.arange(len(self.trips)), self.CALLS * self.BATCH)
        np.random.default_rng(WORLD_SEED).shuffle(order)
        calls = [
            [self.trips[i] for i in order[c * self.BATCH : (c + 1) * self.BATCH]]
            for c in range(self.CALLS)
        ]
        self.batches = [
            calls[c] for c in np.random.default_rng(self.seed).permutation(self.CALLS)
        ]
        # The server's latency ring then holds exactly the traced
        # passes' trips when they end.
        self.server_config = ServerConfig(
            port=0, latency_window=max(1, self.traced_passes * order.size)
        )
        # The world on disk, for `repro serve --world` (harness time).
        self.world_dir = self.scratch / "world"
        self.world_dir.mkdir()
        save_network(world.network, self.world_dir / NETWORK_FILE)
        save_trajectories(world.trajectories, self.world_dir / TRAJECTORY_FILE)
        with open(self.world_dir / TRAJECTORY_FILE, "rb") as handle:
            self.world_digest = hashlib.file_digest(handle, "sha256").hexdigest()
        self.port = 0
        self.child: Optional[subprocess.Popen] = None
        self.background: Optional[BackgroundServer] = None
        self._child_rss_mb = 0.0
        #: The child's last ``/stats`` payload (sent / answered / 429).
        self.served: Dict[str, Any] = {}
        self._baseline: Dict[str, int] = {}

    # -- server lifecycle ------------------------------------------------ #

    def setup(self) -> None:
        # The digest lets `repro serve` accept the index without
        # parsing the trajectory file (its rebuild-free cold start).
        self._build_monolithic(extra={WORLD_DIGEST_KEY: self.world_digest})
        started = clock()
        if self.in_process:
            # What `repro serve` builds: dedup on, default memory cache.
            self.db = open_db(
                str(self.index_dir),
                network=self.world.network,
                config=EngineConfig(dedup_subqueries=True),
            )
            self.background = BackgroundServer(self.db, self.server_config)
            self.port = int(self.background.port or 0)
        else:
            self._start_child()
        self.parts["open_s"] = clock() - started

    def _start_child(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        log = self.scratch / "serve.log"
        with open(log, "w") as stderr:
            self.child = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--world", str(self.world_dir),
                    "--index", str(self.index_dir),
                    "--port", "0",
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
                text=True,
            )
        assert self.child.stdout is not None
        ready, _, _ = select.select([self.child.stdout], [], [], 60)
        line = self.child.stdout.readline() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(
                f"repro serve did not start: {line!r} {log.read_text()!r}"
            )
        self.port = int(match.group(1))

    def _read_child_rss(self) -> None:
        status = Path(f"/proc/{self.child.pid}/status").read_text()
        peak = re.search(r"VmHWM:\s+(\d+) kB", status)
        if peak is not None:
            self._child_rss_mb = int(peak.group(1)) / 1024.0

    def close(self) -> None:
        if self.background is not None:
            self.background.stop()
            self.background = None
        if self.child is not None:
            if self.child.poll() is None:
                try:
                    self._read_child_rss()
                    with ServingClient(port=self.port, timeout=5) as client:
                        self.served = client.stats()["requests"]
                except Exception:
                    pass  # a dead or wedged child is still reaped below
                self.child.terminate()  # SIGTERM: the server drains, then exits
            try:
                self.child.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
            if self.child.stdout is not None:
                self.child.stdout.close()
            self.child = None
        super().close()

    def rss_peak_mb(self) -> float:
        if self.in_process:
            return super().rss_peak_mb()
        if self.child is not None and self.child.poll() is None:
            self._read_child_rss()
        return self._child_rss_mb

    def index_under_test(self) -> Any:
        # The child holds the served index; sub-queries are checked on
        # a second handle onto the same saved directory.
        if self.db is None:
            self.db = open_db(
                str(self.index_dir), network=self.world.network, cache=None
            )
        return self.db.index

    # -- passes ----------------------------------------------------------- #

    def _run_calls(self, batches: List[List[TripRequest]]) -> Pass:
        """One closed-loop caller on one keep-alive connection: the next
        call is sent when the previous reply has been read."""
        invoke = self.invoke
        latencies: List[float] = []
        answers: List[Tuple[Hashable, Any]] = []
        trips = sum(len(batch) for batch in batches)
        started = clock()
        try:
            with ServingClient(port=self.port) as client:
                client.healthz()  # connect before the clock starts
                started = clock()
                for batch in batches:
                    try:
                        results, seconds = invoke(client.query_batch, batch)
                    except Exception as error:
                        # Non-200, transport failure or a bad body: the
                        # call answered none of its trips.
                        answers.extend((None, error) for _ in batch)
                        continue
                    latencies.append(seconds)
                    answers.extend(zip(batch, results))
        except Exception as error:
            # Could not even connect: every trip still owed has failed.
            answers.extend((None, error) for _ in range(trips - len(answers)))
        wall = clock() - started
        return Pass(wall, trips, latencies, answers)

    def run_pass(self) -> Pass:
        return self._run_calls(self.batches)

    def warm_up(self) -> Pass:
        """Every hot trip once, so timed passes never scan the index."""
        step = self.BATCH
        return self._run_calls(
            [self.trips[i : i + step] for i in range(0, len(self.trips), step)]
        )

    def reference_requests(self) -> List[Tuple[Hashable, TripRequest]]:
        return [(trip, trip) for trip in self.trips]

    # -- per-layer: the server's own accounting and an HTTP replay -------- #

    def _server_counters(self) -> Dict[str, int]:
        assert self.background is not None and self.background.server is not None
        stats = self.background.server.stats
        dedup = stats.dedup
        return {
            "planned": dedup.planned_subqueries,
            "unique": dedup.unique_subqueries,
            "cache_hits": dedup.cache_hits,
            "executor_rounds": dedup.n_rounds,
            "rounds": stats.rounds,
            "answered": stats.trips_answered,
            "admitted": stats.trips_admitted,
            "rejected": stats.rejected_trips,
        }

    def mark_counts(self) -> None:
        self._baseline = self._server_counters()

    def layer_counts(
        self, passes: Sequence[Pass], spans: Sequence[tuple]
    ) -> Dict[str, float]:
        if self.background is None:
            return {}
        now = self._server_counters()
        delta = {key: now[key] - self._baseline.get(key, 0) for key in now}
        stats = self.background.server.stats
        # A round is one query_many on an executor thread: its api.db span.
        rounds_ms = [
            (end - start) / 1e6
            for _, _, name, start, end, _, _, _ in spans
            if name == "api.db"
        ]
        round_p50 = statistics.median(rounds_ms) if rounds_ms else 0.0
        call_p50 = 1e3 * statistics.median(s for p in passes for s in p.latencies)
        admit_to_answer_p50 = 1e3 * (stats.latency.percentile(0.5) or 0.0)
        read_us, render_us = self._replay_http(passes[-1])
        return {
            "core.dedup_unique_ratio": delta["unique"] / max(1, delta["planned"]),
            "core.rounds_per_batch": delta["executor_rounds"] / max(1, delta["rounds"]),
            "service.cache_hit_ratio": delta["cache_hits"] / max(1, delta["planned"]),
            "server.trips_per_round": delta["answered"] / max(1, delta["rounds"]),
            "server.rejected_share": delta["rejected"]
            / max(1, delta["admitted"] + delta["rejected"]),
            "server.window_wait_ms_per_call": max(
                0.0, admit_to_answer_p50 - round_p50
            ),
            "server.overhead_ms_per_call": call_p50 - round_p50,
            "server.http_read_us_per_call": read_us,
            "server.http_render_us_per_call": render_us,
        }

    def _replay_http(self, last: Pass, repeats: int = 5) -> Tuple[float, float]:
        """Median microseconds to frame one request / render one
        response, replaying the bytes of this pass's calls through
        ``read_request`` and ``json_response`` (coroutines are measured
        by replay, never by wrapping an ``async def``)."""
        answered = {id(request): result for request, result in last.answers}
        calls = []
        for batch in self.batches:
            if not all(id(request) in answered for request in batch):
                continue
            body = json.dumps(
                {"requests": [request.to_dict() for request in batch]}
            ).encode("utf-8")
            # The head http.client sends for this body.
            head = (
                "POST /v1/query_batch HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{self.port}\r\n"
                "Accept-Encoding: identity\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Content-Type: application/json\r\n\r\n"
            ).encode("latin-1")
            payload = {
                "results": [answered[id(request)].to_dict() for request in batch]
            }
            calls.append((head + body, payload))
        read_s: List[float] = []
        render_s: List[float] = []

        async def replay() -> None:
            limit = self.server_config.max_body_bytes
            for raw, payload in calls * repeats:
                reader = asyncio.StreamReader()
                reader.feed_data(raw)
                reader.feed_eof()
                started = clock()
                request = await read_request(reader, limit)
                read_s.append(clock() - started)
                assert request is not None and len(request.body) > 0
                started = clock()
                rendered = json_response(200, payload)
                render_s.append(clock() - started)
                assert rendered.startswith(b"HTTP/1.1 200")

        asyncio.run(replay())
        if not read_s:
            return 0.0, 0.0
        return 1e6 * statistics.median(read_s), 1e6 * statistics.median(render_s)


# ---------------------------------------------------------------------- #
# shard-lifecycle
# ---------------------------------------------------------------------- #


class ShardLifecycle(Workload):
    """Reads beside writes on the sharded reader."""

    name = "shard-lifecycle"
    QUERIES_PER_PHASE = 48
    #: Trips ask about the next few segments of the route, which keeps a
    #: 10-way fan-out pass near a second and a half on a 2-core host.
    PREFIX_EDGES = 8
    BASE_SHARDS = 2
    BASE_WINDOWS = 4
    APPENDS = 8

    def derive_inputs(self) -> None:
        world = self.world
        n_windows = self.BASE_WINDOWS + self.APPENDS + 1
        self.partition_days = max(1, get_scale(world.scale_name).n_days // n_windows)
        t_min = world.trajectories.time_span()[0]
        window = self.partition_days * SECONDS_PER_DAY
        by_window: Dict[int, list] = {}
        for trajectory in world.trajectories:
            # The tail windows past the layout fold into the last slice.
            bucket = min((trajectory.start_time - t_min) // window, n_windows - 1)
            by_window.setdefault(bucket, []).append(trajectory)
        if sorted(by_window) != list(range(n_windows)):
            raise RuntimeError("world too sparse for the shard layout")
        self.base = TrajectorySet(
            [t for w in range(self.BASE_WINDOWS) for t in by_window[w]]
        )
        self.slices = [
            by_window[w] for w in range(self.BASE_WINDOWS, n_windows)
        ]
        self.last_slice = self.slices.pop()
        self.last_records = sum(len(t) for t in self.last_slice)
        specs = world.spread_specs(self.QUERIES_PER_PHASE)
        order = np.random.default_rng(self.seed).permutation(len(specs))
        self.requests = [
            slot_request(
                specs[i], specs[i].start_time, specs[i].path[: self.PREFIX_EDGES]
            )
            for i in order
        ]
        # Before the append, the last slice is not indexed.  Excluding
        # its trajectories from retrieval on the full reference index
        # selects the same rows: every earlier row enters before the
        # pre-append t_max, so even the fixed [0, t_max) fallback agrees.
        hidden = tuple(t.traj_id for t in self.last_slice)
        self.pre_append = [
            replace(request, exclude_ids=request.exclude_ids + hidden)
            for request in self.requests
        ]
        self.compacted_dir = self.scratch / "compacted"

    def setup(self) -> None:
        world = self.world
        started = clock()
        index = ShardedSNTIndex.build(
            self.base,
            world.network.alphabet_size,
            n_shards=self.BASE_SHARDS,
            partition_days=self.partition_days,
        )
        for piece in self.slices:
            index.append(piece)
            index.seal_staging()
        self.parts["build_s"] = clock() - started
        started = clock()
        index.save(self.index_dir)
        self.parts["save_s"] = clock() - started
        self.built = index
        self.records_built = index.build_stats.n_traversals
        started = clock()
        self._reopen().close()
        self.parts["open_s"] = clock() - started

    def _reopen(self) -> Any:
        index = load_any_index(
            str(self.index_dir),
            expected_alphabet_size=self.world.network.alphabet_size,
        )
        return open_db(index, network=self.world.network, cache=None)

    def open_once(self) -> float:
        started = clock()
        with self._reopen() as db:
            db.query(self.requests[0])
        return clock() - started

    def run_pass(self) -> Pass:
        invoke = self.invoke
        shutil.rmtree(self.compacted_dir, ignore_errors=True)
        latencies: List[float] = []
        answers: List[Tuple[Hashable, Any]] = []
        writes: Dict[str, float] = {}

        def read_phase(keys: Sequence[Hashable]) -> None:
            for key, request in zip(keys, self.requests):
                result, seconds = invoke(query, request)
                latencies.append(seconds)
                answers.append((key, result))

        started = clock()
        db = self._reopen()
        index, query = db.index, db.query
        try:
            read_phase(self.pre_append)  # sealed shards only
            mark = clock()
            index.append(self.last_slice)
            writes["append_s"] = clock() - mark
            read_phase(self.requests)  # with a staging shard
            mark = clock()
            index.seal_staging()
            writes["seal_s"] = clock() - mark
            mark = clock()
            index.compact()
            writes["compact_s"] = clock() - mark
            read_phase(self.requests)  # compacted
            mark = clock()
            index.save(self.compacted_dir)
            writes["save_s"] = clock() - mark
            wall = clock() - started
            stats = index.shard_stats()
        finally:
            db.close()
        counts = {
            "dispatches": stats.n_dispatches,
            "shard_scans": stats.n_shard_scans,
            "shards_pruned": stats.n_shards_pruned,
        }
        return Pass(wall, len(answers), latencies, answers, writes, counts)

    def reference_db(self) -> Any:
        # Bit-identity to the sharded reader needs the same partitioning.
        index = SNTIndex.build(
            self.world.trajectories,
            self.world.network.alphabet_size,
            partition_days=self.partition_days,
        )
        return open_db(index, network=self.world.network, cache=None)

    def reference_requests(self) -> List[Tuple[Hashable, TripRequest]]:
        return [(request, request) for request in self.pre_append + self.requests]

    def index_under_test(self) -> Any:
        return self.built  # the fragmented index, before the last slice

    def oracle_trajectories(self) -> Sequence[Any]:
        return list(self.base) + [t for piece in self.slices for t in piece]

    def layer_counts(
        self, passes: Sequence[Pass], spans: Sequence[tuple]
    ) -> Dict[str, float]:
        total = _summed(passes)
        routed = total["shard_scans"] + total["shards_pruned"]
        return {
            "sntindex.shard_fanout": total["shard_scans"] / total["dispatches"],
            "sntindex.shard_prune_ratio": total["shards_pruned"] / max(1, routed),
        }


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (TripCold, BatchShared, ServedWarm, ShardLifecycle)
}
