"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Generate a synthetic world and write it to disk
    (``network.json`` + ``trajectories.txt``).
``info``
    Print statistics of a stored world.
``query``
    Build (or load) the SNT-index over a stored world and answer one
    strict path query, printing the travel-time histogram.
``index``
    Build the SNT-index over a stored world and save it to disk, so
    later ``query``/``batch`` runs skip the build.
``batch``
    Answer a file (or inline list) of strict path queries through one
    :class:`~repro.api.TravelTimeDB` session — shared sub-query cache,
    optional thread-pool fan-out.
``serve``
    Serve a stored world over HTTP: concurrent connections are
    multiplexed onto shared dedup rounds (``POST /v1/query``,
    ``POST /v1/query_batch``, ``GET /healthz``, ``GET /stats``).
``compact``
    Merge runs of small adjacent sealed shards of a saved sharded
    index in place (atomic manifest swap, epoch/lineage bump) —
    answers stay bit-identical, per-query shard fan-out drops.

``query``/``batch``/``serve`` accept the saved index as ``--index DIR``
or ``--store URI`` (``file:...`` or ``object://...`` — see
:mod:`repro.sntindex.store`); ``compact`` takes the directory or URI
directly.

Example
-------
::

    python -m repro generate --scale tiny --seed 0 --out world/
    python -m repro info --world world/
    python -m repro index --world world/ --out world/index/
    python -m repro query --world world/ --index world/index/ \\
        --path 1,2,3 --tod 08:00 --window-min 15 --beta 10
    python -m repro batch --world world/ --index world/index/ \\
        --paths "1,2,3;4,5,6" --workers 4
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import __version__
from .api import EngineConfig, EstimatorMode, TripRequest, open_db
from .core.intervals import FixedInterval, PeriodicInterval
from .errors import ReproError
from .core.partitioning import PARTITIONER_NAMES
from .network.generator import generate_network
from .network.io import (
    load_network,
    load_trajectories,
    save_network,
    save_trajectories,
)
from .sntindex.compaction import CompactionPolicy, compact_index_dir
from .sntindex.index import SNTIndex
from .sntindex.sharded import ShardedSNTIndex, load_any_index, read_any_meta
from .sntindex.store import is_store_uri
from .trajectories.generator import generate_dataset

__all__ = ["main", "build_parser"]

NETWORK_FILE = "network.json"
TRAJECTORY_FILE = "trajectories.txt"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Travel-time histogram retrieval over trajectory data "
            "(EDBT 2019 reproduction)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def _add_index_source(subparser) -> None:
        group = subparser.add_mutually_exclusive_group()
        group.add_argument(
            "--index",
            default=None,
            help="saved index directory (skips the in-process build)",
        )
        group.add_argument(
            "--store",
            default=None,
            help="saved index as a shard-store URI (file:... or "
            "object://...; skips the in-process build)",
        )

    generate = commands.add_parser(
        "generate", help="generate a synthetic world and store it"
    )
    generate.add_argument("--scale", default="tiny")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output directory")

    info = commands.add_parser("info", help="describe a stored world")
    info.add_argument("--world", required=True, help="world directory")

    query = commands.add_parser(
        "query", help="answer one strict path query over a stored world"
    )
    query.add_argument("--world", required=True)
    _add_index_source(query)
    query.add_argument(
        "--path",
        required=True,
        help="comma-separated edge ids, e.g. 1,2,3",
    )
    query.add_argument(
        "--tod",
        default=None,
        help="time of day HH:MM for a periodic window (omit: full history)",
    )
    query.add_argument("--window-min", type=int, default=15)
    query.add_argument("--user", type=int, default=None)
    query.add_argument("--beta", type=int, default=None)
    query.add_argument(
        "--partitioner", default="pi_Z", choices=PARTITIONER_NAMES
    )
    query.add_argument(
        "--splitter", default="regular", choices=("regular", "longest_prefix")
    )
    query.add_argument(
        "--estimator",
        default=None,
        choices=tuple(mode.value for mode in EstimatorMode),
        help="cardinality-estimator mode (default: no pre-check)",
    )

    index = commands.add_parser(
        "index", help="build the SNT-index over a stored world and save it"
    )
    index.add_argument("--world", required=True)
    index.add_argument(
        "--out",
        required=True,
        help="output directory or store URI (file:... / object://...)",
    )
    index.add_argument("--partition-days", type=int, default=None)
    index.add_argument("--kind", default="css", choices=("css", "btree"))
    index.add_argument(
        "--shards",
        type=int,
        default=None,
        help="build a time-sliced sharded index with K shards (requires "
        "--partition-days; query/batch detect the layout automatically)",
    )
    index.add_argument(
        "--build-workers",
        type=int,
        default=1,
        help="worker processes for the parallel shard build (with --shards)",
    )

    batch = commands.add_parser(
        "batch",
        help="answer a batch of strict path queries via the service",
    )
    batch.add_argument("--world", required=True)
    _add_index_source(batch)
    source = batch.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--paths",
        default=None,
        help="semicolon-separated paths of comma-separated edge ids, "
        "e.g. '1,2,3;4,5,6'",
    )
    source.add_argument(
        "--paths-file",
        default=None,
        help="file with one query per line: 'EDGE,EDGE,... [HH:MM]'; "
        "blank lines and #-comments are skipped",
    )
    batch.add_argument(
        "--tod",
        default=None,
        help="default time of day HH:MM (lines may override; omit: full "
        "history)",
    )
    batch.add_argument("--window-min", type=int, default=15)
    batch.add_argument("--beta", type=int, default=None)
    batch.add_argument("--workers", type=int, default=1)
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="answer the batch N times (demonstrates the warm cache)",
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared sub-query cache",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        help="answer through the cross-process shared cache tier stored "
        "in this directory (created if missing); separate runs — and "
        "forked workers — warm each other's caches",
    )
    batch.add_argument(
        "--partitioner", default="pi_Z", choices=PARTITIONER_NAMES
    )
    batch.add_argument(
        "--splitter", default="regular", choices=("regular", "longest_prefix")
    )
    batch.add_argument(
        "--estimator",
        default=None,
        choices=tuple(mode.value for mode in EstimatorMode),
        help="cardinality-estimator mode (default: no pre-check)",
    )
    batch.add_argument(
        "--stream",
        action="store_true",
        help="stream results as they complete (order-preserving; the "
        "batch is never materialised as a list)",
    )
    batch.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable cross-trip sub-query deduplication (the batch "
        "executor scans each distinct sub-query once per batch by "
        "default; answers are bit-identical either way)",
    )

    serve = commands.add_parser(
        "serve",
        help="serve a stored world over HTTP (shared dedup rounds)",
    )
    serve.add_argument("--world", required=True)
    _add_index_source(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8374,
        help="listen port (0 binds an ephemeral port, printed on start)",
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=5.0,
        help="collection window: trips arriving within this many ms "
        "join one dedup round (0 disables windowing)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="maximum trips per collection round",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="admission bound: trips in flight beyond this are "
        "rejected with HTTP 429 + Retry-After",
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        help="executor threads running collection rounds",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="engine worker threads inside each round",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared sub-query cache",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="serve through the cross-process shared cache tier stored "
        "in this directory (created if missing)",
    )
    serve.add_argument(
        "--cache-ttl-s",
        type=float,
        default=None,
        help="expire shared-tier cache entries older than this many "
        "seconds (requires --cache-dir)",
    )
    serve.add_argument(
        "--partitioner", default="pi_Z", choices=PARTITIONER_NAMES
    )
    serve.add_argument(
        "--splitter", default="regular", choices=("regular", "longest_prefix")
    )

    compact = commands.add_parser(
        "compact",
        help="merge runs of small adjacent sealed shards of a saved "
        "sharded index in place (answers stay bit-identical)",
    )
    compact.add_argument(
        "path",
        help="saved sharded index: a directory or store URI",
    )
    compact.add_argument(
        "--small-traversals",
        type=int,
        default=None,
        help="only shards with at most this many traversals are merge "
        "candidates (default: every sealed shard)",
    )
    compact.add_argument(
        "--min-run",
        type=int,
        default=2,
        help="minimum adjacent candidates worth merging (default: 2)",
    )
    compact.add_argument(
        "--max-group",
        type=int,
        default=None,
        help="cap on shards merged into one (default: unbounded)",
    )

    return parser


def _cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset(args.scale, seed=args.seed)
    save_network(dataset.network, out / NETWORK_FILE)
    save_trajectories(dataset.trajectories, out / TRAJECTORY_FILE)
    print(
        f"generated scale={args.scale} seed={args.seed}: "
        f"{dataset.network.n_edges} edges, "
        f"{len(dataset.trajectories)} trajectories -> {out}"
    )
    return 0


def _load_world(world: str):
    base = Path(world)
    network = load_network(base / NETWORK_FILE)
    trajectories = load_trajectories(base / TRAJECTORY_FILE)
    return network, trajectories


def _cmd_info(args) -> int:
    network, trajectories = _load_world(args.world)
    start, end = trajectories.time_span()
    print(f"network:      {network.n_vertices} vertices, "
          f"{network.n_edges} directed edges")
    print(f"trajectories: {len(trajectories)}")
    print(f"traversals:   {trajectories.total_traversals()}")
    print(f"drivers:      {len(set(tr.user_id for tr in trajectories))}")
    print(f"span:         {(end - start) / 86_400:.1f} days")
    return 0


def _parse_tod(text: str) -> int:
    try:
        hours, minutes = text.split(":")
        tod = int(hours) * 3600 + int(minutes) * 60
    except ValueError:
        raise SystemExit(f"invalid --tod {text!r}; expected HH:MM")
    if not 0 <= tod < 86_400:
        raise SystemExit(f"--tod {text!r} out of range")
    return tod


def _parse_path(text: str, network) -> tuple:
    try:
        path = tuple(int(token) for token in text.split(","))
    except ValueError:
        raise SystemExit(f"invalid path {text!r}")
    for edge in path:
        if not network.has_edge(edge):
            raise SystemExit(f"edge {edge} is not part of the network")
    if not network.is_path(list(path)):
        raise SystemExit(f"path {text!r} is not traversable")
    return path


WORLD_DIGEST_KEY = "world_trajectories_sha256"


def _world_digest(world: str) -> str:
    """SHA-256 of the world's trajectory file (streamed, never parsed)."""
    try:
        with open(Path(world) / TRAJECTORY_FILE, "rb") as handle:
            return hashlib.file_digest(handle, "sha256").hexdigest()
    except OSError as error:
        raise SystemExit(f"cannot read world trajectories: {error}")


def _obtain_index(args, network):
    """Load the saved index (``--index`` dir or ``--store`` URI), else
    build one in process.

    The on-disk layout (monolithic ``meta.json`` dir vs sharded
    ``manifest.json`` dir) is detected automatically; both carry a
    digest of the world they were built from (recorded by the ``index``
    command), so the wrong-world mistake is caught without parsing the
    trajectory file — the point of the rebuild-free cold start.
    Library-made saves without the digest fall back to a parsed
    fingerprint.  The network's alphabet size is checked against the
    manifest *before* any partition payload is opened.
    """
    source = getattr(args, "store", None) or getattr(args, "index", None)
    if source is not None:
        _, meta = read_any_meta(source)
        recorded = (meta.get("extra") or {}).get(WORLD_DIGEST_KEY)
        if recorded is not None:
            if recorded != _world_digest(args.world):
                raise SystemExit(
                    f"saved index at {source} was built over a "
                    "different world (trajectory digest mismatch)"
                )
            return load_any_index(
                source,
                expected_alphabet_size=network.alphabet_size,
            )
        trajectories = load_trajectories(
            Path(args.world) / TRAJECTORY_FILE
        )
        index = load_any_index(
            source, expected_alphabet_size=network.alphabet_size
        )
        t_min, t_max = trajectories.time_span()
        if (
            index.build_stats.n_trajectories != len(trajectories)
            or (index.t_min, index.t_max) != (t_min, t_max)
        ):
            raise SystemExit(
                f"saved index at {source} does not match this world "
                f"(trajectories {index.build_stats.n_trajectories} vs "
                f"{len(trajectories)}); was it built over a different "
                "world?"
            )
        return index
    trajectories = load_trajectories(Path(args.world) / TRAJECTORY_FILE)
    return SNTIndex.build(trajectories, network.alphabet_size)


def _interval_for(tod: Optional[str], window_min: int, t_max: int):
    if tod is not None:
        return PeriodicInterval(
            start_tod=_parse_tod(tod) - window_min * 30,
            duration=window_min * 60,
        )
    return FixedInterval(0, t_max)


def _cmd_index(args) -> int:
    network, trajectories = _load_world(args.world)
    if args.shards is not None:
        index = ShardedSNTIndex.build(
            trajectories,
            network.alphabet_size,
            n_shards=args.shards,
            partition_days=args.partition_days,
            kind=args.kind,
            build_workers=args.build_workers,
        )
        layout = f"{index.n_shards} shard(s), "
    else:
        index = SNTIndex.build(
            trajectories,
            network.alphabet_size,
            partition_days=args.partition_days,
            kind=args.kind,
        )
        layout = ""
    target = index.save(
        args.out, extra={WORLD_DIGEST_KEY: _world_digest(args.world)}
    )
    # For a store URI, save() returns the localized cache path — echo
    # the URI the user addressed, not where the bytes were staged.
    shown = args.out if is_store_uri(str(args.out)) else target
    sizes = index.component_sizes()
    print(
        f"built index over {len(trajectories)} trajectories in "
        f"{index.build_stats.setup_seconds:.1f}s "
        f"({layout}{index.n_partitions} partition(s), kind={args.kind}) "
        f"-> {shown}"
    )
    print(f"component bytes: {sizes}")
    return 0


def _cmd_query(args) -> int:
    network = load_network(Path(args.world) / NETWORK_FILE)
    index = _obtain_index(args, network)
    path = _parse_path(args.path, network)
    interval = _interval_for(args.tod, args.window_min, index.t_max)

    db = open_db(
        index,
        network=network,
        config=EngineConfig(
            partitioner=args.partitioner, splitter=args.splitter
        ),
    )
    result = db.query(
        TripRequest(
            path=path,
            interval=interval,
            user=args.user,
            beta=args.beta,
            estimator=args.estimator,
        )
    )
    histogram = result.histogram
    print(
        f"answered with {len(result.outcomes)} sub-queries in "
        f"{result.elapsed_s * 1000:.1f} ms"
    )
    print(f"estimated mean: {result.estimated_mean:.1f}s")
    if not histogram.is_empty():
        print(f"median: {histogram.quantile(0.5):.1f}s   "
              f"p90: {histogram.quantile(0.9):.1f}s")
        unit = histogram.scaled_to_unit_mass()
        for bucket, mass in sorted(unit.as_dict().items()):
            if mass >= 0.02:
                width = histogram.bucket_width
                bar = "#" * max(1, int(mass * 50))
                print(f"  [{bucket * width:6.0f}s) {bar}")
    return 0


def _read_batch_specs(args) -> List[tuple]:
    """Parse the batch source into ``(path_text, tod_text)`` pairs."""
    specs: List[tuple] = []
    if args.paths is not None:
        for chunk in args.paths.split(";"):
            chunk = chunk.strip()
            if chunk:
                specs.append((chunk, args.tod))
    else:
        try:
            lines = Path(args.paths_file).read_text().splitlines()
        except OSError as error:
            raise SystemExit(f"cannot read --paths-file: {error}")
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) > 2:
                raise SystemExit(
                    f"bad query line {line!r}; expected 'PATH [HH:MM]'"
                )
            specs.append(
                (tokens[0], tokens[1] if len(tokens) == 2 else args.tod)
            )
    if not specs:
        raise SystemExit("batch contains no queries")
    return specs


def _result_line(path_text: str, result) -> str:
    histogram = result.histogram
    summary = (
        f"median {histogram.quantile(0.5):7.1f}s  "
        f"p90 {histogram.quantile(0.9):7.1f}s"
        if not histogram.is_empty()
        else "empty histogram"
    )
    return (
        f"{path_text:24s} mean {result.estimated_mean:7.1f}s  {summary}  "
        f"({len(result.outcomes)} sub-queries, "
        f"{result.n_index_scans} scans, {result.n_cache_hits} hits)"
    )


def _cmd_batch(args) -> int:
    if args.workers < 1:
        raise SystemExit("--workers must be positive")
    if args.repeat < 1:
        raise SystemExit("--repeat must be positive")
    if args.cache_dir is not None and args.no_cache:
        raise SystemExit("--cache-dir and --no-cache are mutually exclusive")
    network = load_network(Path(args.world) / NETWORK_FILE)
    index = _obtain_index(args, network)
    specs = _read_batch_specs(args)

    requests = [
        TripRequest(
            path=_parse_path(path_text, network),
            interval=_interval_for(tod, args.window_min, index.t_max),
            beta=args.beta,
            estimator=args.estimator,
        )
        for path_text, tod in specs
    ]

    db = open_db(
        index,
        network=network,
        cache=None if args.no_cache else "default",
        config=EngineConfig(
            partitioner=args.partitioner,
            splitter=args.splitter,
            n_workers=args.workers,
            dedup_subqueries=not args.no_dedup,
            cache=(
                f"shared:{args.cache_dir}"
                if args.cache_dir is not None
                else "memory"
            ),
        ),
    )
    started = time.perf_counter()
    if args.stream:
        # Order-preserving streaming: each answer prints as the fan-out
        # completes it; the warm-up repeats run first so the printed
        # (final) pass reflects the warmed cache like the batched path.
        for _ in range(args.repeat - 1):
            for _result in db.stream(requests):
                pass
        elapsed = 0.0
        for (path_text, _), result in zip(specs, db.stream(requests)):
            # Stamp elapsed at each arrival so the final print is
            # outside the window.  Earlier prints necessarily interleave
            # with in-flight workers — that consumer I/O is part of what
            # streaming measures, so q/s here can trail the batched mode
            # on a slow terminal.
            elapsed = time.perf_counter() - started
            print(_result_line(path_text, result))
    else:
        for _ in range(args.repeat):
            results = db.query_many(requests)
        elapsed = time.perf_counter() - started
        for (path_text, _), result in zip(specs, results):
            print(_result_line(path_text, result))
    n_answered = len(requests) * args.repeat
    qps = n_answered / elapsed if elapsed > 0 else 0.0
    print(
        f"answered {n_answered} queries in {elapsed * 1000:.1f} ms "
        f"({qps:.0f} q/s, workers={args.workers})"
    )
    stats = db.cache_stats()
    if stats is not None:
        print(f"cache: {stats.summary()}")
    dedup = db.last_dedup_stats
    if dedup is not None:
        print(f"dedup: {dedup.summary()}")
    tier_stats = db.tier_stats()
    if tier_stats is not None:
        print(f"shared tier: {tier_stats.summary()}")
    shard_stats = getattr(index, "shard_stats", None)
    if shard_stats is not None:
        routing = shard_stats()
        print(
            f"shards: per-shard scans {routing.per_shard_scans}; "
            f"{routing.n_shards_pruned} pruned "
            f"({routing.prune_rate:.0%} of routing decisions)"
        )
    return 0


def _cmd_serve(args) -> int:
    from .server import ServerConfig, run_server

    if args.cache_ttl_s is not None and args.cache_dir is None:
        raise SystemExit("--cache-ttl-s requires --cache-dir")
    if args.cache_dir is not None and args.no_cache:
        raise SystemExit("--cache-dir and --no-cache are mutually exclusive")
    network = load_network(Path(args.world) / NETWORK_FILE)
    index = _obtain_index(args, network)
    db = open_db(
        index,
        network=network,
        cache=None if args.no_cache else "default",
        config=EngineConfig(
            partitioner=args.partitioner,
            splitter=args.splitter,
            n_workers=args.workers,
            dedup_subqueries=True,
            cache=(
                f"shared:{args.cache_dir}"
                if args.cache_dir is not None
                else "memory"
            ),
            cache_ttl_s=args.cache_ttl_s,
        ),
    )
    server_config = ServerConfig(
        host=args.host,
        port=args.port,
        window_s=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        executor_workers=args.serve_workers,
    )

    def _announce(server) -> None:
        print(
            f"serving {args.world} on http://{args.host}:{server.port} "
            f"(window {args.window_ms:g} ms, max_batch {args.max_batch}, "
            f"max_inflight {args.max_inflight}); Ctrl-C to stop",
            flush=True,
        )

    # Bind failures (port in use, bad host) raise ServerError — a
    # ReproError — so main() prints one `error: ...` line and exits 1.
    run_server(db, server_config, on_started=_announce)
    print("server stopped (drained)")
    return 0


def _cmd_compact(args) -> int:
    policy = CompactionPolicy(
        small_traversals=args.small_traversals,
        min_run=args.min_run,
        max_group=args.max_group,
    )
    report = compact_index_dir(args.path, policy)
    if report.did_compact:
        merged = ", ".join(
            "+".join(group) for group in report.merged_groups
        )
        print(
            f"compacted {args.path}: {report.n_sealed_before} -> "
            f"{report.n_sealed_after} sealed shard(s) "
            f"(merged {merged}; epoch {report.epoch})"
        )
    else:
        print(
            f"nothing to compact at {args.path}: "
            f"{report.n_sealed_before} sealed shard(s), no run of "
            f"{args.min_run}+ adjacent candidates"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes (the documented CLI contract):

    * ``0`` — success;
    * ``1`` — any :class:`~repro.errors.ReproError` (bad saved index,
      malformed request, ...): exactly one ``error: ...`` line on stderr;
    * ``2`` — usage errors (argparse), including ``python -m repro``
      with no arguments, which prints the usage text.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        # argparse would reject this too, but with a bare "arguments
        # required" message; the documented contract is usage + exit 2.
        parser.print_usage(sys.stderr)
        print(
            "repro: error: a command is required "
            "(try 'repro --help')",
            file=sys.stderr,
        )
        raise SystemExit(2)
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "query": _cmd_query,
        "index": _cmd_index,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "compact": _cmd_compact,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # Library errors (bad saved index, malformed queries, ...) are
        # user input problems, not crashes: exactly one line, exit 1 —
        # for every ReproError subclass, multi-line payloads collapsed.
        message = " ".join(str(error).split()) or type(error).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; standard CLI etiquette.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
