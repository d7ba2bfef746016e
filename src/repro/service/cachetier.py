"""The cache protocol, and the cross-process tier behind the cache.

The engine consumes one cache protocol (:class:`CacheBackend`) and one
class implements it, :class:`~repro.service.cache.SubQueryCache`; this
module holds what makes that class cross-process:

* :class:`SqliteCacheStore` — an SQLite file under the index directory
  that *multiple processes* share, so separate serving processes (and
  separate ``repro batch`` runs) warm each other's caches instead of
  recomputing repeated sub-paths once per process.  The file and nothing
  in-process: no entry is held here.
* :class:`SharedCacheTier` — a ``SubQueryCache`` built over such a store.

Keying follows the ROADMAP external-cache-tier contract exactly: an
entry's key is the sub-query's :meth:`repro.api.TripRequest.to_dict`
wire form plus the :meth:`repro.api.EngineConfig.cache_identity`
fingerprint.  Payloads are wire forms too
(:meth:`repro.sntindex.procedures.TravelTimeResult.to_wire` for
retrieval results, the histogram payload of ``TripQueryResult.to_dict``
for histograms, the whole ``TripQueryResult.to_dict`` for memoised
trips), so an entry written by one process deserialises bit-identically
in another.

Every row carries the ``(epoch, lineage)`` stamp of the index state it
was computed against and reads match the reader's *current* stamp only,
so entries written before an ``append()`` are never served after it —
even to a process that did not observe the append — and two processes
that appended *different* tails to copies of one saved index (same epoch
number, different lineage: :meth:`SqliteCacheStore.lineage`) never serve
each other.

Layout: ``<cache_dir>/subquery_cache.sqlite`` in WAL mode — safe for
concurrent readers/writers across processes; connections are opened
lazily per process (an inherited parent connection is never reused
across a fork).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from ..errors import ConfigurationError
from ..histogram.histogram import Histogram
from ..sntindex.procedures import TravelTimeResult
from .cache import SECTIONS, CacheStats, Stamp, SubQueryCache

if TYPE_CHECKING:  # the api layer sits above the service; imports are lazy
    from ..api.config import EngineConfig

__all__ = [
    "CacheBackend",
    "SqliteCacheStore",
    "SharedCacheTier",
    "SharedTierStats",
    "resolve_cache_backend",
]

_DB_FILENAME = "subquery_cache.sqlite"


@runtime_checkable
class CacheBackend(Protocol):
    """The cache protocol :class:`repro.core.exec.TripMachine` and the
    :class:`repro.core.engine.QueryEngine` driver consume, plus the
    session lifecycle hooks.

    ``get_*`` returns ``None`` on a miss; cached values are treated as
    immutable by all parties.  Four sections: ISA ``ranges`` per path,
    retrieval ``results`` per sub-query, ``histograms`` per (sub-query,
    bucket width), and ``trips`` — whole answers, keyed by
    :meth:`repro.core.engine.QueryEngine.trip_key` (the request with its
    estimator resolved, plus the planner policy), stored in their
    replayed accounting (:meth:`TripQueryResult.replayed`).  Every
    section is emptied by ``clear()`` and by ``sync_epoch`` on an epoch
    change.
    """

    def bind_index(self, index: Any, network: Any = None) -> None: ...

    def sync_epoch(self, index: Any) -> None: ...

    def get_ranges(
        self, path: Tuple[int, ...]
    ) -> Optional[List[Tuple[int, int, int]]]: ...

    def put_ranges(
        self, path: Tuple[int, ...], ranges: List[Tuple[int, int, int]]
    ) -> None: ...

    def get_result(self, key: Hashable) -> Any: ...

    def put_result(self, key: Hashable, result: Any) -> None: ...

    def get_results_many(
        self, keys: Sequence[Hashable]
    ) -> Dict[Hashable, Any]: ...

    def put_results_many(
        self, items: Sequence[Tuple[Hashable, Any]]
    ) -> None: ...

    def get_histogram(self, key: Hashable) -> Any: ...

    def put_histogram(self, key: Hashable, histogram: Any) -> None: ...

    def get_trip(self, key: Hashable) -> Any: ...

    def put_trip(self, key: Hashable, result: Any) -> None: ...

    def clear(self) -> None: ...

    def close(self) -> None: ...

    def stats(self) -> CacheStats: ...


@dataclass(frozen=True)
class SharedTierStats:
    """Per-section split of where hits came from, plus store info.

    ``l1_hits`` were answered from this process's in-memory layer,
    ``shared_hits`` from the cross-process store (written by this or
    *another* process), ``misses`` found neither.
    """

    l1_hits: Dict[str, int]
    shared_hits: Dict[str, int]
    misses: Dict[str, int]
    db_path: str
    db_entries: int

    def summary(self) -> str:
        parts = []
        for name in SECTIONS:
            parts.append(
                f"{name}: {self.l1_hits[name]} l1 / "
                f"{self.shared_hits[name]} shared hits, "
                f"{self.misses[name]} misses"
            )
        parts.append(f"{self.db_entries} stored entries")
        return "; ".join(parts)


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _request_wire(result_key: Any) -> Dict[str, Any]:
    """The sub-query's ``TripRequest.to_dict()`` wire form.

    The engine keys retrieval results by
    ``(path, interval, user, beta, exclude_ids)`` — exactly the
    answer-shaping fields of a :class:`~repro.api.TripRequest`, so the
    cross-process key is the corresponding request wire form.
    """
    # Lazy: repro.api is the layer above the service package (api.db
    # imports this module), so a module-scope import would be circular.
    from ..api.request import _interval_to_dict

    path, interval, user, beta, exclude = result_key
    return {
        "path": [int(e) for e in path],
        "interval": _interval_to_dict(interval),
        "user": None if user is None else int(user),
        "exclude_ids": [int(i) for i in exclude],
        "beta": None if beta is None else int(beta),
        "estimator": None,
    }


def _trip_wire(key: Any) -> Dict[str, Any]:
    """A trip's cross-process key: the request wire form with its
    estimator resolved.  The planner policy at the end of the
    in-process key is not serialised — :meth:`cache_identity
    <repro.api.EngineConfig.cache_identity>`, part of every row,
    already pins it."""
    path, interval, user, exclude, beta, estimator, _ = key
    wire = _request_wire((path, interval, user, beta, exclude))
    wire["estimator"] = estimator  # None, or (mode, user selectivity)
    return wire


def _trip_from_wire(payload: Dict[str, Any]) -> Any:
    from ..core.engine import TripQueryResult  # core.engine types us

    result = TripQueryResult.from_dict(payload)
    for outcome in result.outcomes:
        outcome.values.setflags(write=False)
    return result


_Codec = Callable[[Any], Any]

#: Per section: in-process key -> wire-form key (the ROADMAP contract;
#: stored as canonical JSON), value -> JSON payload, payload -> value.
_CODECS: Dict[str, Tuple[_Codec, _Codec, _Codec]] = {
    "ranges": (
        lambda path: {"path": [int(e) for e in path]},
        lambda ranges: [[int(w), int(st), int(ed)] for w, st, ed in ranges],
        lambda rows: [(int(w), int(st), int(ed)) for w, st, ed in rows],
    ),
    "results": (
        _request_wire, TravelTimeResult.to_wire, TravelTimeResult.from_wire
    ),
    "histograms": (
        lambda key: {
            "request": _request_wire(key[0]),
            "bucket_width": float(key[1]),
        },
        Histogram.to_wire,
        Histogram.from_wire,
    ),
    "trips": (_trip_wire, lambda trip: trip.to_dict(), _trip_from_wire),
}


class SqliteCacheStore:
    """The SQLite file behind a :class:`SharedCacheTier`: rows keyed by
    ``(section, configuration identity, wire-form key, epoch, lineage)``
    and nothing in-process — :class:`~repro.service.cache.SubQueryCache`
    owns the entries, the binding and the current stamp, and passes the
    stamp to every read and write.  (Not to be confused with
    :class:`repro.sntindex.store.ShardStore`, which persists the index.)

    The constructor arguments are :class:`SharedCacheTier`'s of those
    names, kept as plain attributes that never change afterwards.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        identity: str,
        max_store_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> None:
        if max_store_entries is not None and max_store_entries < 1:
            raise ConfigurationError(
                "max_store_entries must be positive or None (unbounded)"
            )
        if max_age_s is not None and not max_age_s > 0:
            raise ConfigurationError(
                "max_age_s must be positive or None (no age limit)"
            )
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / _DB_FILENAME
        self.identity = identity
        self._ident_hash = hashlib.sha256(identity.encode()).hexdigest()
        self.max_store_entries = max_store_entries
        self.max_age_s = None if max_age_s is None else float(max_age_s)
        #: Wall-clock time of this handle's last expired-row collection
        #: (see :meth:`_expire_locked`).  Test seam: set it to 0.0 to
        #: make the next amortised collection due.
        self.last_expiry_gc = 0.0
        self._rows_since_bound_check = 0
        self._lock = threading.Lock()  # serialises every SQLite call
        # Connections are per (process, store): sqlite3 handles must not
        # cross a fork, so a child that inherits this object reopens.
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._init_schema(self.connection())

    # -- plumbing -------------------------------------------------------- #

    def connection(self) -> sqlite3.Connection:
        """This process's connection (opened on first use after a fork).
        Internal callers hold ``_lock``; also the test seam for reading
        and back-dating rows directly."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            conn = sqlite3.connect(
                str(self.path),
                timeout=30.0,
                isolation_level=None,  # autocommit; every op is atomic
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            self._conn = conn
            self._conn_pid = pid
        return self._conn

    @staticmethod
    def _init_schema(conn: sqlite3.Connection) -> None:
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            "  section TEXT NOT NULL,"
            "  ident TEXT NOT NULL,"
            "  key TEXT NOT NULL,"
            "  epoch INTEGER NOT NULL,"
            "  lineage TEXT NOT NULL,"
            "  payload TEXT NOT NULL,"
            "  created_at REAL NOT NULL DEFAULT 0,"
            "  PRIMARY KEY (section, ident, key, epoch, lineage)"
            ")"
        )
        # Stores written before the TTL column existed migrate in place;
        # their rows get write time 0 (see ``max_age_s``).
        columns = {
            str(row[1])
            for row in conn.execute("PRAGMA table_info(entries)")
        }
        if "created_at" not in columns:
            conn.execute(
                "ALTER TABLE entries ADD COLUMN "
                "created_at REAL NOT NULL DEFAULT 0"
            )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta ("
            "  key TEXT PRIMARY KEY, value TEXT NOT NULL"
            ")"
        )

    def _expire_locked(self, force: bool = False) -> None:
        """Drop rows past ``max_age_s``; caller holds ``_lock``.

        Amortised per handle unless ``force`` — at most every
        ``max_age_s / 4`` seconds: a full-table DELETE scan per write
        would dominate warm traffic, and reads never depend on it
        having run (they filter on the write time), so it only reclaims
        file space.
        """
        if self.max_age_s is None:
            return
        now = time.time()
        if not force and now - self.last_expiry_gc < self.max_age_s / 4:
            return
        self.last_expiry_gc = now
        self.connection().execute(
            "DELETE FROM entries WHERE created_at < ?",
            (now - self.max_age_s,),
        )

    def _enforce_bound_locked(self) -> None:
        """Drop the oldest-written rows past ``max_store_entries``.

        Caller holds ``_lock``.  Ordering is by ``rowid`` — insertion
        order, with a REPLACE moving a refreshed entry to the newest
        position — and the bound counts the whole file, so every
        configuration/lineage sharing the store stays inside it.
        """
        if self.max_store_entries is None:
            return
        self._rows_since_bound_check = 0
        conn = self.connection()
        (count,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        excess = int(count) - self.max_store_entries
        if excess > 0:
            conn.execute(
                "DELETE FROM entries WHERE rowid IN ("
                "SELECT rowid FROM entries ORDER BY rowid ASC LIMIT ?)",
                (excess,),
            )

    # -- what SubQueryCache calls ---------------------------------------- #

    @staticmethod
    def lineage(index: Any) -> str:
        """The mutation-lineage half of an index state's stamp.

        Epoch numbers are per-object ordinal counters, so two processes
        appending *different* tails to copies of one saved index collide
        on the same number — the lineage keeps their rows apart.  A
        mutated index carries an explicit ``epoch_token`` (set by
        ``append()`` and ``compact()``, persisted in the sharded
        manifest).  Compaction bumps the token even though answers are
        bit-identical: per-shard artefacts such as ``per_shard_scans``
        labels change with the topology, and a conservative drop of the
        shared tier is cheaper than proving every cached row
        merge-invariant.  Unmutated state has no token, so its lineage
        is derived from content scalars (corpus end time and build
        counts): two *builds over different data* — e.g. the CLI
        rebuilding in memory after the world's trajectory file was
        edited — then produce different lineages and can never serve
        each other's entries, while deterministic rebuilds (and every
        loader of one saved state) agree and share.
        """
        token = str(getattr(index, "epoch_token", ""))
        if token:
            return token
        stats = getattr(index, "build_stats", None)
        return "base:{}:{}:{}".format(
            int(getattr(index, "t_max", 0)),
            int(getattr(stats, "n_trajectories", -1)),
            int(getattr(stats, "n_traversals", -1)),
        )

    def bind(self, index: Any, network: Any) -> None:
        """Pin the *file* to one data fingerprint.

        Across processes object identity does not exist, so the store
        records a structural fingerprint of the index and network on
        first use and every later handle must match it — catching the
        "same directory, different world" mistake.
        """
        fingerprint = _canonical_json(
            {
                "alphabet_size": int(index.alphabet_size),
                "t_min": int(getattr(index, "t_min", 0)),
                "network_edges": int(getattr(network, "n_edges", -1)),
                "network_vertices": int(getattr(network, "n_vertices", -1)),
            }
        )
        with self._lock:
            conn = self.connection()
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) "
                "VALUES ('fingerprint', ?)",
                (fingerprint,),
            )
            # Re-read after the insert: if a concurrent process won the
            # INSERT race with a *different* fingerprint, the ignored
            # insert must not let this handle proceed.
            row = conn.execute(
                "SELECT value FROM meta WHERE key='fingerprint'"
            ).fetchone()
        if row is None or str(row[0]) != fingerprint:
            raise ValueError(
                f"shared cache store at {self.path} was populated for a "
                "different index/network (fingerprint mismatch); point "
                "the tier at a fresh directory"
            )

    def get_many(
        self, section: str, keys: Sequence[Hashable], stamp: Stamp
    ) -> Dict[Hashable, Any]:
        """The stored subset of ``keys``, decoded: one query per 500.

        Only rows written at exactly ``stamp`` and (with a TTL) young
        enough match — whether or not any collection has run.
        """
        wire_key, _, decode = _CODECS[section]
        by_wire = {_canonical_json(wire_key(key)): key for key in keys}
        wanted = list(by_wire)
        # No TTL: cutoff 0.0 passes every write time, including the 0 of
        # migrated pre-TTL rows.
        age = self.max_age_s
        cutoff = 0.0 if age is None else time.time() - age
        rows: List[Tuple[str, str]] = []
        with self._lock:
            conn = self.connection()
            # SQLite caps bound parameters (999 historically); chunk.
            for start in range(0, len(wanted), 500):
                chunk = wanted[start : start + 500]
                marks = ",".join("?" * len(chunk))
                rows += conn.execute(
                    f"SELECT key, payload FROM entries WHERE section=? "
                    f"AND ident=? AND epoch=? AND lineage=? "
                    f"AND created_at>=? AND key IN ({marks})",
                    [section, self._ident_hash, *stamp, cutoff, *chunk],
                ).fetchall()
        return {
            by_wire[str(key)]: decode(json.loads(payload))
            for key, payload in rows
        }

    def put_many(
        self,
        section: str,
        items: Sequence[Tuple[Hashable, Any]],
        stamp: Stamp,
    ) -> None:
        """Insert (or refresh) ``items`` at ``stamp``, then run the
        amortised TTL and bound collections."""
        wire_key, encode, _ = _CODECS[section]
        now = time.time()
        rows = [
            (section, self._ident_hash, _canonical_json(wire_key(key)),
             *stamp, _canonical_json(encode(value)), now)
            for key, value in items
        ]
        with self._lock:
            self.connection().executemany(
                "INSERT OR REPLACE INTO entries "
                "(section, ident, key, epoch, lineage, payload, "
                "created_at) VALUES (?,?,?,?,?,?,?)",
                rows,
            )
            self._expire_locked()
            # The bound check is a COUNT(*), O(store size): it runs once
            # per ``bound // 64`` inserted rows — exact for small bounds,
            # ~1.5% overshoot per writing handle for large ones
            # (``supersede`` always enforces).
            self._rows_since_bound_check += len(rows)
            bound = self.max_store_entries
            if bound is not None and (
                self._rows_since_bound_check >= bound // 64
            ):
                self._enforce_bound_locked()

    def expire(self) -> None:
        """The amortised TTL collection alone: ``sync_epoch``'s every-
        trip hook (warm traffic never pays a table scan per trip)."""
        if self.max_age_s is not None:
            with self._lock:
                self._expire_locked()

    def supersede(self, old: Stamp, new: Stamp) -> None:
        """Collect what a handle moving from ``old`` to ``new`` left
        behind, then force the TTL and bound collections.

        Only the rows this handle's own history superseded go: older
        epochs of its *previous* lineage — never a parallel lineage's
        current entries, and never newer epochs: a process lagging
        behind an append must not delete the up-to-date entries of its
        peers.  Rows of abandoned lineages linger until ``clear()``,
        the ``max_store_entries`` bound or ``max_age_s`` collects them;
        they are unreachable, so only size is affected, never answers.
        """
        with self._lock:
            self.connection().execute(
                "DELETE FROM entries WHERE epoch < ? AND lineage = ?",
                (new[0], old[1]),
            )
            self._expire_locked(force=True)
            self._enforce_bound_locked()

    def count(self) -> int:
        """Rows in the file, every configuration's included."""
        with self._lock:
            rows = self.connection().execute("SELECT COUNT(*) FROM entries")
            return int(rows.fetchone()[0])

    def clear(self) -> None:
        """Drop this configuration's rows; other configurations
        sharing the file are untouched."""
        with self._lock:
            self.connection().execute(
                "DELETE FROM entries WHERE ident=?", (self._ident_hash,)
            )

    def close(self) -> None:
        """Release this process's connection; the rows persist."""
        with self._lock:
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._conn_pid = None


class SharedCacheTier(SubQueryCache):
    """A :class:`~repro.service.cache.SubQueryCache` over a
    :class:`SqliteCacheStore`: the cache multiple processes share.

    Parameters
    ----------
    cache_dir:
        Directory holding the store (created if missing) — conventionally
        ``<index_dir>/cache/`` so the tier lives and dies with the index
        it answers for.
    config:
        The :class:`~repro.api.EngineConfig` of the sessions that will
        share this tier; its :meth:`~repro.api.EngineConfig.cache_identity`
        becomes part of every key, so differently-configured sessions
        sharing one directory can never serve each other's entries.
        Configs with a ``beta_policy`` are rejected — a callable has no
        cross-process identity.
    max_entries:
        Per-section bound of the in-process layer (L1) that fronts the
        store; ``None`` = unbounded.
    max_store_entries:
        Bound on the number of rows in the shared store itself
        (``None`` = unbounded; epoch GC still applies).  Enforced as
        insertion-order garbage collection on insert and during
        ``sync_epoch``: when the store exceeds the bound, the
        oldest-written rows are dropped — across every configuration and
        lineage sharing the file, since the bound protects the *file*.
        The check is exact for small bounds and amortised (once per
        ``bound // 64`` inserted rows; ``sync_epoch``'s collection
        always checks) for large ones, so a writing handle can
        transiently overshoot by ~1.5% of the bound.
        Eviction can only force a recomputation, never change an
        answer, because every read that misses the store falls through
        to the index scan that produced the entry in the first place.
    max_age_s:
        Maximum age of stored rows in seconds (``None`` = no age
        limit) — the long-running-server knob
        (``EngineConfig.cache_ttl_s``).  Every row is stamped with its
        write time; reads filter rows older than the limit (an expired
        row is a miss, across every process sharing the file,
        regardless of which handle wrote it), and expired rows are
        garbage-collected lazily — on ``sync_epoch`` and amortised
        during writes, at most every ``max_age_s / 4`` seconds per
        handle.  Rows written by a pre-TTL build carry write time 0
        and expire immediately once a TTL is configured.  Like the
        store bound, expiry only ever forces a recomputation, never a
        different answer; the bounded in-process L1 is deliberately
        not age-filtered (its entries are keyed by everything that
        shapes an answer, so serving them is always correct — the TTL
        protects the *file*, which outlives the process).  Stamps
        compare wall clocks across processes, so keep the limit well
        above any plausible clock skew (minutes, not milliseconds).

    Everything else — sections, binding, epoch invalidation, promotion,
    ``stats()`` — is :class:`~repro.service.cache.SubQueryCache`'s.
    """

    store: SqliteCacheStore  # never None here

    def __init__(
        self,
        cache_dir: Union[str, Path],
        config: Optional["EngineConfig"] = None,
        *,
        identity: Optional[str] = None,
        max_entries: Optional[int] = 65_536,
        max_store_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> None:
        if (config is None) == (identity is None):
            raise ConfigurationError(
                "SharedCacheTier needs exactly one of config= (an "
                "EngineConfig) or identity= (a precomputed fingerprint)"
            )
        if identity is None:
            assert config is not None
            identity = config.cache_identity()
        store = SqliteCacheStore(
            cache_dir, identity, max_store_entries, max_age_s
        )
        super().__init__(max_entries, max_entries, max_entries, store=store)

    def tier_stats(self) -> SharedTierStats:
        """Where hits came from, plus store occupancy."""
        with self._bind_lock:
            shared_hits = dict(self._store_hits)
        own = {name: lru.stats() for name, lru in self._sections.items()}
        return SharedTierStats(
            l1_hits={name: own[name].hits for name in SECTIONS},
            shared_hits=shared_hits,
            misses={
                name: own[name].misses - shared_hits[name]
                for name in SECTIONS
            },
            db_path=str(self.store.path),
            db_entries=self.store.count(),
        )


def resolve_cache_backend(
    config: "EngineConfig", index: Any
) -> Optional[CacheBackend]:
    """Build the cache backend an :class:`~repro.api.EngineConfig` asks for.

    The ``config.cache`` spec:

    * ``"memory"`` — an in-process :class:`SubQueryCache` (the default);
    * ``"off"`` — no shared cache (per-trip caching only);
    * ``"shared"`` — a :class:`SharedCacheTier` under
      ``<index dir>/cache/`` (the index must have been loaded from
      disk, so its directory is known);
    * ``"shared:<dir>"`` — a :class:`SharedCacheTier` at an explicit
      directory.
    """
    spec = config.cache
    if spec == "off":
        return None
    if spec == "memory":
        return SubQueryCache(
            max_ranges=config.cache_entries,
            max_results=config.cache_entries,
            max_histograms=config.cache_entries,
        )
    if spec == "shared":
        source = getattr(index, "source_path", None)
        if source is None:
            raise ConfigurationError(
                "cache='shared' places the tier under the index "
                "directory, but this index was not loaded from disk — "
                "use cache='shared:<dir>' to give an explicit directory"
            )
        cache_dir: Path = Path(source) / "cache"
    else:
        # EngineConfig validated the spec shape; only shared:<dir> is left.
        cache_dir = Path(spec.split(":", 1)[1])
    return SharedCacheTier(
        cache_dir,
        config,
        max_entries=config.cache_entries,
        max_store_entries=config.cache_store_entries,
        max_age_s=config.cache_ttl_s,
    )
