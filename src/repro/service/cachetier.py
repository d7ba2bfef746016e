"""Pluggable sub-query cache backends, including a cross-process tier.

The engine consumes one cache protocol (:class:`CacheBackend`):
``get_ranges``/``put_ranges``, ``get_result``/``put_result``,
``get_histogram``/``put_histogram``, ``get_trip``/``put_trip`` plus the
lifecycle hooks (``bind_index``, ``sync_epoch``, ``spawn_for_worker``,
``close``).  Two implementations exist:

* :class:`~repro.service.cache.SubQueryCache` — the in-process LRU of
  PR 1, private to one process;
* :class:`SharedCacheTier` (this module) — a tier that *multiple
  processes* share through an SQLite store under the index directory,
  so fork fan-out workers and entirely separate serving processes warm
  each other's caches instead of recomputing repeated sub-paths once
  per process.

Keying follows the ROADMAP external-cache-tier contract exactly: an
entry's key is the sub-query's :meth:`repro.api.TripRequest.to_dict`
wire form plus the :meth:`repro.api.EngineConfig.cache_identity`
fingerprint, and every entry is stamped with the index ``epoch`` it was
computed against.  Payloads are wire forms too
(:meth:`repro.sntindex.procedures.TravelTimeResult.to_wire` for
retrieval results, the histogram payload of
``TripQueryResult.to_dict`` for histograms, the whole
``TripQueryResult.to_dict`` for memoised trips), so an entry written by
one process deserialises bit-identically in another.

Epoch invalidation: reads only ever match rows stamped with the
reader's *current* epoch, so entries written before an append are never
served after it — even to a process that did not observe the append
write.  ``sync_epoch`` additionally garbage-collects rows stamped with
older epochs.  Because epoch numbers are per-object ordinal counters,
entries are additionally stamped with the index's ``epoch_token``
lineage (set by ``append()``): two processes that independently append
*different* tails to copies of one saved index land on the same epoch
number but different lineages, so they can never serve each other's
entries.

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
from .cache import CacheStats, LRUCache, SectionStats, SubQueryCache

if TYPE_CHECKING:  # the api layer sits above the service; imports are lazy
    from ..api.config import EngineConfig

__all__ = [
    "CacheBackend",
    "SharedCacheTier",
    "SharedTierStats",
    "resolve_cache_backend",
]

_DB_FILENAME = "subquery_cache.sqlite"

#: Sections of the sub-query cache, mirroring :class:`SubQueryCache`.
_SECTIONS = ("ranges", "results", "histograms", "trips")


@runtime_checkable
class CacheBackend(Protocol):
    """The cache protocol :class:`repro.core.exec.TripMachine` and the
    :class:`repro.core.engine.QueryEngine` drivers consume, plus the
    session lifecycle hooks.

    ``get_*`` returns ``None`` on a miss; cached values are treated as
    immutable by all parties.  Four sections: ISA ``ranges`` per path,
    retrieval ``results`` per sub-query, ``histograms`` per (sub-query,
    bucket width), and ``trips`` — whole answers, keyed by
    :meth:`repro.core.engine.QueryEngine.trip_key` (the request with its
    estimator resolved, plus the planner policy), stored in their
    replayed accounting (:meth:`TripQueryResult.replayed`).  Every
    section is emptied by ``clear()`` and by ``sync_epoch`` on an epoch
    change.  ``spawn_for_worker`` is called *inside a
    forked worker process* on the inherited parent backend and must
    return the backend that worker should use without touching any
    parent lock (the fork may have snapshotted one mid-critical-section):
    an in-process cache returns a fresh empty clone, a shared tier
    returns a new handle onto the same store.
    """

    def bind_index(self, index: Any, network: Any = None) -> None: ...

    def sync_epoch(self, index: Any) -> None: ...

    def spawn_for_worker(self) -> "CacheBackend": ...

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
        for name in _SECTIONS:
            parts.append(
                f"{name}: {self.l1_hits[name]} l1 / "
                f"{self.shared_hits[name]} shared hits, "
                f"{self.misses[name]} misses"
            )
        parts.append(f"{self.db_entries} stored entries")
        return "; ".join(parts)


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _interval_wire(interval: Any) -> Dict[str, Any]:
    # Lazy import: repro.api is the layer above the service package, so
    # importing it at module scope would be circular (api.db -> service).
    from ..api.request import _interval_to_dict

    return _interval_to_dict(interval)


def _histogram_from_wire(payload: Dict[str, Any]) -> Any:
    from ..histogram.histogram import Histogram

    return Histogram.from_wire(payload)


def _trip_from_wire(payload: Dict[str, Any]) -> Any:
    from ..core.engine import TripQueryResult

    result = TripQueryResult.from_dict(payload)
    for outcome in result.outcomes:
        outcome.values.setflags(write=False)
    return result


def _index_lineage(index: Any) -> str:
    """The mutation-lineage stamp of an index state.

    A mutated index carries an explicit ``epoch_token`` (set by
    ``append()`` and ``compact()``, persisted in the sharded
    manifest).  Compaction bumps the token even though answers are
    bit-identical: per-shard artefacts such as ``per_shard_scans``
    labels change with the topology, and a conservative drop of the
    shared tier is cheaper than proving every cached row
    merge-invariant.  Unmutated state
    has no token, so its lineage is derived from content scalars
    (corpus end time and build counts): two *builds over different
    data* — e.g. the CLI rebuilding in memory after the world's
    trajectory file was edited — then produce different lineages and
    can never serve each other's entries, while deterministic rebuilds
    (and every loader of one saved state) agree and share.
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


class SharedCacheTier:
    """A sub-query cache multiple processes share through one store.

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
        The check is exact for small bounds and amortised (every
        ``bound // 64`` single-row inserts; batched inserts and
        ``sync_epoch`` always check) for large ones, so a writing
        handle can transiently overshoot by ~1.5% of the bound.
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

    Reads check L1 first, then the store (deserialising and promoting
    into L1); writes go to both.  Values handed out are immutable —
    arrays are marked read-only exactly like the in-process cache.
    """

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
        self._dir = Path(cache_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._db_path = self._dir / _DB_FILENAME
        self._identity = identity
        self._ident_hash = hashlib.sha256(
            identity.encode("utf-8")
        ).hexdigest()
        if max_store_entries is not None and max_store_entries < 1:
            raise ConfigurationError(
                "max_store_entries must be positive or None (unbounded)"
            )
        if max_age_s is not None and not max_age_s > 0:
            raise ConfigurationError(
                "max_age_s must be positive or None (no age limit)"
            )
        self._max_entries = max_entries
        self._max_store_entries = max_store_entries
        self._max_age_s = None if max_age_s is None else float(max_age_s)
        # Expired-row GC is amortised per handle: a DELETE scan per read
        # would dominate warm traffic, so it runs on sync_epoch and at
        # most every max_age_s / 4 seconds during writes.  Reads never
        # depend on the GC having run — they filter on the stamp.
        self._last_expiry_gc = 0.0
        # Single-insert bound checks are amortised: a COUNT(*) costs
        # O(store size), so it runs every ``bound // 64`` single puts
        # (exact for small bounds, ~1.5% amortised overshoot per
        # writing handle for large ones).  Batched puts and sync_epoch
        # always enforce.
        self._bound_check_interval = (
            max(1, max_store_entries // 64)
            if max_store_entries is not None
            else 0
        )
        self._puts_since_bound_check = 0
        self._l1: Dict[str, LRUCache] = {
            name: LRUCache(max_entries) for name in _SECTIONS
        }
        self._lock = threading.Lock()
        self._bind_lock = threading.Lock()
        self._bound_to: Optional[Tuple[Any, Any]] = None
        self._epoch = 0
        # Which mutation produced the current epoch (the index's
        # ``epoch_token``; "" for unmutated disk state).  Epoch numbers
        # are per-object ordinal counters, so two processes appending
        # *different* tails to copies of one saved index collide on the
        # same number — the lineage keeps their entries apart.
        self._lineage = ""
        # Store-path counters only; the L1-hit fast path must not take
        # a lock shared with sqlite I/O (L1 hits are already counted
        # inside the LRUCache sections, under their own locks).
        self._shared_hits = {name: 0 for name in _SECTIONS}
        self._misses = {name: 0 for name in _SECTIONS}
        # Connections are per (process, tier): sqlite3 handles must not
        # cross a fork, so a child that inherits this object reopens.
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        with self._connection() as conn:
            self._init_schema(conn)

    # ------------------------------------------------------------------ #
    # Store plumbing
    # ------------------------------------------------------------------ #

    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            conn = sqlite3.connect(
                str(self._db_path),
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
        # their rows default to write time 0, i.e. they expire the
        # moment any handle configures a TTL (a recomputation, never a
        # wrong answer).
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

    def _age_cutoff(self) -> float:
        """Oldest write stamp a read may serve (0.0 = no TTL: every
        stamp passes, including migrated pre-TTL rows at 0)."""
        if self._max_age_s is None:
            return 0.0
        return time.time() - self._max_age_s

    def _expire_stale_locked(self, force: bool = False) -> None:
        """Drop rows past ``max_age_s``; caller holds ``self._lock``.

        Amortised unless ``force``: a full-table DELETE scan per write
        would dominate warm traffic, and reads are already stamp-
        filtered, so the GC only reclaims file space.
        """
        if self._max_age_s is None:
            return
        now = time.time()
        if not force and now - self._last_expiry_gc < self._max_age_s / 4:
            return
        self._last_expiry_gc = now
        self._connection().execute(
            "DELETE FROM entries WHERE created_at < ?",
            (now - self._max_age_s,),
        )

    def _store_get(self, section: str, key: str) -> Optional[str]:
        with self._lock:
            row = (
                self._connection()
                .execute(
                    "SELECT payload FROM entries WHERE section=? AND "
                    "ident=? AND key=? AND epoch=? AND lineage=? "
                    "AND created_at>=?",
                    (section, self._ident_hash, key, self._epoch,
                     self._lineage, self._age_cutoff()),
                )
                .fetchone()
            )
        return None if row is None else str(row[0])

    def _store_put(self, section: str, key: str, payload: str) -> None:
        with self._lock:
            self._connection().execute(
                "INSERT OR REPLACE INTO entries "
                "(section, ident, key, epoch, lineage, payload, "
                "created_at) VALUES (?,?,?,?,?,?,?)",
                (section, self._ident_hash, key, self._epoch,
                 self._lineage, payload, time.time()),
            )
            self._expire_stale_locked()
            self._puts_since_bound_check += 1
            if (
                self._bound_check_interval
                and self._puts_since_bound_check
                >= self._bound_check_interval
            ):
                self._enforce_store_bound()

    def _store_put_many(
        self, section: str, rows: Sequence[Tuple[str, str]]
    ) -> None:
        """Batched :meth:`_store_put` — one transaction, one bound check."""
        if not rows:
            return
        now = time.time()
        with self._lock:
            self._connection().executemany(
                "INSERT OR REPLACE INTO entries "
                "(section, ident, key, epoch, lineage, payload, "
                "created_at) VALUES (?,?,?,?,?,?,?)",
                [
                    (section, self._ident_hash, key, self._epoch,
                     self._lineage, payload, now)
                    for key, payload in rows
                ],
            )
            self._expire_stale_locked()
            self._enforce_store_bound()

    def _store_get_many(
        self, section: str, keys: Sequence[str]
    ) -> Dict[str, str]:
        """Batched :meth:`_store_get`: one query for a round's probes."""
        if not keys:
            return {}
        found: Dict[str, str] = {}
        with self._lock:
            conn = self._connection()
            # SQLite caps bound parameters (999 historically); chunk.
            for start in range(0, len(keys), 500):
                chunk = list(keys[start : start + 500])
                marks = ",".join("?" for _ in chunk)
                rows = conn.execute(
                    f"SELECT key, payload FROM entries WHERE section=? "
                    f"AND ident=? AND epoch=? AND lineage=? "
                    f"AND created_at>=? AND key IN ({marks})",
                    [section, self._ident_hash, self._epoch, self._lineage,
                     self._age_cutoff()]
                    + chunk,
                ).fetchall()
                for key, payload in rows:
                    found[str(key)] = str(payload)
        return found

    def _enforce_store_bound(self) -> None:
        """Drop the oldest-written rows past ``max_store_entries``.

        Caller holds ``self._lock``.  Ordering is by ``rowid`` —
        insertion order, with a REPLACE moving a refreshed entry to the
        newest position — and the bound counts the whole file, so every
        configuration/lineage sharing the store stays inside it.
        """
        if self._max_store_entries is None:
            return
        self._puts_since_bound_check = 0
        conn = self._connection()
        (count,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        excess = int(count) - self._max_store_entries
        if excess > 0:
            conn.execute(
                "DELETE FROM entries WHERE rowid IN ("
                "SELECT rowid FROM entries ORDER BY rowid ASC LIMIT ?)",
                (excess,),
            )

    # ------------------------------------------------------------------ #
    # Keying (the ROADMAP wire-form contract)
    # ------------------------------------------------------------------ #

    def _request_wire(self, result_key: Hashable) -> Dict[str, Any]:
        """The sub-query's ``TripRequest.to_dict()`` wire form.

        The engine keys retrieval results by
        ``(path, interval, user, beta, exclude_ids)`` — exactly the
        answer-shaping fields of a :class:`~repro.api.TripRequest`, so
        the cross-process key is the corresponding request wire form.
        """
        path, interval, user, beta, exclude = result_key  # type: ignore[misc]
        return {
            "path": [int(e) for e in path],
            "interval": _interval_wire(interval),
            "user": None if user is None else int(user),
            "exclude_ids": [int(i) for i in exclude],
            "beta": None if beta is None else int(beta),
            "estimator": None,
        }

    def _ranges_key(self, path: Tuple[int, ...]) -> str:
        return _canonical_json({"path": [int(e) for e in path]})

    def _result_key(self, key: Hashable) -> str:
        return _canonical_json(self._request_wire(key))

    def _histogram_key(self, key: Hashable) -> str:
        result_key, bucket_width = key  # type: ignore[misc]
        return _canonical_json(
            {
                "request": self._request_wire(result_key),
                "bucket_width": float(bucket_width),
            }
        )

    def _trip_key(self, key: Hashable) -> str:
        """A trip's cross-process key: the request wire form with its
        estimator resolved.  The planner policy at the end of the
        in-process key is not serialised — :meth:`cache_identity
        <repro.api.EngineConfig.cache_identity>`, part of every row,
        already pins it."""
        path, interval, user, exclude, beta, estimator, _ = key  # type: ignore[misc]
        wire = self._request_wire((path, interval, user, beta, exclude))
        wire["estimator"] = estimator  # None, or (mode, user selectivity)
        return _canonical_json(wire)

    # ------------------------------------------------------------------ #
    # Lifecycle (bind / epoch / fork / close)
    # ------------------------------------------------------------------ #

    def bind_index(self, index: Any, network: Any = None) -> None:
        """Pin this handle to one (index, network) pair, and the store
        to one data fingerprint.

        In-process the binding works like
        :meth:`SubQueryCache.bind_index` (object identity, permanent).
        Across processes object identity does not exist, so the store
        records a structural fingerprint of the index and network on
        first use and every later handle must match it — catching the
        "same directory, different world" mistake.
        """
        with self._bind_lock:
            if self._bound_to is not None:
                if (
                    self._bound_to[0] is not index
                    or self._bound_to[1] is not network
                ):
                    raise ValueError(
                        "SharedCacheTier handle is already bound to a "
                        "different index/network; cached answers would "
                        "be wrong — use one handle per (index, network) "
                        "pair"
                    )
                return
            fingerprint = _canonical_json(
                {
                    "alphabet_size": int(index.alphabet_size),
                    "t_min": int(getattr(index, "t_min", 0)),
                    "network_edges": int(
                        getattr(network, "n_edges", -1)
                    ),
                    "network_vertices": int(
                        getattr(network, "n_vertices", -1)
                    ),
                }
            )
            with self._lock:
                conn = self._connection()
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) "
                    "VALUES ('fingerprint', ?)",
                    (fingerprint,),
                )
                # Re-read after the insert: if a concurrent process won
                # the INSERT race with a *different* fingerprint, the
                # ignored insert must not let this handle proceed.
                row = conn.execute(
                    "SELECT value FROM meta WHERE key='fingerprint'"
                ).fetchone()
                if row is None or str(row[0]) != fingerprint:
                    raise ValueError(
                        "shared cache store at "
                        f"{self._db_path} was populated for a different "
                        "index/network (fingerprint mismatch); point the "
                        "tier at a fresh directory"
                    )
            self._bound_to = (index, network)
            self._epoch = int(getattr(index, "epoch", 0))
            self._lineage = _index_lineage(index)

    def sync_epoch(self, index: Any) -> None:
        """Adopt ``index.epoch`` (and its mutation lineage); stale
        entries become unreachable.

        Reads always filter on the handle's current (epoch, lineage)
        stamp, so entries written before an append are never served
        after it — in *any* process, including ones that never observe
        this call — and entries from a *different* mutation that landed
        on the same epoch number are never served at all.  The call
        itself garbage-collects the rows this handle's own history
        superseded (older epochs of its *previous* lineage) — never a
        parallel lineage's current entries, and never newer epochs: a
        process lagging behind an append must not delete the up-to-date
        entries of its peers.  Rows of abandoned lineages linger until
        ``clear()``, the ``max_store_entries`` bound or ``max_age_s``
        collects them; they are unreachable, so only size is affected,
        never answers.
        """
        epoch = int(getattr(index, "epoch", 0))
        lineage = _index_lineage(index)
        with self._bind_lock:
            if epoch == self._epoch and lineage == self._lineage:
                # The common steady-state call (every trip): also the
                # TTL's GC hook, amortised so warm traffic never pays a
                # full-table scan per trip.
                if self._max_age_s is not None:
                    with self._lock:
                        self._expire_stale_locked()
                return
            for section in self._l1.values():
                section.clear()
            with self._lock:
                self._connection().execute(
                    "DELETE FROM entries WHERE epoch < ? AND lineage = ?",
                    (epoch, self._lineage),
                )
                self._expire_stale_locked(force=True)
                self._enforce_store_bound()
            self._epoch = epoch
            self._lineage = lineage

    def spawn_for_worker(self) -> "SharedCacheTier":
        """A fresh handle onto the same store for a forked worker.

        Called in the child on the inherited parent object; touches no
        lock (the fork may have snapshotted one held) and no inherited
        sqlite connection — only immutable attributes — so the worker
        gets clean synchronisation primitives and its own connection,
        while still sharing every stored entry with the parent and its
        sibling workers.
        """
        return SharedCacheTier(
            self._dir,
            identity=self._identity,
            max_entries=self._max_entries,
            max_store_entries=self._max_store_entries,
            max_age_s=self._max_age_s,
        )

    def clear(self) -> None:
        """Empty L1 and drop this configuration's stored entries.

        Other configurations sharing the directory are untouched; the
        index/network binding stays, as for :class:`SubQueryCache`.
        """
        for section in self._l1.values():
            section.clear()
        with self._lock:
            self._connection().execute(
                "DELETE FROM entries WHERE ident=?", (self._ident_hash,)
            )

    def close(self) -> None:
        """Release this handle's connection.  Stored entries persist —
        that is the point of the tier; other processes (or the next
        session) keep serving warm hits from them."""
        with self._lock:
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._conn_pid = None

    # ------------------------------------------------------------------ #
    # Sections
    # ------------------------------------------------------------------ #

    def _get(
        self,
        section: str,
        l1_key: Hashable,
        store_key_fn: Any,
        deserialise: Any,
    ) -> Any:
        # ``store_key_fn`` is only called on an L1 miss: serialising the
        # wire-form key costs more than the L1 lookup it would annotate,
        # and warm in-process traffic should run at SubQueryCache speed
        # — which is also why an L1 hit takes no tier lock at all (the
        # LRU section counts it internally; the tier lock is shared
        # with sqlite I/O and may be held across a store write).
        value = self._l1[section].get(l1_key)
        if value is not None:
            return value
        stamp = (self._epoch, self._lineage)
        payload = self._store_get(section, store_key_fn())
        if payload is None:
            with self._lock:
                self._misses[section] += 1
            return None
        value = deserialise(json.loads(payload))
        # Promote under the bind lock, re-checking the stamp: a
        # concurrent sync_epoch may have cleared L1 *after* the store
        # read matched the old epoch — inserting then would resurrect a
        # pre-append entry at the new epoch.  On a lost race the row is
        # treated as a miss and the caller recomputes.
        with self._bind_lock:
            if (self._epoch, self._lineage) != stamp:
                with self._lock:
                    self._misses[section] += 1
                return None
            self._l1[section].put(l1_key, value)
        with self._lock:
            self._shared_hits[section] += 1
        return value

    def _put(
        self,
        section: str,
        l1_key: Hashable,
        store_key: str,
        value: Any,
        payload: Any,
    ) -> None:
        self._l1[section].put(l1_key, value)
        self._store_put(section, store_key, _canonical_json(payload))

    # -- ranges ( path -> [(w, st, ed), ...] ) ------------------------- #

    def get_ranges(
        self, path: Tuple[int, ...]
    ) -> Optional[List[Tuple[int, int, int]]]:
        def deserialise(payload: Any) -> List[Tuple[int, int, int]]:
            return [(int(w), int(st), int(ed)) for w, st, ed in payload]

        return self._get(
            "ranges", path, lambda: self._ranges_key(path), deserialise
        )

    def put_ranges(
        self, path: Tuple[int, ...], ranges: List[Tuple[int, int, int]]
    ) -> None:
        payload = [[int(w), int(st), int(ed)] for w, st, ed in ranges]
        self._put("ranges", path, self._ranges_key(path), ranges, payload)

    # -- retrieval results --------------------------------------------- #

    def get_result(self, key: Hashable) -> Any:
        from ..sntindex.procedures import TravelTimeResult

        return self._get(
            "results",
            key,
            lambda: self._result_key(key),
            TravelTimeResult.from_wire,
        )

    def put_result(self, key: Hashable, result: Any) -> None:
        result.values.setflags(write=False)
        self._put(
            "results", key, self._result_key(key), result, result.to_wire()
        )

    def get_results_many(
        self, keys: Sequence[Hashable]
    ) -> Dict[Hashable, Any]:
        """Bulk result probe: L1 first, then one store query for the rest.

        The batched face of :meth:`get_result` used by the deduplicating
        batch executor — a round's worth of probes costs one SQLite
        round trip instead of one per sub-query.  Promotion into L1
        follows the same stamp-re-check discipline as the single-key
        path, so a concurrent epoch bump can never resurrect a
        pre-append entry.
        """
        from ..sntindex.procedures import TravelTimeResult

        found: Dict[Hashable, Any] = {}
        missing: List[Hashable] = []
        for key in keys:
            value = self._l1["results"].get(key)
            if value is not None:
                found[key] = value
            else:
                missing.append(key)
        if not missing:
            return found
        stamp = (self._epoch, self._lineage)
        store_keys = {key: self._result_key(key) for key in missing}
        payloads = self._store_get_many(
            "results", list(store_keys.values())
        )
        n_missed = 0
        for key in missing:
            payload = payloads.get(store_keys[key])
            if payload is None:
                n_missed += 1
                continue
            value = TravelTimeResult.from_wire(json.loads(payload))
            with self._bind_lock:
                if (self._epoch, self._lineage) != stamp:
                    n_missed += 1
                    continue
                self._l1["results"].put(key, value)
            with self._lock:
                self._shared_hits["results"] += 1
            found[key] = value
        if n_missed:
            with self._lock:
                self._misses["results"] += n_missed
        return found

    def put_results_many(
        self, items: Sequence[Tuple[Hashable, Any]]
    ) -> None:
        """Bulk counterpart of :meth:`put_result`: one store transaction."""
        rows: List[Tuple[str, str]] = []
        for key, result in items:
            result.values.setflags(write=False)
            self._l1["results"].put(key, result)
            rows.append(
                (self._result_key(key), _canonical_json(result.to_wire()))
            )
        self._store_put_many("results", rows)

    # -- histograms ----------------------------------------------------- #

    def get_histogram(self, key: Hashable) -> Any:
        return self._get(
            "histograms",
            key,
            lambda: self._histogram_key(key),
            _histogram_from_wire,
        )

    def put_histogram(self, key: Hashable, histogram: Any) -> None:
        self._put(
            "histograms",
            key,
            self._histogram_key(key),
            histogram,
            histogram.to_wire(),
        )

    # -- whole-trip answers --------------------------------------------- #

    def get_trip(self, key: Hashable) -> Any:
        return self._get(
            "trips", key, lambda: self._trip_key(key), _trip_from_wire
        )

    def put_trip(self, key: Hashable, result: Any) -> None:
        self._put("trips", key, self._trip_key(key), result, result.to_dict())

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #

    def stats(self) -> CacheStats:
        """Aggregate statistics in the :class:`CacheStats` shape.

        ``hits`` counts L1 and shared-store hits together; ``size`` and
        the eviction counter describe the in-process layer (the store
        has its own ``max_store_entries`` / ``max_age_s`` bounds and
        epoch collection; :meth:`tier_stats` reports its size).
        """
        sections: Dict[str, SectionStats] = {}
        with self._lock:
            shared_hits = dict(self._shared_hits)
            misses = dict(self._misses)
        for name in _SECTIONS:
            l1 = self._l1[name].stats()
            sections[name] = SectionStats(
                hits=l1.hits + shared_hits[name],
                misses=misses[name],
                evictions=l1.evictions,
                size=l1.size,
                max_size=l1.max_size,
            )
        return CacheStats(**sections)

    def tier_stats(self) -> SharedTierStats:
        """Where hits came from, plus store occupancy."""
        l1_hits = {
            name: self._l1[name].stats().hits for name in _SECTIONS
        }
        with self._lock:
            row = (
                self._connection()
                .execute("SELECT COUNT(*) FROM entries")
                .fetchone()
            )
            return SharedTierStats(
                l1_hits=l1_hits,
                shared_hits=dict(self._shared_hits),
                misses=dict(self._misses),
                db_path=str(self._db_path),
                db_entries=int(row[0]),
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
