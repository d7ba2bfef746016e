"""`EngineConfig`: one frozen, validated configuration object.

Replaces the constructor-kwarg sprawl of
:class:`repro.core.engine.QueryEngine`: everything that shapes *how*
queries are answered (partitioner, splitter, ladder, bucket width,
estimator default, relaxation limits, serving knobs) lives here, is
validated once at construction, and is hashable/comparable — so two
sessions configured the same way compare equal and a config can key an
external cache tier.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Tuple, Union

from ..config import DEFAULT_BUCKET_WIDTH_S, DEFAULT_INTERVAL_LADDER_S
from ..config import DEFAULT_USER_SELECTIVITY
from ..core.partitioning import PARTITIONER_NAMES
from ..errors import ConfigurationError
from .request import EstimatorMode

__all__ = ["EngineConfig", "SPLITTER_NAMES"]

SPLITTER_NAMES: Tuple[str, ...] = ("regular", "longest_prefix")

#: ``beta_policy`` signature: (sub-path, query beta) -> effective beta.
BetaPolicy = Callable[[Tuple[int, ...], Optional[int]], Optional[int]]


def _is_count(value: object) -> bool:
    """An ``int``, not a ``bool``, at least 1: the count rule
    :class:`repro.server.ServerConfig` applies too."""
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 1
    )


@dataclass(frozen=True)
class EngineConfig:
    """Immutable engine + serving configuration.

    Attributes
    ----------
    partitioner:
        ``pi`` method name (``pi_1``..``pi_3``, ``pi_C``, ``pi_Z``,
        ``pi_ZC``, ``pi_N``, ``pi_MDM``).
    splitter:
        ``"regular"`` (sigma_R) or ``"longest_prefix"`` (sigma_L).
    ladder:
        The interval-size list ``A`` in seconds, strictly ascending.
    bucket_width_s:
        Histogram bucket width ``h``.
    estimator_mode:
        Default cardinality-estimator mode for requests that don't set
        one; ``None`` (or :attr:`EstimatorMode.NONE`) disables the
        pre-check by default.
    user_selectivity:
        ``sel_u`` used when estimators are built from a mode.
    max_relaxations:
        Safety valve against pathological relaxation loops.
    shift_and_enlarge:
        Apply Dai et al.'s interval adaptation to later sub-queries.
    beta_policy:
        Optional per-sub-query cardinality policy.  Compared (and
        hashed) by callable identity: policies change effective betas
        and therefore answers, so two configs differing only here must
        NOT compare equal — ROADMAP designates EngineConfig identity as
        part of the external cache-tier key.
    dedup_subqueries:
        ``True``, its only legal value (``False`` raises): every batch
        runs through the deduplicating executor
        (:class:`repro.core.exec.BatchExecutor`), bit-identical to the
        per-trip loop.  Kept so existing ``dedup_subqueries=True``
        call sites still construct; nothing reads it.
    cache_entries:
        Per-section LRU bound of the session's cache (``None`` =
        unbounded).
    cache:
        Cache-backend spec consumed by
        :func:`repro.service.cachetier.resolve_cache_backend`:
        ``"memory"`` the in-process LRU
        (:class:`~repro.service.SubQueryCache`), ``"off"`` no shared cache,
        ``"shared"`` a cross-process :class:`SharedCacheTier` under the
        index directory, ``"shared:<dir>"`` one at an explicit
        directory.  Serving plumbing only — the spec never changes
        answers, so it is excluded from :meth:`cache_identity`.
    cache_store_entries:
        Bound on the cross-process shared tier's *store* (the SQLite
        file; ``None`` = unbounded).  Enforced as insertion-order GC on
        insert and ``sync_epoch``; eviction only ever forces a
        recomputation, never a different answer, so this too is
        excluded from :meth:`cache_identity`.  Ignored by the
        in-process backends (their ``cache_entries`` LRU bound already
        caps memory).
    store:
        Optional index location — a directory path or shard-store URI
        (``file:...``; see
        :mod:`repro.sntindex.store`) that :func:`repro.open_db` falls
        back to when no explicit ``path_or_index`` is given.  Where the
        index lives never changes what a query returns, so this is
        serving plumbing and excluded from :meth:`cache_identity`.
    cache_ttl_s:
        Maximum age in seconds of entries in the cross-process shared
        tier's store (``None`` = no age limit).  Rows older than this
        are treated as misses on read and garbage-collected lazily
        (on ``sync_epoch`` and amortised during writes) — the
        long-running-server knob: a serving process that stays up for
        weeks keeps the store from accumulating entries for paths
        nobody asks about any more.  Expiry only ever forces a
        recomputation, never a different answer (entries are keyed by
        everything that shapes one), so it is excluded from
        :meth:`cache_identity`.  Ignored by the in-process backends.

    All validation failures raise :class:`ConfigurationError` (a
    :class:`~repro.errors.QueryError`), never a bare ``ValueError``.
    """

    partitioner: str = "pi_Z"
    splitter: str = "regular"
    ladder: Tuple[int, ...] = tuple(DEFAULT_INTERVAL_LADDER_S)
    bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S
    estimator_mode: Optional[EstimatorMode] = None
    user_selectivity: float = DEFAULT_USER_SELECTIVITY
    max_relaxations: int = 10_000
    shift_and_enlarge: bool = True
    beta_policy: Optional[BetaPolicy] = None
    dedup_subqueries: bool = True
    cache_entries: Optional[int] = 65_536
    cache: str = "memory"
    cache_store_entries: Optional[int] = None
    cache_ttl_s: Optional[float] = None
    store: Optional[str] = None

    def __post_init__(self) -> None:
        if self.partitioner not in PARTITIONER_NAMES:
            raise ConfigurationError(
                f"unknown partitioner {self.partitioner!r}; expected one of "
                f"{PARTITIONER_NAMES}"
            )
        if self.splitter not in SPLITTER_NAMES:
            raise ConfigurationError(
                f"unknown splitter {self.splitter!r}; expected one of "
                f"{SPLITTER_NAMES}"
            )
        try:
            ladder = tuple(int(step) for step in self.ladder)
        except (TypeError, ValueError, OverflowError) as error:
            raise ConfigurationError(
                f"ladder must be a sequence of seconds; got {self.ladder!r}"
            ) from error
        if not ladder:
            raise ConfigurationError("ladder must not be empty")
        if any(step != raw for step, raw in zip(ladder, self.ladder)):
            raise ConfigurationError(
                f"ladder steps must be whole seconds; got {self.ladder!r}"
            )
        if any(step <= 0 for step in ladder):
            raise ConfigurationError("ladder steps must be positive")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigurationError("ladder must be strictly ascending")
        object.__setattr__(self, "ladder", ladder)
        if not 0 < self.bucket_width_s < math.inf:
            raise ConfigurationError(
                "bucket_width_s must be positive and finite"
            )
        object.__setattr__(self, "bucket_width_s", float(self.bucket_width_s))
        try:
            mode = EstimatorMode.coerce(self.estimator_mode)
        except Exception as error:
            raise ConfigurationError(str(error)) from error
        object.__setattr__(self, "estimator_mode", mode)
        if not 0 < self.user_selectivity <= 1:
            raise ConfigurationError("user_selectivity must be in (0, 1]")
        if not _is_count(self.max_relaxations):
            raise ConfigurationError(
                "max_relaxations must be a positive integer; got "
                f"{self.max_relaxations!r}"
            )
        for name in ("cache_entries", "cache_store_entries"):
            value = getattr(self, name)
            if value is not None and not _is_count(value):
                raise ConfigurationError(
                    f"{name} must be a positive integer or None "
                    f"(unbounded); got {value!r}"
                )
        if self.dedup_subqueries is not True:
            raise ConfigurationError("deduplication is always on")
        if self.cache_ttl_s is not None:
            try:
                ttl = float(self.cache_ttl_s)
            except (TypeError, ValueError) as error:
                raise ConfigurationError(
                    "cache_ttl_s must be a positive number of seconds or "
                    f"None (no age limit); got {self.cache_ttl_s!r}"
                ) from error
            if not ttl > 0:
                raise ConfigurationError(
                    "cache_ttl_s must be a positive number of seconds or "
                    f"None (no age limit); got {self.cache_ttl_s!r}"
                )
            object.__setattr__(self, "cache_ttl_s", ttl)
        if self.store is not None and (
            not isinstance(self.store, str) or not self.store
        ):
            raise ConfigurationError(
                "store must be None, a directory path, or a store URI "
                f"(file:...); got {self.store!r}"
            )
        if not isinstance(self.cache, str) or (
            self.cache not in ("memory", "off", "shared")
            and not (
                self.cache.startswith("shared:")
                and len(self.cache) > len("shared:")
            )
        ):
            raise ConfigurationError(
                "cache must be 'memory', 'off', 'shared', or "
                f"'shared:<dir>'; got {self.cache!r}"
            )
        if self.cache.startswith("shared") and self.beta_policy is not None:
            # Fail at construction, not first query: a callable has
            # no cross-process identity, so a shared tier could
            # serve another policy's (differently-shaped) entries.
            raise ConfigurationError(
                "a shared cache tier cannot be combined with a "
                "beta_policy (callables have no cross-process "
                "identity); use cache='memory' or drop the policy"
            )

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with the given fields changed (re-validated)."""
        return replace(self, **changes)

    def cache_identity(self) -> str:
        """Stable cross-process fingerprint of the answer-shaping fields.

        Part of every :class:`~repro.service.cachetier.SharedCacheTier`
        key (the ROADMAP external-cache-tier contract: request wire form
        + EngineConfig identity + index epoch).  Two processes whose
        configs agree on every field that can change an answer produce
        the same identity and therefore share entries; serving knobs
        (the ``cache*`` plumbing, ``store``) are excluded, since they
        never change what a query returns.  ``beta_policy`` is a
        callable and has no cross-process identity, so configs carrying
        one are rejected.
        """
        if self.beta_policy is not None:
            raise ConfigurationError(
                "an EngineConfig with a beta_policy has no stable "
                "cross-process cache identity"
            )
        mode = self.estimator_mode
        return json.dumps(
            {
                "partitioner": self.partitioner,
                "splitter": self.splitter,
                "ladder": list(self.ladder),
                "bucket_width_s": self.bucket_width_s,
                "estimator_mode": mode.value if mode is not None else None,
                "user_selectivity": self.user_selectivity,
                "max_relaxations": self.max_relaxations,
                "shift_and_enlarge": self.shift_and_enlarge,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
