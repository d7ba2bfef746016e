"""`EngineConfig`: one frozen, validated configuration object.

Replaces the constructor-kwarg sprawl of
:class:`repro.core.engine.QueryEngine`: everything that shapes *how*
queries are answered (partitioner, splitter, ladder, bucket width,
estimator default, relaxation limits, serving knobs) lives here, is
validated once at construction, and is hashable/comparable — so two
sessions configured the same way compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Tuple

from ..config import DEFAULT_BUCKET_WIDTH_S, DEFAULT_INTERVAL_LADDER_S
from ..config import DEFAULT_USER_SELECTIVITY
from ..core.partitioning import PARTITIONER_NAMES
from ..errors import ConfigurationError, is_count
from .request import EstimatorMode

__all__ = ["EngineConfig", "SPLITTER_NAMES"]

SPLITTER_NAMES: Tuple[str, ...] = ("regular", "longest_prefix")

#: ``beta_policy`` signature: (sub-path, query beta) -> effective beta.
BetaPolicy = Callable[[Tuple[int, ...], Optional[int]], Optional[int]]


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
        NOT compare equal.
    dedup_subqueries:
        ``True``, its only legal value (``False`` raises): every batch
        runs through the deduplicating executor
        (:class:`repro.core.exec.BatchExecutor`), bit-identical to the
        per-trip loop.  Kept so existing ``dedup_subqueries=True``
        call sites still construct; nothing reads it.

    The session's cache is not configured here: :func:`repro.open_db`
    takes it (``cache=None`` for none, or a
    :class:`~repro.service.SubQueryCache` with other bounds).

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
        if not is_count(self.max_relaxations):
            raise ConfigurationError(
                "max_relaxations must be a positive integer; got "
                f"{self.max_relaxations!r}"
            )
        if self.dedup_subqueries is not True:
            raise ConfigurationError("deduplication is always on")

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with the given fields changed (re-validated)."""
        return replace(self, **changes)
