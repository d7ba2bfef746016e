"""Typed query objects: :class:`TripRequest` and :class:`EstimatorMode`.

One trip query used to be encoded three different ways — positional
arguments to the engine's legacy entry point, parallel lists handed to
the service's legacy batch method, and ad-hoc CLI argument plumbing.
:class:`TripRequest` is the single validated, immutable value object all
entry points consume: path, temporal predicate, optional user filter,
excluded trajectory ids, cardinality requirement ``beta``, and the
per-request cardinality-estimator mode.

Every request has a stable wire form (:meth:`TripRequest.to_dict` /
:meth:`TripRequest.from_dict`), the body of the HTTP serving tier's
requests: plain JSON-compatible scalars and lists, round-tripping to an
equal object (canonicalisation happens at construction, so equality
survives the round trip).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..core.intervals import FixedInterval, PeriodicInterval, TimeInterval
from ..core.spq import StrictPathQuery
from ..errors import IntervalError, RequestValidationError

__all__ = ["EstimatorMode", "TripRequest"]


class EstimatorMode(enum.Enum):
    """Cardinality-estimator modes of paper Section 4.4, plus ``NONE``.

    ``NONE`` explicitly disables the pre-check for one request even when
    the engine is configured with a default estimator; a request whose
    ``estimator`` is ``None`` (the default) inherits the engine default.
    """

    ISA = "ISA"
    BT_FAST = "BT-Fast"
    BT_ACC = "BT-Acc"
    CSS_FAST = "CSS-Fast"
    CSS_ACC = "CSS-Acc"
    NONE = "none"

    @classmethod
    def coerce(
        cls, value: Union["EstimatorMode", str, None]
    ) -> Optional["EstimatorMode"]:
        """Accept an :class:`EstimatorMode`, its string value, or ``None``.

        Raises :class:`RequestValidationError` for unknown strings — a
        typed error, so the CLI maps it to a one-line message + exit 1.
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                raise RequestValidationError(
                    f"unknown estimator mode {value!r}; expected one of "
                    f"{[m.value for m in cls]}"
                ) from None
        raise RequestValidationError(
            f"estimator mode must be an EstimatorMode, str, or None; "
            f"got {type(value).__name__}"
        )


def _as_id(value: Any, what: str) -> int:
    """Coerce an id-like number to ``int``, rejecting fractional values.

    ``1.0`` (e.g. a JSON number from a JS client) is accepted; ``1.9``
    must not silently answer a query about id ``1``.  NaN and +-inf
    (standard JSON parses ``1e999`` as inf) are rejected too.
    """
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise RequestValidationError(
            f"{what} must be an integer; got {value!r}"
        ) from error
    if as_int != value:
        raise RequestValidationError(
            f"{what} must be an integer; got {value!r}"
        )
    return as_int


def _interval_to_dict(interval: TimeInterval) -> Dict[str, Any]:
    if isinstance(interval, FixedInterval):
        return {"type": "fixed", "start": interval.start, "end": interval.end}
    return {
        "type": "periodic",
        "start_tod": interval.start_tod,
        "duration": interval.duration,
    }


def _interval_from_dict(payload: Mapping[str, Any]) -> TimeInterval:
    try:
        kind = payload["type"]
        if kind == "fixed":
            return FixedInterval(
                _as_id(payload["start"], "interval start"),
                _as_id(payload["end"], "interval end"),
            )
        if kind == "periodic":
            return PeriodicInterval(
                _as_id(payload["start_tod"], "interval start_tod"),
                _as_id(payload["duration"], "interval duration"),
            )
    except IntervalError as error:
        # Degenerate payloads (inverted / zero-width) surface as the
        # request-level typed error, keeping wire-form validation uniform.
        raise RequestValidationError(f"invalid interval: {error}") from error
    except (KeyError, TypeError, ValueError) as error:
        raise RequestValidationError(
            f"malformed interval payload {payload!r}"
        ) from error
    raise RequestValidationError(
        f"unknown interval type {payload.get('type')!r}; "
        "expected 'fixed' or 'periodic'"
    )


@dataclass(frozen=True)
class TripRequest:
    """One validated trip query ``spq(P, I, f, beta)`` plus execution hints.

    Attributes
    ----------
    path:
        The edge-id sequence ``P`` (non-empty; canonicalised to a tuple
        of ``int``).
    interval:
        Temporal predicate ``I`` — a :class:`FixedInterval` or
        :class:`PeriodicInterval`.
    user:
        Non-temporal filter ``f``: restrict to this user id, or ``None``.
    exclude_ids:
        Trajectory ids excluded from retrieval (evaluation workloads keep
        each query trajectory out of its own answer).  Canonicalised to a
        sorted, deduplicated tuple, so equal exclusion sets compare equal.
    beta:
        Cardinality requirement; ``None`` retrieves all eligible
        trajectories.
    estimator:
        Per-request cardinality-estimator mode.  ``None`` inherits the
        engine default; :attr:`EstimatorMode.NONE` disables the pre-check
        for this request.

    All validation failures raise :class:`RequestValidationError` (a
    :class:`~repro.errors.QueryError`), never a bare ``ValueError``.
    """

    path: Tuple[int, ...]
    interval: TimeInterval
    user: Optional[int] = None
    exclude_ids: Tuple[int, ...] = ()
    beta: Optional[int] = None
    estimator: Optional[EstimatorMode] = None

    def __post_init__(self) -> None:
        if isinstance(self.path, (str, bytes)):
            # tuple("12") would silently decompose into digit characters.
            raise RequestValidationError(
                f"path must be a sequence of edge ids, not a string; "
                f"got {self.path!r}"
            )
        try:
            path = tuple(_as_id(edge, "path edge id") for edge in self.path)
        except TypeError as error:
            raise RequestValidationError(
                f"path must be a sequence of edge ids; got {self.path!r}"
            ) from error
        if not path:
            raise RequestValidationError("trip request requires a non-empty path")
        object.__setattr__(self, "path", path)
        if not isinstance(self.interval, (FixedInterval, PeriodicInterval)):
            raise RequestValidationError(
                "interval must be a FixedInterval or PeriodicInterval; "
                f"got {type(self.interval).__name__}"
            )
        if self.user is not None:
            object.__setattr__(self, "user", _as_id(self.user, "user"))
        if isinstance(self.exclude_ids, (str, bytes)):
            # tuple("307") would silently exclude trajectories 3, 0, 7.
            raise RequestValidationError(
                f"exclude_ids must be a sequence of trajectory ids, not "
                f"a string; got {self.exclude_ids!r}"
            )
        try:
            excluded = tuple(
                sorted(
                    {_as_id(i, "exclude_ids entry") for i in self.exclude_ids}
                )
            )
        except TypeError as error:
            raise RequestValidationError(
                f"exclude_ids must be trajectory ids; got {self.exclude_ids!r}"
            ) from error
        object.__setattr__(self, "exclude_ids", excluded)
        if self.beta is not None:
            beta = _as_id(self.beta, "beta")
            if beta < 1:
                raise RequestValidationError(
                    f"beta must be positive when given; got {beta}"
                )
            object.__setattr__(self, "beta", beta)
        object.__setattr__(
            self, "estimator", EstimatorMode.coerce(self.estimator)
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    def to_spq(self) -> StrictPathQuery:
        """The engine-level strict path query this request describes.

        Uses the trusted constructor: this request already canonicalised
        and validated every field, and ``to_spq`` runs once per batch
        item on the serving hot path.
        """
        return StrictPathQuery._from_validated(
            self.path, self.interval, self.user, self.beta
        )

    @classmethod
    def from_spq(
        cls,
        query: StrictPathQuery,
        exclude_ids: Sequence[int] = (),
        estimator: Union[EstimatorMode, str, None] = None,
    ) -> "TripRequest":
        """Lift a legacy :class:`StrictPathQuery` into a request."""
        return cls(
            path=query.path,
            interval=query.interval,
            user=query.user,
            exclude_ids=tuple(exclude_ids),
            beta=query.beta,
            estimator=EstimatorMode.coerce(estimator),
        )

    def with_estimator(
        self, estimator: Union[EstimatorMode, str, None]
    ) -> "TripRequest":
        return replace(self, estimator=EstimatorMode.coerce(estimator))

    # ------------------------------------------------------------------ #
    # Wire form
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible wire form — the contract for the HTTP
        serving tier."""
        return {
            "path": list(self.path),
            "interval": _interval_to_dict(self.interval),
            "user": self.user,
            "exclude_ids": list(self.exclude_ids),
            "beta": self.beta,
            "estimator": (
                self.estimator.value if self.estimator is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TripRequest":
        """Inverse of :meth:`to_dict`; validates the payload.

        ``TripRequest.from_dict(r.to_dict()) == r`` for every request.
        """
        if not isinstance(payload, Mapping):
            raise RequestValidationError(
                f"request payload must be a mapping; got {type(payload).__name__}"
            )
        unknown = set(payload) - {
            "path", "interval", "user", "exclude_ids", "beta", "estimator"
        }
        if unknown:
            raise RequestValidationError(
                f"unknown request fields {sorted(unknown)!r}"
            )
        try:
            raw_path = payload["path"]
            raw_interval = payload["interval"]
        except KeyError as error:
            raise RequestValidationError(
                f"request payload is missing field {error.args[0]!r}"
            ) from error
        if not isinstance(raw_interval, Mapping):
            raise RequestValidationError(
                f"interval payload must be a mapping; got {raw_interval!r}"
            )
        if isinstance(raw_path, (str, bytes)) or not isinstance(
            raw_path, Sequence
        ):
            raise RequestValidationError(
                f"path payload must be a list of edge ids; got {raw_path!r}"
            )
        raw_excluded = payload.get("exclude_ids")
        if raw_excluded is None:
            raw_excluded = ()
        if isinstance(raw_excluded, (str, bytes)) or not isinstance(
            raw_excluded, Sequence
        ):
            raise RequestValidationError(
                f"exclude_ids payload must be a list of trajectory ids; "
                f"got {raw_excluded!r}"
            )
        return cls(
            path=tuple(raw_path),
            interval=_interval_from_dict(raw_interval),
            user=payload.get("user"),
            exclude_ids=tuple(raw_excluded),
            beta=payload.get("beta"),
            estimator=EstimatorMode.coerce(payload.get("estimator")),
        )
