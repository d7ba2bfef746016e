"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetworkError(ReproError):
    """Raised for malformed road networks (unknown edges, bad attributes)."""


class UnknownEdgeError(NetworkError):
    """Raised when an edge id is not part of the road network."""

    def __init__(self, edge_id: int) -> None:
        super().__init__(f"edge id {edge_id!r} is not part of the network")
        self.edge_id = edge_id


class TrajectoryError(ReproError):
    """Raised for malformed trajectories (non-monotone time, bad path)."""


class IndexError_(ReproError):
    """Raised for index construction or lookup failures.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class UnknownTrajectoryError(IndexError_):
    """Raised when a trajectory id is outside the indexed id space."""

    def __init__(self, traj_id: int) -> None:
        super().__init__(f"unknown trajectory id {traj_id!r}")
        self.traj_id = traj_id


class MissingUserError(IndexError_):
    """Raised for an in-range trajectory id that no trajectory used.

    The user container ``U`` is a dense array over ``[0, max id]``; ids
    never assigned by any indexed trajectory are gaps (stored as ``-1``)
    rather than unknown ids.
    """

    def __init__(self, traj_id: int) -> None:
        super().__init__(
            f"trajectory id {traj_id!r} has no indexed trajectory "
            "(gap in the user container)"
        )
        self.traj_id = traj_id


class PersistenceError(IndexError_):
    """Raised when loading a saved index fails (missing files, bad
    format version, corrupt payload)."""


class IndexFormatError(PersistenceError):
    """Raised when a saved index directory has a different on-disk
    format version than this build reads.

    Distinct from generic corruption: the directory is (presumably) a
    valid index of another era.  The fix is to rebuild it, or to load
    it with a build of matching version and ``save()``-roundtrip it.
    """


class StoreError(PersistenceError):
    """Raised for shard-store backend failures: an unknown store URI
    scheme, a malformed ``object://`` query string, a missing object,
    or a remote namespace that refuses an install (overwrite guard).

    A :class:`PersistenceError`: callers that already treat "the saved
    index cannot be opened" as one condition keep working unchanged
    when the index lives behind a remote store.
    """


class ShardError(IndexError_):
    """Raised for sharded-index misuse: invalid shard configuration,
    appends that violate the time-ordering contract, or a sharded
    directory layout that cannot be routed."""


class QueryError(ReproError):
    """Raised for malformed strict path queries."""


class RequestValidationError(QueryError):
    """Raised when a :class:`repro.api.TripRequest` (or its wire form)
    fails validation: empty path, malformed interval payload, unknown
    estimator mode, or a non-positive cardinality requirement."""


class ConfigurationError(QueryError, ValueError):
    """Raised when an :class:`repro.api.EngineConfig` (or a session /
    fan-out parameter such as ``n_workers``) is inconsistent.

    Also a :class:`ValueError`: the pre-redesign surfaces raised bare
    ``ValueError`` for these inputs, so existing ``except ValueError``
    callers keep working while typed callers catch :class:`ReproError`.
    """


class EmptyPathError(QueryError):
    """Raised when a query path contains no edges."""


class IntervalError(QueryError):
    """Raised for degenerate or inverted time intervals."""


class EstimatorError(ReproError):
    """Raised when a cardinality estimator is misconfigured."""


class ServerError(ReproError):
    """Raised for HTTP serving-tier failures: a listen address that
    cannot be bound, malformed inbound HTTP, or a request arriving
    while the server is shutting down.

    A :class:`ReproError`, so the CLI contract applies: ``repro serve``
    on a port that is already in use prints one ``error: ...`` line and
    exits 1, like every other library error.
    """


class AdmissionError(ServerError):
    """Raised when admission control rejects a request under load.

    The serving tier bounds in-flight trips (the way ``stream`` bounds
    its window); past the bound new work is rejected *fast* — HTTP 429
    with a ``Retry-After`` hint — instead of queueing unboundedly.
    ``retry_after_s`` carries the server's suggested backoff; the HTTP
    client raises this same type on a 429 response.
    """

    def __init__(
        self, message: str, retry_after_s: "float | None" = None
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
