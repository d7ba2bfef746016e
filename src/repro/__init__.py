"""repro — reproduction of *Indexing Trajectories for Travel-Time Histogram
Retrieval* (Waury, Jensen, Koide, Ishikawa, Xiao; EDBT 2019).

The library answers **strict path queries**: given a path in a road
network, a time predicate, and optional user filters, it retrieves the
travel times of all trajectories that strictly followed the path and
returns them as a histogram — online, from an in-memory SNT-index
(FM-index + per-segment temporal forest), with greedy predicate relaxation
and SPQ cardinality estimation.

Quickstart
----------
>>> from repro import (
...     generate_dataset, SNTIndex, TripRequest, PeriodicInterval, open_db,
... )
>>> dataset = generate_dataset("tiny", seed=0)
>>> index = SNTIndex.build(
...     dataset.trajectories, dataset.network.alphabet_size
... )
>>> db = open_db(index, network=dataset.network)
>>> trip = dataset.trajectories[100]
>>> result = db.query(TripRequest(
...     path=trip.path,
...     interval=PeriodicInterval.around(trip.start_time, 900),
...     beta=20,
... ))
>>> result.histogram.total > 0
True
"""

from .api import (
    EngineConfig,
    EstimatorMode,
    TravelTimeDB,
    TripRequest,
    open_db,
)
from .config import ExperimentScale, available_scales, get_scale
from .core import (
    ESTIMATOR_MODES,
    PARTITIONER_NAMES,
    CardinalityEstimator,
    DedupStats,
    FixedInterval,
    PeriodicInterval,
    QueryEngine,
    StrictPathQuery,
    SubQueryOutcome,
    TripQueryResult,
    naive_match_count,
    naive_travel_times,
)
from .histogram import Histogram, TimeOfDayHistogramStore, log_likelihood
from .network import (
    Edge,
    RoadCategory,
    RoadNetwork,
    ZoneMap,
    ZoneType,
    alternative_paths,
    generate_network,
    shortest_path,
)
from .service import (
    CacheBackend,
    CacheStats,
    SharedCacheTier,
    SubQueryCache,
)
from .sntindex import (
    IndexReader,
    ShardedSNTIndex,
    ShardStats,
    SNTIndex,
    TravelTimeResult,
    count_matches,
    get_travel_times,
    load_any_index,
)
from .trajectories import (
    GeneratedDataset,
    MapMatcher,
    Trajectory,
    TrajectoryPoint,
    TrajectorySet,
    generate_dataset,
    simulate_gps,
    trajectories_from_gps,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # typed query API (the unified serving surface)
    "open_db",
    "TravelTimeDB",
    "TripRequest",
    "EngineConfig",
    "EstimatorMode",
    # configuration
    "ExperimentScale",
    "available_scales",
    "get_scale",
    # network
    "Edge",
    "RoadNetwork",
    "RoadCategory",
    "ZoneMap",
    "ZoneType",
    "generate_network",
    "shortest_path",
    "alternative_paths",
    # trajectories
    "Trajectory",
    "TrajectoryPoint",
    "TrajectorySet",
    "GeneratedDataset",
    "generate_dataset",
    "MapMatcher",
    "simulate_gps",
    "trajectories_from_gps",
    # histograms
    "Histogram",
    "TimeOfDayHistogramStore",
    "log_likelihood",
    # index
    "SNTIndex",
    "ShardedSNTIndex",
    "ShardStats",
    "IndexReader",
    "load_any_index",
    "TravelTimeResult",
    "get_travel_times",
    "count_matches",
    # queries
    "StrictPathQuery",
    "FixedInterval",
    "PeriodicInterval",
    "QueryEngine",
    "TripQueryResult",
    "SubQueryOutcome",
    "DedupStats",
    "CardinalityEstimator",
    "ESTIMATOR_MODES",
    "PARTITIONER_NAMES",
    "naive_travel_times",
    "naive_match_count",
    # serving layer
    "SubQueryCache",
    "CacheStats",
    "CacheBackend",
    "SharedCacheTier",
]
