"""Compaction of sealed shards: merge every sealed shard into one.

Every ``append()``/``seal_staging()`` cycle adds one sealed shard, so a
long-lived appendable index accretes many small shards and every
unprunable dispatch fans out across all of them (periodic time-of-day
predicates cannot prune at all).  Compaction is the inverse of the
sharded build's split: the sealed shards, which are adjacent in time,
are replaced by one shard whose temporal partitions are the members'
partitions concatenated in order.  There is no policy to tune: with at
least two sealed shards a compaction merges them all, and the staging
shard is left alone.

Why the merge is bit-identical
------------------------------
Shard boundaries coincide with temporal partition boundaries and every
shard was built with the *global* window bounds, so the members' FM
partitions are byte-for-byte the partitions the monolithic index would
hold — the merge reuses them untouched, only renumbering the local
partition ids.  The leaf rows are re-sorted stably by ``(edge, t)``
after concatenating the members' flat columns in shard order: members
are contiguous partition runs, and each member's columns are themselves
the stable ``(edge, t)`` sort of its partition-major rows, so the
concatenation's rows of one segment with equal ``t`` sit in exactly the
monolithic partition-major order and the stable re-sort reproduces the
monolithic row order bit for bit
(the same argument that makes the router's ``(t, shard)`` merge exact,
applied at rest instead of per query).  The time-of-day histograms are
counted from the merged forest on first use, as every index counts
them, and the user container is a union of disjoint keys.  The existing
sharded-equivalence suite is the proof harness: compacted layouts must
answer every query bit-identically to the uncompacted and monolithic
indexes.

Cache invalidation
------------------
A compaction that merges anything bumps the index epoch even though
answers do not change: the epoch bump empties in-process caches, so no
entry recorded against the pre-compaction shard layout is served after
it.  A compaction with fewer than two sealed shards changes nothing
and keeps warm caches valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Sequence

import numpy as np

from ..errors import ShardError
from ..temporal.forest import TemporalForest
from ..temporal.records import COLUMN_DTYPES
from .index import BuildStats, SNTIndex, check_partition_count
from .persistence import IndexDir

__all__ = [
    "CompactionReport",
    "merge_shard_indexes",
    "compact_index_dir",
]


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`ShardedSNTIndex.compact` call did."""

    #: Sealed shard count before / after (equal for a no-op).
    n_sealed_before: int
    n_sealed_after: int
    #: Pre-compaction names of each merged run, in shard order.
    merged_groups: List[List[str]] = field(default_factory=list)
    #: The index epoch after the call (bumped iff anything merged).
    epoch: int = 0

    @property
    def did_compact(self) -> bool:
        return self.n_sealed_after < self.n_sealed_before


def _require_agreement(indexes: Sequence[SNTIndex]) -> None:
    scalars = ("alphabet_size", "kind", "partition_days", "t_min",
               "tod_bucket_s")
    first = indexes[0]
    for name in scalars:
        values = {getattr(index, name) for index in indexes}
        if len(values) > 1:
            raise ShardError(
                f"cannot merge shards that disagree on {name}: "
                f"{sorted(map(repr, values))}"
            )
    if first.partition_days is None:
        raise ShardError(
            "cannot merge FULL (unpartitioned) indexes — shard merging "
            "concatenates temporal partitions"
        )


def merge_shard_indexes(indexes: Sequence[SNTIndex]) -> SNTIndex:
    """Concatenate adjacent shards' aligned partitions into one shard.

    ``indexes`` must be adjacent shards of one sharded index, in shard
    (= temporal) order.  The result is exactly the shard a sharded
    build would have produced for the union of their time slices — FM
    partitions reused byte-for-byte with local ids renumbered, leaf
    rows re-sorted stably by ``(edge, t)``, user containers unioned.
    See the module docstring for the bit-identity argument.
    """
    if not indexes:
        raise ShardError("cannot merge zero shards")
    if len(indexes) == 1:
        return indexes[0]
    _require_agreement(indexes)
    first = indexes[0]

    # Partition id offsets: member k's local partition w becomes
    # w + offsets[k], reproducing the global enumeration's order.
    offsets = [0]
    for index in indexes:
        offsets.append(offsets[-1] + index.n_partitions)
    check_partition_count(offsets[-1])

    partitions = []
    for index, offset in zip(indexes, offsets):
        for partition in index.partitions:
            partitions.append(replace(partition, w=partition.w + offset))

    # Leaf rows: the members' flat columns in shard order, partition
    # ids shifted; the forest's stable (edge, t) sort then reproduces
    # the monolithic row order.
    chunks = []
    for index, offset in zip(indexes, offsets):
        columns = index.forest.columns
        chunk = {name: getattr(columns, name) for name in COLUMN_DTYPES}
        chunk["edge"] = index.forest.row_edges()
        chunk["w"] = columns.w + offset
        chunks.append(chunk)
    forest = TemporalForest.from_rows(chunks, kind=first.kind)
    del chunks

    # User container U: dense over the union id space, -1 = gap.  Ids
    # are disjoint across shards (append() enforces it), so overlaying
    # non-gap entries is a union.
    user_space = max(int(index.users.size) for index in indexes)
    users = np.full(user_space, -1, dtype=np.int64)
    for index in indexes:
        shard_users = np.asarray(index.users)
        mask = shard_users >= 0
        users[: shard_users.size][mask] = shard_users[mask]

    stats = BuildStats(
        setup_seconds=sum(
            index.build_stats.setup_seconds for index in indexes
        ),
        n_partitions=offsets[-1],
        n_trajectories=sum(
            index.build_stats.n_trajectories for index in indexes
        ),
        n_traversals=sum(
            index.build_stats.n_traversals for index in indexes
        ),
    )
    return SNTIndex(
        partitions=partitions,
        forest=forest,
        users=users,
        t_min=first.t_min,
        t_max=max(index.t_max for index in indexes),
        alphabet_size=first.alphabet_size,
        kind=first.kind,
        partition_days=first.partition_days,
        build_stats=stats,
        tod_bucket_s=first.tod_bucket_s,
    )


def compact_index_dir(source: IndexDir) -> CompactionReport:
    """Compact the sharded index saved in directory ``source`` in place.

    Loads it, merges its sealed shards (:meth:`ShardedSNTIndex.compact`),
    and — when anything merged — atomically re-installs the tree with
    the manifest's ``extra`` provenance (the CLI's world digest)
    preserved and the epoch bump persisted.  A no-op writes nothing.
    """
    from .sharded import (
        load_sharded_index,
        read_any_meta,
        save_sharded_index,
    )

    layout, manifest = read_any_meta(source)
    if layout != "sharded":
        raise ShardError(
            f"{Path(source)} holds a monolithic index; compaction applies "
            "to sharded indexes (a monolithic index is already one "
            "shard)"
        )
    index = load_sharded_index(source)
    report = index.compact()
    if report.did_compact:
        save_sharded_index(index, source, extra=manifest.get("extra") or {})
    return report
