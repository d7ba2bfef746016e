"""On-disk format for the SNT-index (``SNTIndex.save`` / ``load``).

A service process should start serving without re-running ``build()`` —
suffix-array construction dominates build time and the index is immutable
afterwards, so it is built once and shipped as a directory:

``meta.json``
    Format tag + version, scalar index attributes, the build stats, the
    cached traversal-time bounds, and one *scalar-only* entry per
    temporal partition (``w``, trip/traversal counts, time bounds,
    FM text length).  Deliberately small: parsing it must not scale
    with the alphabet or the corpus.
``payload/``
    One standalone ``.npy`` file per bulk array: the user container
    ``U``, the temporal-forest leaf columns (concatenated across edges
    with an offset table), the forest's two per-edge sort permutations
    (``perm_tod.npy``, ``perm_probe.npy`` — v2.1, optional; see
    :data:`FORMAT_MINOR`), the time-of-day histogram arrays, and — per
    partition ``k`` — ``p{k}_counts.npy`` (the ``C`` array), the
    Huffman code table as three arrays (``p{k}_code_symbols.npy``,
    ``p{k}_code_lengths.npy``, and the concatenated code bits
    ``p{k}_code_bits.npy``), the per-node bit counts
    ``p{k}_node_bits.npy`` (in sorted-prefix order — the node
    *prefixes* are re-derived from the code table, so they are never
    stored), plus the concatenation of every wavelet-tree node's packed
    words (``p{k}_wt_words.npy``) and block-rank directory
    (``p{k}_wt_blocks.npy``), in the same node order.

Every payload file is opened with ``np.load(..., mmap_mode="r")``: a
sealed index opens in O(1) — no unpickling, no array copies — and fork
workers share the mapped pages.  The partitions themselves materialise
lazily (:class:`_LazyPartitionList`): opening parses the small manifest
and establishes the shared mmaps, and the first query that touches a
partition rebuilds its wavelet tree around zero-copy *slices* of the
mapped node concatenations
(:meth:`~repro.fmindex.bitvector.RankBitvector.from_arrays`).  The
temporal forest materialises per-edge tree directories lazily
(:class:`~repro.temporal.forest.SlicedTemporalForest`), and the
time-of-day store loads on first estimator use.

Format version 1 pickled the FM partitions (``partitions.pkl``); loading
executed whatever the pickle said.  Version 2 removes that file — the
monolithic format contains **no pickle at all** — which both closes the
load-time code-execution surface for this format and removes the
unpickle cost from the open path.  Version-1 directories are refused
with :class:`~repro.errors.IndexFormatError`; rebuild them from the
source data with ``repro index``.

``FORMAT_VERSION`` gates compatibility: loaders refuse newer or older
versions outright rather than guessing.

Every entry point accepts a path, a store URI, or a
:class:`~repro.sntindex.store.ShardStore` instance — the filesystem is
reached only through the store (:func:`~repro.sntindex.store.as_store`
wraps bare paths in a ``LocalDirStore``, preserving the historical
layout byte for byte).
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from collections.abc import Sequence
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import IndexFormatError, PersistenceError, StoreError
from ..fmindex import FMIndex, RankBitvector, WaveletTree
from ..histogram.tod import TimeOfDayHistogramStore
from ..temporal.forest import SlicedTemporalForest
from .partition import IndexPartition
from .store import ShardStore, as_store, atomic_install_dir

StoreLike = Union[str, Path, ShardStore]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .index import SNTIndex

__all__ = [
    "FORMAT_VERSION",
    "FORMAT_MINOR",
    "FORMAT_NAME",
    "save_index",
    "load_index",
    "read_meta",
    "validate_meta",
    "validate_identity",
    "atomic_install_dir",
    "write_index_payload",
]

#: Bump on any incompatible change to the directory layout or array set.
#: v2: pickle-free payload of standalone mmap-able ``.npy`` files.
FORMAT_VERSION = 2
#: Backwards-compatible additions within v2.  Minor 1 (= "v2.1") adds the
#: two per-edge sort permutations of the temporal forest — ``perm_tod``
#: (time-of-day order) and ``perm_probe`` (packed ``(d, seq)`` probe-key
#: order) — concatenated across edges with the same ``edge_offsets``
#: table as the leaf columns.  Loaders treat both as optional: a v2.0
#: directory (no permutation files) opens unchanged and the orders are
#: rebuilt lazily per edge; a v2.1 directory hands the mmap'd slices to
#: each edge index zero-copy.
FORMAT_MINOR = 1
FORMAT_NAME = "snt-index"

META_FILE = "meta.json"
PAYLOAD_DIR = "payload"

_COLUMNS = ("t", "isa", "d", "tt", "a", "seq", "w")
_SHARED_ARRAYS = (
    "users",
    "edge_ids",
    "edge_offsets",
    "tod_keys",
    "tod_counts",
) + tuple(f"col_{name}" for name in _COLUMNS)


def save_index(
    index: "SNTIndex", path: StoreLike, extra: Optional[dict] = None
) -> Path:
    """Write ``index`` to ``path`` — a directory, store URI, or store.

    ``extra`` is an optional JSON-serialisable dict stored verbatim under
    the ``extra`` meta key — provenance the caller wants to travel with
    the index (the CLI records a digest of the source world there).
    Loaders ignore it.

    The payload is staged and installed atomically by the store
    (:meth:`~repro.sntindex.store.ShardStore.install`): for a local
    directory, the historical sibling-tempdir swap; for an object
    store, marker-last upload ordering.  Either way an interrupted
    re-save never leaves a target mixing old and new files (which would
    pass every load check and answer queries wrongly).
    """
    return as_store(path).install(
        "",
        marker_file=META_FILE,
        writer=lambda target: _write_payload(index, target, extra),
        what="saved SNT-index",
    )


def write_index_payload(
    index: "SNTIndex", target: Union[str, Path], extra: Optional[dict] = None
) -> None:
    """Write an index's files directly into directory ``target``.

    For callers that already sit inside a staged/atomic context (the
    sharded manifest writer populates its shard subdirectories with
    this): no temp-dir dance of its own — :func:`save_index` is the
    crash-safe entry point for standalone directories.
    """
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    _write_payload(index, target, extra)


def _code_prefixes(codes: Dict[int, Tuple[int, ...]]) -> List[tuple]:
    """Wavelet-tree node prefixes, sorted: every proper prefix of every
    code.  The tree has one node (bitvector) per such prefix, so the
    node directory never needs storing — it is a function of the code
    table."""
    prefixes = {code[:i] for code in codes.values() for i in range(len(code))}
    return sorted(prefixes)


def _partition_payload(
    partition: IndexPartition,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Split one partition into JSON-able scalars and payload arrays.

    The meta entry carries scalars only; the Huffman code table travels
    as three payload arrays (symbols, code lengths, concatenated code
    bits) and the node directory as per-node bit counts in
    sorted-prefix order.  The loader re-derives the prefixes from the
    codes and each node's array extents from its bit count.
    """
    tree = partition.fm.bwt
    nodes = sorted(tree.nodes.items())
    code_items = sorted(tree.codes.items())
    arrays = {
        "code_symbols": np.asarray(
            [symbol for symbol, _ in code_items], dtype=np.int64
        ),
        "code_lengths": np.asarray(
            [len(code) for _, code in code_items], dtype=np.int64
        ),
        "code_bits": np.asarray(
            [bit for _, code in code_items for bit in code], dtype=np.uint8
        ),
        "node_bits": np.asarray(
            [len(node) for _, node in nodes], dtype=np.int64
        ),
        "wt_words": (
            np.concatenate([node.words for _, node in nodes])
            if nodes
            else np.zeros(0, dtype=np.uint64)
        ),
        "wt_blocks": (
            np.concatenate([node.block_ranks for _, node in nodes])
            if nodes
            else np.zeros(0, dtype=np.int64)
        ),
    }
    entry = {
        "w": partition.w,
        "n_trajectories": partition.n_trajectories,
        "n_traversals": partition.n_traversals,
        "t_lo": partition.t_lo,
        "t_hi": partition.t_hi,
        "fm_n": len(partition.fm),
    }
    return entry, arrays


def _write_payload(
    index: "SNTIndex", target: Path, extra: Optional[dict] = None
) -> None:
    """Write ``meta.json`` + ``payload/`` into (staging) dir ``target``."""

    edges = sorted(index.forest.edges())
    chunks: Dict[str, list] = {name: [] for name in _COLUMNS}
    perm_tod_chunks: List[np.ndarray] = []
    perm_probe_chunks: List[np.ndarray] = []
    offsets = np.zeros(len(edges) + 1, dtype=np.int64)
    for i, edge in enumerate(edges):
        phi = index.forest.get(edge)
        columns = phi.columns
        offsets[i + 1] = offsets[i] + len(columns)
        for name in _COLUMNS:
            chunks[name].append(getattr(columns, name))
        # The v2.1 sort permutations (built here if no query has yet):
        # edge-relative row indices, sharing the edge_offsets table.
        perm_tod_chunks.append(phi.tod_order)
        perm_probe_chunks.append(phi.probe_order)

    arrays = {
        "users": index.users,
        "edge_ids": np.asarray(edges, dtype=np.int64),
        "edge_offsets": offsets,
    }
    for name in _COLUMNS:
        arrays[f"col_{name}"] = (
            np.concatenate(chunks[name])
            if chunks[name]
            else np.empty(0)
        )
    arrays["perm_tod"] = (
        np.concatenate(perm_tod_chunks)
        if perm_tod_chunks
        else np.empty(0, dtype=np.int64)
    )
    arrays["perm_probe"] = (
        np.concatenate(perm_probe_chunks)
        if perm_probe_chunks
        else np.empty(0, dtype=np.int64)
    )
    tod_keys, tod_counts = index.tod_store.as_arrays()
    arrays["tod_keys"] = tod_keys
    arrays["tod_counts"] = tod_counts

    partitions_meta = []
    for k, partition in enumerate(index.partitions):
        entry, partition_arrays = _partition_payload(partition)
        partitions_meta.append(entry)
        arrays[f"p{k}_counts"] = np.asarray(
            partition.fm.counts, dtype=np.int64
        )
        for name, array in partition_arrays.items():
            arrays[f"p{k}_{name}"] = array

    payload_dir = target / PAYLOAD_DIR
    payload_dir.mkdir(exist_ok=True)
    for name, array in arrays.items():
        # One standalone .npy per array: np.load only mmaps standalone
        # files, not npz members, and mmap is the whole point here.
        np.save(payload_dir / f"{name}.npy", np.ascontiguousarray(array))

    stats = index.build_stats
    meta = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "format_minor": FORMAT_MINOR,
        "kind": index.kind,
        "partition_days": index.partition_days,
        "t_min": index.t_min,
        "t_max": index.t_max,
        "alphabet_size": index.alphabet_size,
        "tod_bucket_s": index.tod_bucket_s,
        "data_time_bounds": list(index.data_time_bounds()),
        "partitions": partitions_meta,
        "build_stats": {
            "setup_seconds": stats.setup_seconds,
            "n_partitions": stats.n_partitions,
            "n_trajectories": stats.n_trajectories,
            "n_traversals": stats.n_traversals,
        },
        "extra": dict(extra or {}),
    }
    with open(target / META_FILE, "w") as handle:
        json.dump(meta, handle, indent=2)


def read_meta(path: StoreLike) -> dict:
    """Read and format-check ``meta.json`` of a saved index.

    Cheap (no payload I/O): callers can inspect provenance — the
    ``extra`` dict, build stats, scalar attributes — without loading
    the index.
    """
    store = as_store(path)
    source = store.uri
    if not store.exists(META_FILE):
        raise PersistenceError(f"{source} is not a saved SNT-index "
                               f"({META_FILE} missing)")
    try:
        meta = json.loads(store.get(META_FILE))
    except (StoreError, OSError, json.JSONDecodeError) as error:
        raise PersistenceError(f"corrupt {META_FILE}: {error}") from error
    if meta.get("format") != FORMAT_NAME:
        raise PersistenceError(
            f"{source} holds format {meta.get('format')!r}, "
            f"expected {FORMAT_NAME!r}"
        )
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"saved index has format version {version!r}; this build "
            f"reads version {FORMAT_VERSION} only — rebuild the index "
            "from source data with `repro index`"
        )
    return meta


def validate_identity(
    meta: dict,
    source: Union[str, Path],
    expected_alphabet_size: Optional[int] = None,
    expected_kind: Optional[str] = None,
) -> None:
    """Check the identity scalars (``kind``, ``alphabet_size``) of a
    manifest-like dict, including the caller's ``expected_*``
    cross-checks — shared by the monolithic :func:`validate_meta` and
    the sharded manifest loader, so the two formats cannot drift on
    what counts as a valid (or matching) index identity.
    """
    kind = meta["kind"]
    if kind not in ("css", "btree"):
        raise PersistenceError(
            f"{source} declares temporal index kind {kind!r}; this build "
            "knows 'css' and 'btree' — refusing before reading the "
            "partition payload"
        )
    alphabet = meta["alphabet_size"]
    if not isinstance(alphabet, int) or isinstance(alphabet, bool) \
            or alphabet < 1:
        raise PersistenceError(
            f"{source} declares alphabet_size {alphabet!r}; expected a "
            "positive integer — refusing before reading the partition "
            "payload"
        )
    if expected_kind is not None and kind != expected_kind:
        raise PersistenceError(
            f"saved index at {source} was built with kind {kind!r}, but "
            f"{expected_kind!r} is required — refusing before reading "
            "the partition payload"
        )
    if (
        expected_alphabet_size is not None
        and alphabet != expected_alphabet_size
    ):
        raise PersistenceError(
            f"saved index at {source} was built over alphabet size "
            f"{alphabet}, but the target network has "
            f"{expected_alphabet_size} — index and network must come "
            "from the same world (refusing before reading the partition "
            "payload)"
        )


def validate_meta(
    meta: dict,
    source: Union[str, Path],
    expected_alphabet_size: Optional[int] = None,
    expected_kind: Optional[str] = None,
) -> None:
    """Prove the manifest scalars sane *before* any payload I/O.

    Every check that can run against ``meta.json`` alone runs first: a
    manifest naming an impossible kind or alphabet, or one disagreeing
    with the world the caller is about to serve (``expected_*``), is
    rejected without ever opening the payload directory.
    """
    required_meta = (
        "kind", "partition_days", "t_min", "t_max", "alphabet_size",
        "tod_bucket_s", "build_stats", "partitions", "data_time_bounds",
    )
    missing_meta = [name for name in required_meta if name not in meta]
    if missing_meta:
        raise PersistenceError(
            f"{META_FILE} is missing fields {missing_meta}"
        )
    validate_identity(
        meta,
        source,
        expected_alphabet_size=expected_alphabet_size,
        expected_kind=expected_kind,
    )
    partition_days = meta["partition_days"]
    if partition_days is not None and (
        not isinstance(partition_days, int)
        or isinstance(partition_days, bool)
        or partition_days < 1
    ):
        raise PersistenceError(
            f"{source} declares partition_days {partition_days!r}; "
            "expected null or a positive integer"
        )
    partition_fields = (
        "w", "n_trajectories", "n_traversals", "t_lo", "t_hi", "fm_n",
    )
    partitions = meta["partitions"]
    if not isinstance(partitions, list) or any(
        not isinstance(entry, dict)
        or any(field not in entry for field in partition_fields)
        for entry in partitions
    ):
        raise PersistenceError(
            f"{META_FILE} has incomplete partition entries"
        )
    stats_meta = meta["build_stats"]
    stats_fields = (
        "setup_seconds", "n_partitions", "n_trajectories", "n_traversals"
    )
    if not isinstance(stats_meta, dict) or any(
        field not in stats_meta for field in stats_fields
    ):
        raise PersistenceError(f"{META_FILE} has incomplete build_stats")


def _load_array(payload_dir: Path, name: str) -> np.ndarray:
    """Memory-map one payload array; missing/corrupt files are typed.

    Returned as a plain read-only ``ndarray`` view of the map (its
    ``.base`` is the ``np.memmap``, nothing is copied): every slice and
    fancy index of a ``memmap`` instance runs its Python-level
    ``__getitem__``/``__array_finalize__``, which the scan path pays
    tens of thousands of times per pass.
    """
    target = payload_dir / f"{name}.npy"
    if not target.is_file():
        raise PersistenceError(
            f"{payload_dir.parent} payload is missing array {name!r}"
        )
    try:
        return np.load(target, mmap_mode="r").view(np.ndarray)
    except (OSError, ValueError, EOFError) as error:
        raise PersistenceError(
            f"failed to read saved index payload from "
            f"{payload_dir.parent}: array {name!r}: {error}"
        ) from error


def _load_optional_array(payload_dir: Path, name: str) -> Optional[np.ndarray]:
    """Memory-map a payload array that older minors simply do not have."""
    if not (payload_dir / f"{name}.npy").is_file():
        return None
    return _load_array(payload_dir, name)


def _load_codes(payload_dir: Path, k: int) -> Dict[int, Tuple[int, ...]]:
    """Rebuild partition ``k``'s Huffman code table from its payload
    arrays, proving the three arrays mutually consistent first."""
    symbols = _load_array(payload_dir, f"p{k}_code_symbols")
    lengths = _load_array(payload_dir, f"p{k}_code_lengths")
    bits = _load_array(payload_dir, f"p{k}_code_bits")
    if (
        symbols.size != lengths.size
        or (lengths.size and int(lengths.min()) < 1)
        or int(lengths.sum()) != bits.size
        or (bits.size and int(bits.max()) > 1)
    ):
        raise PersistenceError(
            f"partition {k} code-table payload is corrupt: symbol, "
            "length, and bit arrays disagree"
        )
    starts = np.concatenate(([0], np.cumsum(lengths)))
    return {
        int(symbols[i]): tuple(
            int(b) for b in bits[starts[i] : starts[i + 1]]
        )
        for i in range(symbols.size)
    }


def _load_partition(
    entry: dict,
    payload_dir: Path,
    k: int,
    alphabet_size: int,
) -> IndexPartition:
    """Rebuild one temporal partition around memory-mapped payloads."""
    counts = _load_array(payload_dir, f"p{k}_counts")
    codes = _load_codes(payload_dir, k)
    node_bits = _load_array(payload_dir, f"p{k}_node_bits")
    words_all = _load_array(payload_dir, f"p{k}_wt_words")
    blocks_all = _load_array(payload_dir, f"p{k}_wt_blocks")
    prefixes = _code_prefixes(codes)
    if node_bits.size != len(prefixes):
        raise PersistenceError(
            f"partition {k} node directory disagrees with its code "
            f"table ({len(prefixes)} nodes expected, {node_bits.size} "
            "stored)"
        )
    word_counts = [(int(n) + 63) // 64 for n in node_bits]
    block_counts = [(n + 7) // 8 + 1 for n in word_counts]
    if sum(word_counts) != words_all.size \
            or sum(block_counts) != blocks_all.size:
        raise PersistenceError(
            f"partition {k} wavelet payload size disagrees with its "
            f"node directory ({sum(word_counts)} words / "
            f"{sum(block_counts)} block ranks expected, "
            f"{words_all.size} / {blocks_all.size} stored)"
        )
    nodes: Dict[tuple, RankBitvector] = {}
    word_cursor = 0
    block_cursor = 0
    for prefix, n_bits, n_words, n_blocks in zip(
        prefixes, node_bits, word_counts, block_counts
    ):
        nodes[prefix] = RankBitvector.from_arrays(
            int(n_bits),
            words_all[word_cursor : word_cursor + n_words],
            blocks_all[block_cursor : block_cursor + n_blocks],
        )
        word_cursor += n_words
        block_cursor += n_blocks
    tree = WaveletTree.from_arrays(
        int(entry["fm_n"]),
        codes,
        nodes,
        # The stored payload is already the sorted-prefix concatenation
        # the tree wants; adopting it keeps the mmap zero-copy.
        flat_words=words_all,
        flat_blocks=blocks_all,
    )
    fm = FMIndex.from_arrays(
        int(entry["fm_n"]), alphabet_size, counts, tree
    )
    return IndexPartition(
        w=int(entry["w"]),
        fm=fm,
        n_trajectories=int(entry["n_trajectories"]),
        n_traversals=int(entry["n_traversals"]),
        t_lo=int(entry["t_lo"]),
        t_hi=int(entry["t_hi"]),
    )


class _LazyPartitionList(Sequence):
    """Sequence of :class:`IndexPartition` that materialises on access.

    Opening a sealed index must not pay for rebuilding every
    partition's wavelet tree (O(partitions x alphabet) Python work) —
    that cost belongs to the first query that touches a partition.
    Materialised partitions are cached, so steady-state access is a
    list lookup.  Holds only paths and meta scalars, so a loaded index
    stays picklable and fork-friendly.
    """

    def __init__(
        self, entries: List[dict], payload_dir: Path, alphabet_size: int
    ):
        self._entries = entries
        self._payload_dir = payload_dir
        self._alphabet_size = alphabet_size
        self._cache: List[Optional[IndexPartition]] = [None] * len(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[i] for i in range(*position.indices(len(self)))]
        index = range(len(self))[position]  # IndexError + negatives
        if self._cache[index] is None:
            try:
                self._cache[index] = _load_partition(
                    self._entries[index],
                    self._payload_dir,
                    index,
                    self._alphabet_size,
                )
            except PersistenceError:
                raise
            except (ValueError, IndexError, KeyError, TypeError, OSError,
                    EOFError) as error:
                raise PersistenceError(
                    f"failed to reconstruct index from "
                    f"{self._payload_dir.parent}: {error}"
                ) from error
        return self._cache[index]


def _load_tod_store(
    payload_dir: Path, bucket_width_s: int
) -> TimeOfDayHistogramStore:
    """Deferred ToD-store loader (module-level so indexes stay
    picklable when it travels as a ``functools.partial``)."""
    try:
        return TimeOfDayHistogramStore.from_arrays(
            bucket_width_s,
            _load_array(payload_dir, "tod_keys"),
            _load_array(payload_dir, "tod_counts"),
        )
    except (ValueError, IndexError, KeyError, TypeError) as error:
        raise PersistenceError(
            f"failed to reconstruct index from {payload_dir.parent}: "
            f"{error}"
        ) from error


def load_index(
    path: StoreLike,
    expected_alphabet_size: Optional[int] = None,
    expected_kind: Optional[str] = None,
) -> "SNTIndex":
    """Load an index previously written by :func:`save_index`.

    ``expected_alphabet_size`` / ``expected_kind`` are checked against
    the manifest before any payload I/O — see :func:`validate_meta`.
    Every payload array is memory-mapped read-only; nothing is copied
    and nothing is unpickled, so the open cost is independent of the
    index size (the FM partitions, per-edge tree directories, and the
    ToD histogram dict all materialise lazily on first use).  A remote
    store pages the payload into its local cache first
    (:meth:`~repro.sntindex.store.ShardStore.localize`); the mmaps then
    open against the cached copies.
    """
    from .index import BuildStats, SNTIndex

    store = as_store(path)
    source = store.uri
    meta = read_meta(store)
    validate_meta(
        meta,
        source,
        expected_alphabet_size=expected_alphabet_size,
        expected_kind=expected_kind,
    )
    payload_dir = store.localize("") / PAYLOAD_DIR
    if not payload_dir.is_dir():
        raise PersistenceError(
            f"{source} has no {PAYLOAD_DIR}/ directory"
        )

    arrays = {name: _load_array(payload_dir, name) for name in _SHARED_ARRAYS}

    edges = arrays["edge_ids"]
    offsets = arrays["edge_offsets"]
    # Slicing with bad offsets would silently clamp to empty columns, so
    # the offset table must be proven consistent, not trusted.
    if (
        offsets.size != edges.size + 1
        or (offsets.size and offsets[0] != 0)
        or np.any(np.diff(offsets) < 0)
        or (offsets.size and offsets[-1] != arrays["col_t"].size)
    ):
        raise PersistenceError(
            f"corrupt payload in {source}: edge_offsets are inconsistent "
            "with the column arrays"
        )
    # v2.1 sort permutations: optional (a v2.0 dir rebuilds the orders
    # lazily), but when present they must cover the columns exactly —
    # a short permutation would silently be ignored per edge, so prove
    # consistency here instead.
    permutations: Dict[str, Optional[np.ndarray]] = {}
    for name in ("perm_tod", "perm_probe"):
        permutation = _load_optional_array(payload_dir, name)
        if (
            permutation is not None
            and permutation.size != arrays["col_t"].size
        ):
            raise PersistenceError(
                f"corrupt payload in {source}: {name} has "
                f"{permutation.size} entries for {arrays['col_t'].size} "
                "traversal rows"
            )
        permutations[name] = permutation
    try:
        forest = SlicedTemporalForest(
            kind=meta["kind"],
            edge_ids=edges,
            offsets=offsets,
            columns={
                name: arrays[f"col_{name}"] for name in _COLUMNS
            },
            tod_order=permutations["perm_tod"],
            probe_order=permutations["perm_probe"],
        )
    except (ValueError, IndexError, KeyError, TypeError) as error:
        raise PersistenceError(
            f"failed to reconstruct index from {source}: {error}"
        ) from error
    alphabet_size = int(meta["alphabet_size"])
    partitions = _LazyPartitionList(
        meta["partitions"], payload_dir, alphabet_size
    )

    bounds = meta["data_time_bounds"]
    stats_meta = meta["build_stats"]
    index = SNTIndex(
        partitions=partitions,
        forest=forest,
        users=arrays["users"],
        tod_store=partial(
            _load_tod_store, payload_dir, int(meta["tod_bucket_s"])
        ),
        t_min=int(meta["t_min"]),
        t_max=int(meta["t_max"]),
        alphabet_size=alphabet_size,
        kind=meta["kind"],
        partition_days=meta["partition_days"],
        build_stats=BuildStats(
            setup_seconds=float(stats_meta["setup_seconds"]),
            n_partitions=int(stats_meta["n_partitions"]),
            n_trajectories=int(stats_meta["n_trajectories"]),
            n_traversals=int(stats_meta["n_traversals"]),
        ),
        tod_bucket_s=int(meta["tod_bucket_s"]),
        data_bounds=(int(bounds[0]), int(bounds[1])),
    )
    # Where this index is reachable on *this machine* — lets serving
    # layers place per-index artifacts (e.g. the shared cache tier)
    # alongside it.  For a local store this is the index directory
    # itself; for a remote store, its local page-in cache root.
    index.source_path = payload_dir.parent
    return index
