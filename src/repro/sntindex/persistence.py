"""On-disk format for the SNT-index (``SNTIndex.save`` / ``load``).

A service process should start serving without re-running ``build()`` —
suffix-array construction dominates build time and the index is immutable
afterwards, so it is built once and shipped as a directory:

``meta.json``
    Format tag + version, scalar index attributes, the build stats,
    and one *scalar-only* entry per temporal partition (trip/traversal
    counts, time bounds, FM text length; the partition id is the
    entry's position).  Deliberately small: parsing it must not scale
    with the alphabet or the corpus.
``payload/``
    One standalone ``.npy`` file per bulk array: the user container
    ``U``, the temporal-forest leaf columns (sorted by ``(edge, t)``,
    with an edge id and offset table), the forest's two per-edge sort
    permutations (``perm_tod.npy``, ``perm_probe.npy`` — optional; see
    :data:`FORMAT_MINOR`), and — per partition ``k`` — ``p{k}_counts.npy``
    (the ``C`` array), the Huffman code table as three arrays
    (``p{k}_code_symbols.npy``, ``p{k}_code_lengths.npy``, and the
    concatenated code bits ``p{k}_code_bits.npy``), the per-node bit counts
    ``p{k}_node_bits.npy`` (in sorted-prefix order — the node
    *prefixes* are re-derived from the code table, so they are never
    stored), plus the concatenation of every wavelet-tree node's packed
    words (``p{k}_wt_words.npy``) and block-rank directory
    (``p{k}_wt_blocks.npy``), in the same node order.

Each array has one width (format v2.3): the leaf columns their
:data:`~repro.temporal.records.COLUMN_DTYPES` (``col_t`` int64,
``col_isa`` / ``col_d`` / ``col_seq`` int32, ``col_tt`` / ``col_a``
float64, ``col_w`` int16), both permutations int32, the code bits uint8,
the wavelet words uint64, and every other array int64.  A FULL
``small`` save is 47.9 bytes per traversal record (65.9 at v2.2).  A
directory of an older minor holds ``col_isa``, ``col_d`` and the
permutations as int64 and ``col_w`` as int32; the loader casts them
once, after proving every value fits.

Every payload file is opened with ``np.load(..., mmap_mode="r")``: no
unpickling, no array copies, and fork workers share the mapped pages.
A partition rebuilds its wavelet tree around zero-copy *slices* of the
mapped node concatenations on first touch (:class:`_LazyPartitionList`),
and a segment its tree directory over the mapped columns
(:class:`~repro.temporal.forest.TemporalForest`).  The time-of-day
histograms are never stored: an index counts them from its forest on
first estimator use.

The open proves what the index adopts as it is.  Each partition's ``C``
array starts at 0, counts one ``$`` per trajectory, never decreases and
ends at the text length ``fm_n``; the partitions' traversals add up to
the forest's rows; the offset table covers the columns; and the edge
ids increase strictly within the alphabet.  :func:`_prove_rows` then
proves the rows over blocks of whole segments of about
:data:`PROOF_BLOCK_ROWS` rows: each segment's ``t`` order, each stored
permutation slice a permutation of its segment's rows into time-of-day
or strictly increasing ``(d, seq)`` order, every ``d`` an id of ``U``,
every ``w`` a partition, every ``tt`` finite and positive, and the
``isa`` values of edge ``e``'s rows in partition ``w`` a permutation of
``[C_w[e], C_w[e + 1])``; a second pass over row blocks proves each
trajectory's ``seq`` values ``0 .. n - 1`` and its rows in one
partition, which is what makes the rows a trajectory record
(:meth:`~repro.sntindex.index.SNTIndex.trajectories`).  ``a`` is a leaf
value and is not proven.  The row-sized temporaries are a few times a
block's rows; only the trajectory proof's byte per row and few words
per trajectory id grow with the index.  For the ``small`` world's
460 588 rows the open allocates 1.85 MiB at its peak and takes 25-29 ms
on a 2-core host.  A failure is a :class:`PersistenceError` naming the
array (and the edge, for a segment's rows).

Format version 1 pickled the FM partitions (``partitions.pkl``); loading
executed whatever the pickle said.  Version 2 removes that file — the
monolithic format contains **no pickle at all** — which both closes the
load-time code-execution surface for this format and removes the
unpickle cost from the open path.  Version-1 directories are refused
with :class:`~repro.errors.IndexFormatError`; rebuild them from the
source data with ``repro index``.

``FORMAT_VERSION`` gates compatibility: loaders refuse newer or older
versions outright rather than guessing.

Every entry point takes the index directory as a ``str`` or
``os.PathLike``.  A save is staged in a sibling directory and swapped in
by :func:`atomic_install_dir`, so a reader finds the old tree, the new
one, or none, never a mix.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from collections.abc import Sequence
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
    overload,
)

import numpy as np
import numpy.typing as npt

from ..config import SECONDS_PER_DAY
from ..errors import IndexFormatError, PersistenceError
from ..fmindex import FMIndex, RankBitvector, WaveletTree
from ..fmindex.bitvector import split_flat
from ..temporal.forest import TemporalForest
from ..temporal.records import (
    COLUMN_DTYPES,
    ORDER_DTYPE,
    TraversalColumns,
    pack_probe_keys,
)
from .partition import IndexPartition

#: A saved index's directory, as every entry point here accepts it.
IndexDir = Union[str, "os.PathLike[str]"]
Writer = Callable[[Path], None]
Array = npt.NDArray[Any]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .index import SNTIndex

__all__ = [
    "FORMAT_VERSION",
    "FORMAT_MINOR",
    "FORMAT_NAME",
    "save_index",
    "load_index",
    "read_meta",
    "read_manifest",
    "validate_meta",
    "validate_identity",
    "check_integers",
    "TOD_BUCKET_BOUNDS",
    "atomic_install_dir",
    "write_index_payload",
]

#: Bump on any incompatible change to the directory layout or array set.
#: v2: pickle-free payload of standalone mmap-able ``.npy`` files.
FORMAT_VERSION = 2
#: Backwards-compatible changes within v2.  Minor 1 (= "v2.1") adds the
#: forest's two sort permutations, ``perm_tod`` and ``perm_probe``
#: (optional: a v2.0 directory's forest works its orders out).  Minor 2
#: stops writing the time-of-day histograms (``tod_keys`` /
#: ``tod_counts``), the meta's ``data_time_bounds`` and each partition's
#: ``w``; the loader ignores them in older directories.  Minor 3 holds
#: ``col_isa``, ``col_d`` and both permutations as int32 and ``col_w``
#: as int16 (they were int64, int64, int64 and int32); the loader casts
#: an older directory's wider arrays once, after proving they fit.
FORMAT_MINOR = 3
FORMAT_NAME = "snt-index"

#: The first minor whose every array is held at its
#: :data:`~repro.temporal.records.COLUMN_DTYPES` width.
_NARROW_MINOR = 3

#: Rows per block of the open's row proofs.  A block holds whole
#: segments (more rows only when one segment alone is longer), and
#: every row-sized temporary the proofs allocate is a few times its row
#: count; only a byte per row and a few words per trajectory id, for
#: the trajectory proof, grow with the index.
PROOF_BLOCK_ROWS = 1 << 14

#: The ``(minimum, maximum)`` time-of-day bucket width a loader takes:
#: at most one bucket per day, as the build enforces.
TOD_BUCKET_BOUNDS = (1, SECONDS_PER_DAY)

META_FILE = "meta.json"
PAYLOAD_DIR = "payload"

_COLUMNS = tuple(COLUMN_DTYPES)
_SHARED_ARRAYS = (
    "users",
    "edge_ids",
    "edge_offsets",
) + tuple(f"col_{name}" for name in _COLUMNS)


def save_index(
    index: "SNTIndex", path: IndexDir, extra: Optional[Dict[str, Any]] = None
) -> Path:
    """Write ``index`` to directory ``path``.

    ``extra`` is an optional JSON-serialisable dict stored verbatim under
    the ``extra`` meta key — provenance the caller wants to travel with
    the index (the CLI records a digest of the source world there).
    Loaders ignore it.

    The payload is staged in a sibling directory and swapped in by
    :func:`atomic_install_dir`, so an interrupted re-save never leaves
    a target mixing old and new files (which would pass every load
    check and answer queries wrongly).
    """
    return atomic_install_dir(
        Path(path),
        marker_file=META_FILE,
        writer=lambda target: _write_payload(index, target, extra),
        what="saved SNT-index",
    )


def atomic_install_dir(
    final: Path,
    marker_file: str,
    writer: Writer,
    what: str = "saved SNT-index",
) -> Path:
    """Stage ``writer(target)`` in a sibling temp dir and swap it in.

    Shared by the monolithic index format (marker ``meta.json``) and the
    sharded manifest format (marker ``manifest.json``).  ``writer`` is
    called with a fresh staging directory and must fully populate it —
    including the marker file, which is how a later save recognises the
    target as safe to replace.
    """
    if final.exists():
        # The swap deletes whatever sits at the target; only a prior
        # saved index (or an empty directory) is fair game — a mistaken
        # --out must not destroy user data.
        if not final.is_dir():
            raise PersistenceError(
                f"cannot save index to {final}: exists and is not a "
                "directory"
            )
        if any(final.iterdir()) and not (final / marker_file).is_file():
            raise PersistenceError(
                f"refusing to overwrite {final}: directory exists and is "
                f"not a {what}"
            )
    final.parent.mkdir(parents=True, exist_ok=True)
    # Sweep staging/graveyard leftovers of *crashed* saves only: a
    # pid-suffixed dir whose owner is still alive belongs to a
    # concurrent saver and must not be touched.  A dead saver's
    # graveyard may hold the only surviving copy of the index (crash
    # between the two swap renames) — restore it, never delete it,
    # when no index is installed.
    for pattern in (f".{final.name}.tmp-*", f".{final.name}.old-*"):
        for stale in final.parent.glob(pattern):
            pid_text = stale.name.rsplit("-", 1)[-1]
            if pid_text.isdigit() and _pid_alive(int(pid_text)):
                continue
            if ".old-" in stale.name and not final.exists():
                try:
                    os.rename(stale, final)
                    continue
                except OSError:
                    pass
            shutil.rmtree(stale, ignore_errors=True)
    target = final.parent / f".{final.name}.tmp-{os.getpid()}"
    if target.exists():  # our own leftover; the sweep skips live pids
        shutil.rmtree(target)
    target.mkdir()
    try:
        writer(target)
    except BaseException:
        shutil.rmtree(target, ignore_errors=True)
        raise

    graveyard = None
    try:
        if final.exists():
            graveyard = final.parent / f".{final.name}.old-{os.getpid()}"
            if graveyard.exists():
                shutil.rmtree(graveyard)
            os.rename(final, graveyard)
        os.rename(target, final)
    except OSError as error:
        # Most likely two savers racing for the same target: the loser's
        # rename finds the directory already moved.  Put the old index
        # back if the failure left none installed.
        shutil.rmtree(target, ignore_errors=True)
        if (
            graveyard is not None
            and graveyard.exists()
            and not final.exists()
        ):
            try:
                os.rename(graveyard, final)
            except OSError:
                pass  # the sweep of a later save will restore it
        raise PersistenceError(
            f"could not install saved index at {final} (concurrent save "
            f"to the same path?): {error}"
        ) from error
    if graveyard is not None:
        # The new index is installed; a failed graveyard cleanup is not
        # a failed save (the next save's sweep collects it).
        shutil.rmtree(graveyard, ignore_errors=True)
    return final


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for staging-dir owners."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by another user
    except OSError:
        return True  # unknown: err on the side of not deleting
    return True


def write_index_payload(
    index: "SNTIndex", target: IndexDir, extra: Optional[Dict[str, Any]] = None
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


def _code_prefixes(
    codes: Dict[int, Tuple[int, ...]],
) -> List[Tuple[int, ...]]:
    """Wavelet-tree node prefixes, sorted: every proper prefix of every
    code.  The tree has one node (bitvector) per such prefix, so the
    node directory never needs storing — it is a function of the code
    table."""
    prefixes = {code[:i] for code in codes.values() for i in range(len(code))}
    return sorted(prefixes)


def _partition_payload(
    partition: IndexPartition,
) -> Tuple[Dict[str, Any], Dict[str, Array]]:
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
    arrays: Dict[str, Array] = {
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
        "n_trajectories": partition.n_trajectories,
        "n_traversals": partition.n_traversals,
        "t_lo": partition.t_lo,
        "t_hi": partition.t_hi,
        "fm_n": len(partition.fm),
    }
    return entry, arrays


def _write_payload(
    index: "SNTIndex", target: Path, extra: Optional[Dict[str, Any]] = None
) -> None:
    """Write ``meta.json`` + ``payload/`` into (staging) dir ``target``."""

    # The forest's own arrays are the payload.
    forest = index.forest
    arrays: Dict[str, Array] = {
        "users": index.users,
        "edge_ids": forest.edge_ids,
        "edge_offsets": forest.offsets,
        **{
            f"col_{name}": getattr(forest.columns, name)
            for name in _COLUMNS
        },
        "perm_tod": forest.perm_tod,
        "perm_probe": forest.perm_probe,
    }

    partitions_meta: List[Dict[str, Any]] = []
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
    meta: Dict[str, Any] = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "format_minor": FORMAT_MINOR,
        "kind": index.kind,
        "partition_days": index.partition_days,
        "t_min": index.t_min,
        "t_max": index.t_max,
        "alphabet_size": index.alphabet_size,
        "tod_bucket_s": index.tod_bucket_s,
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


def read_manifest(
    path: IndexDir,
    file_name: str,
    format_name: str,
    format_version: int,
    what: str,
) -> Dict[str, Any]:
    """Read the JSON manifest ``file_name`` of a saved index and check
    its format tag and version — shared by :func:`read_meta` and the
    sharded ``manifest.json`` reader.

    Anything but a JSON object at the top level is a corrupt manifest
    (:class:`PersistenceError`), so callers may ``.get`` on the result.
    """
    root = Path(path)
    manifest_file = root / file_name
    source = str(root)
    if not manifest_file.is_file():
        raise PersistenceError(
            f"{source} is not a saved {what} ({file_name} missing)"
        )
    try:
        manifest = json.loads(manifest_file.read_bytes())
    except (OSError, ValueError) as error:
        raise PersistenceError(f"corrupt {file_name}: {error}") from error
    if not isinstance(manifest, dict):
        raise PersistenceError(
            f"corrupt {file_name}: top level is a JSON "
            f"{type(manifest).__name__}, expected an object"
        )
    if manifest.get("format") != format_name:
        raise PersistenceError(
            f"{source} holds format {manifest.get('format')!r}, "
            f"expected {format_name!r}"
        )
    version = manifest.get("format_version")
    if version != format_version:
        raise IndexFormatError(
            f"saved {what} has format version {version!r}; this build "
            f"reads version {format_version} only — rebuild the index "
            "from source data with `repro index`"
        )
    return manifest


def read_meta(path: IndexDir) -> Dict[str, Any]:
    """Read and format-check ``meta.json`` of a saved index.

    Cheap (no payload I/O): callers can inspect provenance — the
    ``extra`` dict, build stats, scalar attributes — without loading
    the index.
    """
    return read_manifest(
        path, META_FILE, FORMAT_NAME, FORMAT_VERSION, "SNT-index"
    )


def check_integers(
    meta: Dict[str, Any],
    bounds: Dict[str, Tuple[Optional[int], Optional[int]]],
    source: Union[str, Path],
) -> None:
    """Prove each field named in ``bounds`` an integer (a bool is not
    one) within its ``(minimum, maximum)`` (``None``: unbounded on that
    side), else raise :class:`PersistenceError` — shared by the
    monolithic and the sharded loader, which run it before reading any
    payload."""
    for name, (minimum, maximum) in bounds.items():
        value = meta[name]
        if (
            not isinstance(value, int)
            or isinstance(value, bool)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)
        ):
            expected = "an integer"
            if maximum is not None:
                expected += f" in [{minimum}, {maximum}]"
            elif minimum is not None:
                expected += f" >= {minimum}"
            raise PersistenceError(
                f"{source} declares {name} = {value!r}; expected "
                f"{expected} — refusing before reading any payload"
            )


def validate_identity(
    meta: Dict[str, Any],
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
    check_integers(meta, {"alphabet_size": (1, None)}, source)
    alphabet = meta["alphabet_size"]
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
    meta: Dict[str, Any],
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
        "tod_bucket_s", "build_stats", "partitions",
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
    integers: Dict[str, Tuple[Optional[int], Optional[int]]] = {
        "t_min": (None, None),
        "t_max": (None, None),
        "tod_bucket_s": TOD_BUCKET_BOUNDS,
    }
    if meta["partition_days"] is not None:  # null: the FULL layout
        integers["partition_days"] = (1, None)
    if "format_minor" in meta:  # absent: v2.0
        integers["format_minor"] = (0, None)
    check_integers(meta, integers, source)
    # A partition's id is its position; the ``w`` older writers stored
    # is never read.
    partition_fields = (
        "n_trajectories", "n_traversals", "t_lo", "t_hi", "fm_n",
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


def _load_array(payload_dir: Path, name: str) -> Array:
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
    entry: Dict[str, Any],
    payload_dir: Path,
    k: int,
    alphabet_size: int,
    counts: Array,
) -> IndexPartition:
    """Rebuild one temporal partition around memory-mapped payloads and
    its ``C`` array ``counts``, which the open has proven."""
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
    try:
        views = split_flat(node_bits.tolist(), words_all, blocks_all)
    except ValueError as exc:
        raise PersistenceError(
            f"partition {k} wavelet payload size disagrees with its "
            f"node directory ({exc})"
        ) from None
    nodes: Dict[Tuple[int, ...], RankBitvector] = dict(zip(prefixes, views))
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
        w=k,
        fm=fm,
        n_trajectories=int(entry["n_trajectories"]),
        n_traversals=int(entry["n_traversals"]),
        t_lo=int(entry["t_lo"]),
        t_hi=int(entry["t_hi"]),
    )


class _LazyPartitionList(Sequence[IndexPartition]):
    """Sequence of :class:`IndexPartition` that materialises on access.

    Opening a sealed index must not pay for rebuilding every
    partition's wavelet tree (O(partitions x alphabet) Python work) —
    that cost belongs to the first query that touches a partition.
    Materialised partitions are cached, so steady-state access is a
    list lookup.  Holds paths, meta scalars and the ``C`` arrays the
    open proved (memory-mapped), so a loaded index stays picklable and
    fork-friendly.
    """

    def __init__(
        self,
        entries: List[Dict[str, Any]],
        payload_dir: Path,
        alphabet_size: int,
        counts: List[Array],
    ) -> None:
        self._entries = entries
        self._payload_dir = payload_dir
        self._alphabet_size = alphabet_size
        self._counts = counts
        self._cache: List[Optional[IndexPartition]] = [None] * len(entries)

    def __len__(self) -> int:
        return len(self._entries)

    @overload
    def __getitem__(self, position: int) -> IndexPartition: ...

    @overload
    def __getitem__(self, position: slice) -> List[IndexPartition]: ...

    def __getitem__(
        self, position: Union[int, slice]
    ) -> Union[IndexPartition, List[IndexPartition]]:
        if isinstance(position, slice):
            return [self[i] for i in range(*position.indices(len(self)))]
        index = range(len(self))[position]  # IndexError + negatives
        partition = self._cache[index]
        if partition is None:
            try:
                partition = _load_partition(
                    self._entries[index],
                    self._payload_dir,
                    index,
                    self._alphabet_size,
                    self._counts[index],
                )
            except PersistenceError:
                raise
            except (ValueError, IndexError, KeyError, TypeError, OSError,
                    EOFError) as error:
                raise PersistenceError(
                    f"failed to reconstruct index from "
                    f"{self._payload_dir.parent}: {error}"
                ) from error
            self._cache[index] = partition
        return partition


def _as_dtype(
    name: str, array: Array, dtype: Any, minor: int, source: str
) -> Array:
    """``array`` held as ``dtype``: adopted as it is when it is one, and
    cast once, after proving every value fits, when a directory older
    than v2.3 holds it as a wider integer."""
    dtype = np.dtype(dtype)
    if array.dtype == dtype:
        return array
    if minor < _NARROW_MINOR and array.dtype.kind in "iu" and dtype.kind == "i":
        info = np.iinfo(dtype)
        if array.size and (array.min() < info.min or array.max() > info.max):
            raise PersistenceError(
                f"corrupt payload in {source}: {name} holds a value "
                f"{dtype} cannot"
            )
        return array.astype(dtype)
    raise PersistenceError(
        f"corrupt payload in {source}: {name} is {array.dtype}, "
        f"expected {dtype}"
    )


def _proven_counts(
    payload_dir: Path,
    k: int,
    entry: Dict[str, Any],
    alphabet_size: int,
    source: str,
) -> Array:
    """Partition ``k``'s ``C`` array, proven against its meta entry: one
    entry per symbol and one more, starting at 0, counting one ``$`` per
    trajectory before the first edge, never decreasing, and ending at
    the text length ``fm_n``, which is the partition's trajectories plus
    traversals."""
    check_integers(
        entry,
        {"n_trajectories": (0, None), "n_traversals": (0, None),
         "fm_n": (0, None)},
        source,
    )
    counts = _load_array(payload_dir, f"p{k}_counts")
    if (
        counts.shape != (alphabet_size + 1,)
        or counts.dtype.kind != "i"
        or counts[0] != 0
        or counts[1] != entry["n_trajectories"]
        or counts[-1] != entry["fm_n"]
        or entry["fm_n"] != entry["n_trajectories"] + entry["n_traversals"]
        or (counts[1:] < counts[:-1]).any()
    ):
        raise PersistenceError(
            f"corrupt payload in {source}: p{k}_counts is not the C array "
            f"of partition {k}'s text"
        )
    return counts


def _segment_blocks(
    offsets: Array, rows: int, segments: int
) -> Iterator[Tuple[int, int]]:
    """``(i, j)`` per block of whole segments ``i .. j - 1``: at most
    ``segments`` of them, holding at most ``rows`` rows together unless
    one segment alone holds more."""
    n = offsets.size - 1
    i = 0
    while i < n:
        j = int(np.searchsorted(offsets, offsets[i] + rows, side="right")) - 1
        j = min(max(j, i + 1), n, i + segments)
        yield i, j
        i = j


def _descents(keys: Array, bounds: Array, strict: bool = False) -> Array:
    """Rows where ``keys`` fall (or, ``strict``, fail to rise) inside a
    segment; they may fall where one starts (at one of ``bounds``)."""
    later, earlier = keys[1:], keys[:-1]
    fell = later <= earlier if strict else later < earlier
    starts = bounds[(bounds > 0) & (bounds < keys.size)]
    fell[starts - 1] = False
    return np.flatnonzero(fell) + 1


def _permuted(permutation: Array, starts: Array) -> Tuple[Array, Array]:
    """``(rows, missed)``: the rows a stored permutation names, each
    entry relative to its row's segment start ``starts``, and rows of
    segments whose slice is not a permutation of their rows.  With no
    entry negative, the rows cover ``range(n)`` only if every slice
    does, and a row left out belongs to a slice that does not."""
    n = starts.size
    if n and (permutation.min() < 0 or permutation.max() >= n):
        return starts, np.flatnonzero((permutation < 0) | (permutation >= n))
    rows = starts + permutation
    seen = np.zeros(2 * n, dtype=bool)
    seen[rows] = True
    return rows, np.flatnonzero(~seen[:n])


def _prove_rows(
    source: str,
    edges: Array,
    offsets: Array,
    columns: TraversalColumns,
    orders: Dict[str, Optional[Array]],
    counts: List[Array],
    n_users: int,
) -> None:
    """Prove the forest's rows, one block of whole segments at a time
    (:data:`PROOF_BLOCK_ROWS`): each segment's ``t`` order; each stored
    permutation slice a permutation of its segment's rows into
    time-of-day or strictly increasing ``(d, seq)`` order; every ``d``
    an id of ``U``; every ``w`` a partition; every ``tt`` finite and
    positive; and, since each occurrence of edge ``e`` in partition
    ``w``'s text is one row, the ``isa`` values of ``e``'s rows in
    ``w`` a permutation of ``[C_w[e], C_w[e + 1])``.  The caller has
    proven the ``C`` arrays and that their edge symbols add up to the
    row count, so no symbol is left without its rows.  A second pass
    over row blocks proves each trajectory's rows (from which
    :meth:`~repro.sntindex.index.SNTIndex.trajectories` recovers it):
    their ``seq`` values are ``0 .. n - 1`` and their ``w`` one
    partition."""
    n_partitions = len(counts)
    # Per trajectory id d: the partition of its rows, and its row count
    # in spans[d + 1], summed after the blocks so that its rows, numbered
    # trajectory by trajectory, are spans[d] .. spans[d + 1] - 1.
    partition_of = np.zeros(n_users, dtype=columns.w.dtype)
    spans = np.zeros(n_users + 1, dtype=np.int64)

    def refuse(name: str, rule: str, rows: Array, lo: int) -> None:
        """Raise naming the edge of the first of block ``rows``, if any."""
        if rows.size:
            row = lo + int(rows[0])
            edge = edges[np.searchsorted(offsets, row, side="right") - 1]
            raise PersistenceError(
                f"corrupt payload in {source}: {name} {rule} in edge {edge}"
            )

    t_all, d_all, seq_all = columns.t, columns.d, columns.seq
    segments = max(1, PROOF_BLOCK_ROWS // max(1, n_partitions))
    for i, j in _segment_blocks(offsets, PROOF_BLOCK_ROWS, segments):
        lo, hi = int(offsets[i]), int(offsets[j])
        bounds = offsets[i : j + 1] - lo
        segment = np.repeat(np.arange(j - i), np.diff(bounds))
        starts = bounds[segment]
        t, d = t_all[lo:hi], d_all[lo:hi]
        refuse("col_t", "is out of order", _descents(t, bounds), lo)
        seq = seq_all[lo:hi]
        refuse("col_seq", "is negative", np.flatnonzero(seq < 0), lo)
        for name, keys_of, strict in (
            ("perm_tod", lambda rows: np.mod(t[rows], SECONDS_PER_DAY),
             False),
            ("perm_probe", lambda rows: pack_probe_keys(d[rows], seq[rows]),
             True),
        ):
            order = orders[name]
            if order is None:
                continue
            rows, missed = _permuted(order[lo:hi], starts)
            refuse(name, "is not a permutation", missed, lo)
            descents = _descents(keys_of(rows), bounds, strict)
            refuse(name, "is out of order", descents, lo)
        refuse("col_d", "names a trajectory U does not hold",
               np.flatnonzero((d < 0) | (d >= n_users)), lo)
        w = columns.w[lo:hi]
        refuse("col_w", f"names a partition outside [0, {n_partitions})",
               np.flatnonzero((w < 0) | (w >= n_partitions)), lo)
        tt = columns.tt[lo:hi]
        refuse("col_tt", "is not a finite positive time",
               np.flatnonzero(~((tt > 0) & (tt < np.inf))), lo)
        # Gathers and scatters by an intp index are several times
        # faster than by the int32 column.
        trajectory = d.astype(np.intp)
        np.add.at(spans[1:], trajectory, 1)
        partition_of[trajectory] = w
        # Each (partition, segment) pair of the block, partition-major:
        # where its edge's ISA range starts and how wide it is.
        symbols = edges[i:j]
        first = np.concatenate([c[symbols] for c in counts])
        width = np.concatenate([c[symbols + 1] for c in counts]) - first
        pair = w.astype(np.int64) * (j - i) + segment
        wrong = np.flatnonzero(np.bincount(pair, minlength=width.size) != width)
        if wrong.size:
            k, at = divmod(int(wrong[0]), j - i)
            refuse("col_w", f"and p{k}_counts disagree on the row count",
                   bounds[at : at + 1], lo)
        slot = columns.isa[lo:hi] - first[pair]
        refuse("col_isa", "lies outside its edge's range in its C array",
               np.flatnonzero((slot < 0) | (slot >= width[pair])), lo)
        # Every pair holds as many rows as its range is wide, so its rows
        # fill the range only if no two share a value.
        base = np.cumsum(width) - width
        slot += base[pair]
        seen = np.zeros(hi - lo, dtype=bool)
        seen[slot] = True
        unseen = np.flatnonzero(~seen)
        if unseen.size:
            at = (np.searchsorted(base, unseen[0], side="right") - 1) % (j - i)
            refuse("col_isa", "repeats a value", bounds[at : at + 1], lo)

    # Trajectory d's rows, numbered spans[d] + seq, fill its span only
    # if no two share a seq.
    np.cumsum(spans, out=spans)
    seen = np.zeros(d_all.size, dtype=bool)
    for lo in range(0, d_all.size, PROOF_BLOCK_ROWS):
        hi = lo + PROOF_BLOCK_ROWS
        trajectory = d_all[lo:hi].astype(np.intp)
        number = spans.take(trajectory) + seq_all[lo:hi]
        refuse("col_seq", "runs past its trajectory's row count",
               np.flatnonzero(number >= spans.take(trajectory + 1)), lo)
        refuse("col_w", "splits a trajectory across partitions",
               np.flatnonzero(partition_of.take(trajectory)
                              != columns.w[lo:hi]), lo)
        seen[number] = True
    if not seen.all():
        traj_id = np.searchsorted(spans, np.argmin(seen), side="right") - 1
        raise PersistenceError(
            f"corrupt payload in {source}: col_seq repeats a value in "
            f"trajectory {traj_id}"
        )


def load_index(
    path: IndexDir,
    expected_alphabet_size: Optional[int] = None,
    expected_kind: Optional[str] = None,
) -> "SNTIndex":
    """Load an index previously written by :func:`save_index`.

    ``expected_alphabet_size`` / ``expected_kind`` are checked against
    the manifest before any payload I/O — see :func:`validate_meta`.
    Every payload array is memory-mapped read-only; nothing is copied
    (but an older directory's wider columns, cast once) and nothing is
    unpickled.  The FM partitions and per-edge tree directories
    materialise lazily on first use, and the time-of-day histograms are
    counted from the forest on first estimator use; the open itself
    proves the ``C`` arrays and the forest's rows in bounded blocks
    (see the module docstring).
    """
    from .index import BuildStats, SNTIndex

    root = Path(path)
    source = str(root)
    meta = read_meta(root)
    validate_meta(
        meta,
        source,
        expected_alphabet_size=expected_alphabet_size,
        expected_kind=expected_kind,
    )
    payload_dir = root / PAYLOAD_DIR
    if not payload_dir.is_dir():
        raise PersistenceError(
            f"{source} has no {PAYLOAD_DIR}/ directory"
        )
    minor = meta.get("format_minor", 0)

    arrays = {name: _load_array(payload_dir, name) for name in _SHARED_ARRAYS}

    edges = arrays["edge_ids"]
    offsets = arrays["edge_offsets"]
    columns = TraversalColumns(**{
        name: _as_dtype(f"col_{name}", arrays[f"col_{name}"], dtype, minor,
                        source)
        for name, dtype in COLUMN_DTYPES.items()
    })
    n_rows = len(columns)
    # Slicing with bad offsets would silently clamp to empty columns, so
    # the offset table must be proven consistent, not trusted.
    if (
        offsets.size != edges.size + 1
        or (offsets.size and offsets[0] != 0)
        or np.any(np.diff(offsets) < 0)
        or (offsets.size and offsets[-1] != n_rows)
        or any(getattr(columns, name).shape != (n_rows,) for name in _COLUMNS)
    ):
        raise PersistenceError(
            f"corrupt payload in {source}: edge_offsets are inconsistent "
            "with the column arrays"
        )
    alphabet_size = int(meta["alphabet_size"])
    # A repeated id would give one segment two slices, one unreachable;
    # an id outside [1, alphabet_size) has no range in the C arrays.
    if np.any(np.diff(edges) <= 0) or (
        edges.size and (edges[0] < 1 or edges[-1] >= alphabet_size)
    ):
        raise PersistenceError(
            f"corrupt payload in {source}: edge_ids are not increasing "
            f"edge symbols of [1, {alphabet_size})"
        )

    # Stored orders are adopted as they are, so they are proven here; a
    # v2.0 dir has none, and the forest works its own out.
    orders: Dict[str, Optional[Array]] = dict.fromkeys(
        ("perm_tod", "perm_probe")
    )
    if all((payload_dir / f"{name}.npy").is_file() for name in orders):
        for name in orders:
            order = _as_dtype(name, _load_array(payload_dir, name),
                              ORDER_DTYPE, minor, source)
            if order.shape != (n_rows,):
                raise PersistenceError(
                    f"corrupt payload in {source}: {name} holds "
                    f"{order.shape} entries for {n_rows} rows"
                )
            orders[name] = order
    entries = meta["partitions"]
    counts = [
        _proven_counts(payload_dir, k, entry, alphabet_size, source)
        for k, entry in enumerate(entries)
    ]
    traversals = sum(entry["n_traversals"] for entry in entries)
    if n_rows != traversals:
        raise PersistenceError(
            f"corrupt payload in {source}: the forest holds {n_rows} rows, "
            f"the partitions' C arrays {traversals} edge symbols"
        )
    try:
        _prove_rows(source, edges, offsets, columns, orders, counts,
                    int(arrays["users"].size))
        forest = TemporalForest(
            meta["kind"], edges, offsets, columns,
            orders["perm_tod"], orders["perm_probe"],
        )
    except (ValueError, IndexError, KeyError, TypeError) as error:
        raise PersistenceError(
            f"failed to reconstruct index from {source}: {error}"
        ) from error
    partitions = _LazyPartitionList(
        entries, payload_dir, alphabet_size, counts
    )

    stats_meta = meta["build_stats"]
    return SNTIndex(
        partitions=partitions,
        forest=forest,
        users=arrays["users"],
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
    )
