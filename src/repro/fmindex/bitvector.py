"""Rank-support bitvector over uint64 words.

The wavelet tree of the FM-index needs ``rank1(i)`` — the number of set
bits in ``bits[0, i)`` — in O(1).  The layout is the classic two-level
succinct rank directory: the bits are packed into native uint64 words
(bit ``i`` of the vector is bit ``63 - i % 64`` of word ``i // 64``),
and one absolute rank is kept per :data:`WORDS_PER_BLOCK`-word block
(512 bits), with the tail of a query resolved by popcounting at most
seven words plus one partial word.

The directory is ~12.5 % of the payload and is **all** the structure
there is: :meth:`RankBitvector.size_in_bytes` reports exactly the bytes
of the two resident arrays, so the Figure 10 memory accounting matches
real memory.  (An earlier revision answered queries from a per-packed-
byte int64 prefix — ~8 B of directory per byte of bits — while
reporting only the block directory, understating the bitvector layer's
real footprint by roughly an order of magnitude.)

Both arrays are plain numpy buffers, so a saved index can expose them
through ``np.load(..., mmap_mode="r")`` and reconstruct a bitvector
with :meth:`RankBitvector.from_arrays` without copying — see
:mod:`repro.sntindex.persistence` (format version 2).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

__all__ = [
    "RankBitvector",
    "WORD_BITS",
    "WORDS_PER_BLOCK",
    "pack_flat",
    "split_flat",
]


def rank1_bulk_offsets(
    words: npt.NDArray[np.uint64],
    blocks: npt.NDArray[np.int64],
    word_off: npt.NDArray[np.int64],
    block_off: npt.NDArray[np.int64],
    pos: npt.NDArray[np.int64],
) -> npt.NDArray[np.int64]:
    """Bulk ``rank1`` across many bitvectors packed into one flat pair.

    ``words``/``blocks`` concatenate several bitvectors' payloads (the
    wavelet tree stores all its nodes this way — the same layout the
    persistence format writes); ``word_off[k]``/``block_off[k]`` locate
    element ``k``'s bitvector and ``pos[k]`` is its *local* rank
    position.  One vectorised pass (a block-directory gather, then
    masked popcounts of the at most seven in-block words and the
    partial tail word) answers every element with exactly its
    :meth:`RankBitvector.rank1`.  That is what lets the levelwise
    frontier descent (:meth:`repro.fmindex.wavelet_tree.WaveletTree.
    rank_pairs_frontier`, the one bulk rank) rank a whole batch per
    tree level no matter how the pairs have spread across nodes.
    Positions are trusted (in ``[0, n_k]`` of their bitvector): the
    frontier validates the root positions once, and every later level's
    positions are ranks, in range by construction.

    ``pos`` may be any shape as long as ``word_off``/``block_off``
    broadcast against it (the frontier passes both interval endpoints
    as one ``(2, k)`` stack over ``(k,)`` offsets, halving the dispatch
    count versus two concatenated 1-D calls).
    """
    word = pos >> 6
    tail = pos & 63
    local_block = pos >> 9
    ranks: npt.NDArray[np.int64] = blocks[block_off + local_block]
    if words.size:
        # One gather of each position's (at most 7) in-block words,
        # shifted by its element's word offset, popcounted and summed
        # under the in-block mask.  Indices are clamped instead of
        # branch-masked: clamped entries are always outside the mask.
        block_word = local_block << 3
        offsets = np.arange(WORDS_PER_BLOCK - 1, dtype=np.int64)
        idx = (word_off + block_word)[..., None] + offsets
        in_block = offsets < (word - block_word)[..., None]
        np.minimum(idx, words.size - 1, out=idx)
        counts = np.bitwise_count(words[idx]).astype(np.int64)
        ranks += np.sum(counts, axis=-1, where=in_block)
        shift = ((WORD_BITS - tail) & 63).astype(np.uint64)
        tail_counts = np.bitwise_count(
            words[np.minimum(word_off + word, words.size - 1)] >> shift
        ).astype(np.int64)
        ranks += np.where(tail > 0, tail_counts, 0)
    return ranks

#: Bits per packed word.
WORD_BITS = 64
#: Words per rank-directory block (512 bits per block, sdsl-style).
WORDS_PER_BLOCK = 8

_BitsInput = Union[npt.ArrayLike, Iterable[object]]


def pack_flat(
    bit_arrays: Sequence[npt.NDArray[np.bool_]],
) -> Tuple[npt.NDArray[np.uint64], npt.NDArray[np.int64]]:
    """Pack bitvectors into one flat words/blocks pair, in order.

    Each bitvector starts on a fresh word (bit ``i`` is bit
    ``63 - i % 64`` of its word ``i // 64``) and keeps its own block
    directory, sentinel included — the layout
    :func:`rank1_bulk_offsets` reads, the persistence format stores and
    :func:`split_flat` cuts back into bitvectors.  A fixed number of
    whole-array passes, however many bitvectors there are.
    """
    count = len(bit_arrays)
    lengths = np.fromiter(
        (bits.size for bits in bit_arrays), dtype=np.int64, count=count
    )
    n_words = (lengths + WORD_BITS - 1) // WORD_BITS
    word_off = np.cumsum(n_words) - n_words
    # Each bitvector zero-padded to whole words, joined in one pass
    # (the pads are views of one zero run: one byte per bit in total).
    zeros = np.zeros(WORD_BITS, dtype=bool)
    padded = np.concatenate(
        [zeros[:0]]
        + [
            piece
            for bits in bit_arrays
            for piece in (bits, zeros[: -bits.size % WORD_BITS])
        ]
    )
    # packbits is big-endian within each byte; viewing 8-byte groups
    # big-endian makes it big-endian within each word.
    words = np.packbits(padded).view(">u8").astype(np.uint64)

    # Entry b of a bitvector's directory counts the ones before its
    # word 8b; the sentinel entry (b = n_blocks) counts all of them.
    ones = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(np.bitwise_count(words), dtype=np.int64, out=ones[1:])
    n_entries = (n_words + WORDS_PER_BLOCK - 1) // WORDS_PER_BLOCK + 1
    owner = np.repeat(np.arange(count), n_entries)
    block = np.arange(int(n_entries.sum())) - np.repeat(
        np.cumsum(n_entries) - n_entries, n_entries
    )
    start = word_off[owner]
    end = start + np.minimum(block * WORDS_PER_BLOCK, n_words[owner])
    return words, ones[end] - ones[start]


def split_flat(
    lengths: Sequence[int],
    words: npt.NDArray[np.uint64],
    blocks: npt.NDArray[np.int64],
) -> List["RankBitvector"]:
    """The bitvectors of ``lengths`` bits packed by :func:`pack_flat`,
    as zero-copy views into ``words`` / ``blocks``.

    Raises ``ValueError`` when the arrays are not exactly that long.
    """
    n_words = [(int(n) + WORD_BITS - 1) // WORD_BITS for n in lengths]
    n_blocks = [
        (n + WORDS_PER_BLOCK - 1) // WORDS_PER_BLOCK + 1 for n in n_words
    ]
    if sum(n_words) != words.size or sum(n_blocks) != blocks.size:
        raise ValueError(
            f"{sum(n_words)} words / {sum(n_blocks)} block ranks expected, "
            f"{words.size} / {blocks.size} given"
        )
    vectors: List[RankBitvector] = []
    word_at = block_at = 0
    for n_bits, word_count, block_count in zip(lengths, n_words, n_blocks):
        vectors.append(
            RankBitvector.from_arrays(
                int(n_bits),
                words[word_at : word_at + word_count],
                blocks[block_at : block_at + block_count],
            )
        )
        word_at += word_count
        block_at += block_count
    return vectors


class RankBitvector:
    """Immutable bitvector with O(1) ``rank1``/``rank0`` support."""

    __slots__ = ("_n", "_words", "_block_ranks", "_words_mv", "_blocks_mv")

    _n: int
    _words: npt.NDArray[np.uint64]
    _block_ranks: npt.NDArray[np.int64]
    _words_mv: memoryview
    _blocks_mv: memoryview

    def __init__(self, bits: _BitsInput) -> None:
        bit_array = np.asarray(
            bits if hasattr(bits, "__len__") else list(bits)  # type: ignore[arg-type]
        ).astype(bool, copy=False)
        self._n = int(bit_array.size)
        self._words, self._block_ranks = pack_flat([bit_array])
        self._bind_views()

    def _bind_views(self) -> None:
        # Zero-copy memoryviews over the resident arrays: scalar queries
        # index these (a plain-int fast path) instead of paying numpy's
        # per-element scalar boxing on every rank.
        self._words_mv = memoryview(self._words)
        self._blocks_mv = memoryview(self._block_ranks)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        words: npt.NDArray[np.uint64],
        block_ranks: npt.NDArray[np.int64],
    ) -> "RankBitvector":
        """Rebuild a bitvector around existing (possibly mmap) arrays.

        The arrays are adopted as-is — no copy — so a memory-mapped
        saved index shares pages across processes.  Only cheap shape
        invariants are validated; the payload is trusted.
        """
        n = int(n)
        if n < 0:
            raise ValueError("bit count must be non-negative")
        n_words = (n + WORD_BITS - 1) // WORD_BITS
        n_blocks = (n_words + WORDS_PER_BLOCK - 1) // WORDS_PER_BLOCK
        if words.dtype != np.uint64 or words.ndim != 1:
            raise ValueError("words must be a 1-D uint64 array")
        if block_ranks.dtype != np.int64 or block_ranks.ndim != 1:
            raise ValueError("block_ranks must be a 1-D int64 array")
        if int(words.size) != n_words:
            raise ValueError(
                f"words array has {words.size} words; {n} bits need "
                f"{n_words}"
            )
        if int(block_ranks.size) != n_blocks + 1:
            raise ValueError(
                f"block_ranks array has {block_ranks.size} entries; "
                f"{n_words} words need {n_blocks + 1}"
            )
        self = cls.__new__(cls)
        self._n = n
        self._words = words
        self._block_ranks = block_ranks
        self._bind_views()
        return self

    # -- persistence / pickling ---------------------------------------- #

    @property
    def words(self) -> npt.NDArray[np.uint64]:
        """The packed uint64 words (resident array; do not mutate)."""
        return self._words

    @property
    def block_ranks(self) -> npt.NDArray[np.int64]:
        """The block rank directory, with a total-ones sentinel last."""
        return self._block_ranks

    def __getstate__(self) -> Tuple[int, Any, Any]:
        # memoryviews are not picklable; rebuild them on load.
        return (self._n, self._words, self._block_ranks)

    def __setstate__(self, state: Tuple[int, Any, Any]) -> None:
        self._n, self._words, self._block_ranks = state
        self._bind_views()

    # -- queries -------------------------------------------------------- #

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> bool:
        if not 0 <= i < self._n:
            raise IndexError(f"bit index {i} out of range [0, {self._n})")
        return bool((self._words_mv[i >> 6] >> (63 - (i & 63))) & 1)

    def rank1(self, i: int) -> int:
        """Number of set bits in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank position {i} out of range [0, {self._n}]")
        word, tail = divmod(i, WORD_BITS)
        block_start = (word >> 3) << 3
        rank = self._blocks_mv[word >> 3]
        words = self._words_mv
        for k in range(block_start, word):
            rank += words[k].bit_count()
        if tail:
            rank += (words[word] >> (WORD_BITS - tail)).bit_count()
        return rank

    def rank0(self, i: int) -> int:
        """Number of clear bits in positions ``[0, i)``."""
        return i - self.rank1(i)

    def rank_pair(self, i: int, j: int) -> Tuple[int, int]:
        """``(rank1(i), rank1(j))`` in one call.

        Backward search ranks both endpoints of an interval at every
        wavelet-tree node; answering them together shares the bounds
        check and the view lookups, which dominate the scalar cost.
        """
        n = self._n
        if i < 0 or j < 0 or i > n or j > n:
            raise IndexError(
                f"rank positions ({i}, {j}) out of range [0, {n}]"
            )
        words = self._words_mv
        blocks = self._blocks_mv

        word, tail = divmod(i, WORD_BITS)
        rank_i = blocks[word >> 3]
        for k in range((word >> 3) << 3, word):
            rank_i += words[k].bit_count()
        if tail:
            rank_i += (words[word] >> (WORD_BITS - tail)).bit_count()

        word, tail = divmod(j, WORD_BITS)
        rank_j = blocks[word >> 3]
        for k in range((word >> 3) << 3, word):
            rank_j += words[k].bit_count()
        if tail:
            rank_j += (words[word] >> (WORD_BITS - tail)).bit_count()
        return rank_i, rank_j

    def _validated_positions(
        self, positions: npt.ArrayLike
    ) -> npt.NDArray[np.int64]:
        """Validate the root positions of a bulk rank.

        Positions must form a 1-D integer array: a 0-d array is a shape
        error (``TypeError``, not an opaque crash), and float positions
        are rejected instead of being silently truncated (``7.9`` used
        to rank at 7).  An empty array short-circuits before the dtype
        check — there is nothing to misinterpret.
        """
        pos = np.asarray(positions)
        if pos.ndim != 1:
            raise TypeError(
                f"positions must be a 1-D array, got a {pos.ndim}-D "
                f"array of shape {pos.shape}"
            )
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if not np.issubdtype(pos.dtype, np.integer):
            raise TypeError(
                f"positions must have an integer dtype, got {pos.dtype} "
                "(float positions would be silently truncated)"
            )
        pos = pos.astype(np.int64, copy=False)
        lo, hi = int(pos.min()), int(pos.max())
        if lo < 0 or hi > self._n:
            raise IndexError(
                f"rank position {lo if lo < 0 else hi} out of range "
                f"[0, {self._n}]"
            )
        return pos

    @property
    def n_ones(self) -> int:
        """Total number of set bits."""
        return int(self._block_ranks[-1])

    def size_in_bytes(self) -> int:
        """Real succinct size: exactly the resident arrays' bytes.

        Packed words plus the block rank directory — there is no other
        query structure, so this is both the Figure 10 model size and
        the actual memory.
        """
        return int(self._words.nbytes + self._block_ranks.nbytes)
