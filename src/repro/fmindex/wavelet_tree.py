"""Huffman-shaped wavelet tree over an integer alphabet.

Stores a sequence so that ``rank_c(i)`` — occurrences of symbol ``c`` in the
prefix ``[0, i)`` — runs in O(|code(c)|) time, i.e. O(log |Sigma|) for a
balanced shape and less for frequent symbols under the Huffman shape (paper
Section 4.1.1: "The Burrows-Wheeler transform is stored in a wavelet tree to
enable rank queries in O(log |Sigma|) time").

Backward search is the innermost loop of every query, so the per-symbol
descent is precomputed: ``_steps[c]`` lists the ``(node, bit)`` pairs of
``c``'s root-to-leaf path, replacing the prefix-tuple/dict walk with a
flat loop over bitvector :meth:`~repro.fmindex.bitvector.RankBitvector.
rank_pair` calls.  :meth:`WaveletTree.rank_pairs_frontier` runs the
descents of a whole batch of ``(symbol, interval)`` pairs level by
level, vectorising the rank layer for the batched backward search
(:meth:`repro.fmindex.fm.FMIndex.isa_ranges`).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .bitvector import (
    RankBitvector,
    pack_flat,
    rank1_bulk_offsets,
    split_flat,
)
from .huffman import huffman_codes

__all__ = ["WaveletTree"]

#: Below this many interval pairs the scalar descent wins: a bulk
#: descent costs ~15 numpy dispatches per tree level regardless of
#: batch size, while the scalar pair descent is ~10 µs flat.  Measured
#: crossover ~32-48 pairs on real sub-path batches; above ~128 the
#: levelwise descent wins >2x and keeps growing with batch size.
_BULK_MIN_PAIRS = 48

#: Levelwise-descent fragmentation cutoff: once fewer live pairs than
#: this remain (only rare, long-code symbols descend that deep), their
#: leftover levels run scalar — below it the flat per-level numpy
#: dispatch cost stops amortising.  Swept 4..48; flat within noise
#: from 16 up.
_FRONTIER_MIN = 16

#: One node of a symbol's precomputed descent: the bitvector plus
#: whether the code bit sends the interval into the one-child.
_Step = Tuple[RankBitvector, bool]


class WaveletTree:
    """Immutable wavelet tree supporting ``rank`` and ``access``."""

    def __init__(self, text: Sequence[int]):
        arr = np.asarray(text, dtype=np.int64)
        self._n = int(arr.size)
        frequencies: Dict[int, int] = {}
        if self._n:
            symbols, counts = np.unique(arr, return_counts=True)
            frequencies = {int(s): int(c) for s, c in zip(symbols, counts)}
        self._codes: Dict[int, Tuple[int, ...]] = huffman_codes(frequencies)
        self._nodes: Dict[Tuple[int, ...], RankBitvector] = {}
        if self._n:
            self._finalize(*self._build(arr))
        else:
            self._finalize()

    def _build(self, arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``arr`` down the code tree; pack every node at once.

        Returns the flat words/blocks pair (sorted-prefix order) that
        the nodes, bound here as views into it, share.
        """
        max_symbol = int(arr.max())
        depth_max = max(len(code) for code in self._codes.values())
        code_len = np.zeros(max_symbol + 1, dtype=np.int64)
        # code_bit[depth, symbol]: bit ``depth`` of the symbol's code (0
        # past its end).  A node's sequence holds only the symbols under
        # its prefix, so one row lookup gives the node's bits.
        code_bit = np.zeros((depth_max, max_symbol + 1), dtype=bool)
        for symbol, code in self._codes.items():
            code_len[symbol] = len(code)
            code_bit[: len(code), symbol] = code

        node_bits: Dict[Tuple[int, ...], np.ndarray] = {}
        pending = [((), arr)]
        while pending:
            prefix, seq = pending.pop()
            depth = len(prefix)
            bits = code_bit[depth][seq]
            node_bits[prefix] = bits
            left = seq[~bits]
            right = seq[bits]
            if left.size and code_len[left[0]] > depth + 1:
                pending.append((prefix + (0,), left))
            if right.size and code_len[right[0]] > depth + 1:
                pending.append((prefix + (1,), right))

        ordered = sorted(node_bits)
        bits_in_order = [node_bits[prefix] for prefix in ordered]
        flat_words, flat_blocks = pack_flat(bits_in_order)
        lengths = [bits.size for bits in bits_in_order]
        self._nodes = dict(
            zip(ordered, split_flat(lengths, flat_words, flat_blocks))
        )
        return flat_words, flat_blocks

    def _finalize(
        self,
        flat_words: np.ndarray | None = None,
        flat_blocks: np.ndarray | None = None,
    ) -> None:
        """Derive the query-time tables from ``_codes`` and ``_nodes``.

        Every proper prefix of a code names a node (the symbol itself
        guarantees the split), so the descent list is total.

        The node payloads are rebound to one flat words/blocks array
        pair in sorted-prefix order — the same layout the persistence
        format writes — so the levelwise frontier descent can answer a
        whole level's ranks across *all* nodes with one offset-based
        bulk call.  ``flat_words``/``flat_blocks`` let a caller whose
        nodes are already views into one concatenated payload (the
        build, and the memory-mapped saved index) hand that payload over
        zero-copy; otherwise the flat pair is built here and each node
        is rebound as a view into it.
        """
        self._decode: Dict[Tuple[int, ...], int] = {
            code: sym for sym, code in self._codes.items()
        }
        # Flat node storage + per-node offsets (sorted-prefix order).
        ordered_nodes = sorted(self._nodes)
        self._node_id: Dict[Tuple[int, ...], int] = {
            prefix: k for k, prefix in enumerate(ordered_nodes)
        }
        word_sizes = [self._nodes[p].words.size for p in ordered_nodes]
        block_sizes = [
            self._nodes[p].block_ranks.size for p in ordered_nodes
        ]
        self._node_word_off = np.concatenate(
            ([0], np.cumsum(word_sizes, dtype=np.int64))
        )[:-1]
        self._node_block_off = np.concatenate(
            ([0], np.cumsum(block_sizes, dtype=np.int64))
        )[:-1]
        if flat_words is None or flat_blocks is None:
            self._flat_words = (
                np.concatenate(
                    [self._nodes[p].words for p in ordered_nodes]
                )
                if ordered_nodes
                else np.zeros(0, dtype=np.uint64)
            )
            self._flat_blocks = (
                np.concatenate(
                    [self._nodes[p].block_ranks for p in ordered_nodes]
                )
                if ordered_nodes
                else np.zeros(0, dtype=np.int64)
            )
            for k, prefix in enumerate(ordered_nodes):
                wo = int(self._node_word_off[k])
                bo = int(self._node_block_off[k])
                self._nodes[prefix] = RankBitvector.from_arrays(
                    len(self._nodes[prefix]),
                    self._flat_words[wo : wo + word_sizes[k]],
                    self._flat_blocks[bo : bo + block_sizes[k]],
                )
        else:
            if int(flat_words.size) != sum(word_sizes) or int(
                flat_blocks.size
            ) != sum(block_sizes):
                raise ValueError(
                    "flat node payload disagrees with the node set "
                    f"({sum(word_sizes)} words / {sum(block_sizes)} "
                    f"block ranks expected, {flat_words.size} / "
                    f"{flat_blocks.size} given)"
                )
            self._flat_words = flat_words
            self._flat_blocks = flat_blocks
        # Child table for the levelwise descent: node k's bit-b child
        # id, or -1 at a leaf edge.
        self._child = np.full((len(ordered_nodes), 2), -1, dtype=np.int64)
        for prefix, k in self._node_id.items():
            for bit in (0, 1):
                child = self._node_id.get(prefix + (bit,))
                if child is not None:
                    self._child[k, bit] = child
        # A node's two steps are shared by every descent through it: a
        # tree holds two step pairs per node, not one per code bit.
        step_at: Dict[Tuple[int, ...], Tuple[_Step, _Step]] = {
            prefix: ((node, False), (node, True))
            for prefix, node in self._nodes.items()
        }
        self._steps: Dict[int, Tuple[_Step, ...]] = {
            symbol: tuple(
                step_at[code[:depth]][code[depth]]
                for depth in range(len(code))
            )
            for symbol, code in self._codes.items()
        }
        # Dense code table for the multi-symbol frontier descent: row r
        # holds symbol r's code bits (zero-padded) and its length.
        ordered = sorted(self._codes)
        max_len = max(
            (len(self._codes[s]) for s in ordered), default=0
        )
        self._sym_row: Dict[int, int] = {s: r for r, s in enumerate(ordered)}
        self._code_matrix = np.zeros((len(ordered), max_len), dtype=bool)
        self._code_len = np.zeros(len(ordered), dtype=np.int64)
        for row, symbol in enumerate(ordered):
            code = self._codes[symbol]
            self._code_len[row] = len(code)
            self._code_matrix[row, : len(code)] = code

    @classmethod
    def from_arrays(
        cls,
        n: int,
        codes: Dict[int, Tuple[int, ...]],
        nodes: Dict[Tuple[int, ...], RankBitvector],
        flat_words: np.ndarray | None = None,
        flat_blocks: np.ndarray | None = None,
    ) -> "WaveletTree":
        """Rebuild a tree around existing node bitvectors (no re-build).

        Used by the persistence layer: the nodes' arrays may be memory-
        mapped slices of a saved index.  ``codes``/``nodes`` are adopted
        as-is; consistency between them is the writer's contract.  When
        the nodes are slices of one concatenated sorted-prefix payload
        (the saved format's layout), pass that payload as
        ``flat_words``/``flat_blocks`` so the tree adopts it zero-copy
        instead of concatenating a resident duplicate.
        """
        self = cls.__new__(cls)
        self._n = int(n)
        self._codes = dict(codes)
        self._nodes = dict(nodes)
        self._finalize(flat_words=flat_words, flat_blocks=flat_blocks)
        return self

    def __getstate__(self) -> Tuple[int, Dict, Dict]:
        # The derived tables hold memoryview-backed bitvectors shared
        # with _nodes; persist only the defining state.
        return (self._n, self._codes, self._nodes)

    def __setstate__(self, state: Tuple[int, Dict, Dict]) -> None:
        self._n, self._codes, self._nodes = state
        self._finalize()

    def __len__(self) -> int:
        return self._n

    @property
    def codes(self) -> Dict[int, Tuple[int, ...]]:
        """Mapping from symbol to Huffman code (tuple of bits)."""
        return dict(self._codes)

    @property
    def nodes(self) -> Dict[Tuple[int, ...], RankBitvector]:
        """Node bitvectors keyed by code-bit prefix (for serialisation)."""
        return dict(self._nodes)

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of ``symbol`` in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank position {i} out of range [0, {self._n}]")
        steps = self._steps.get(int(symbol))
        if steps is None:  # symbol never occurs in the text
            return 0
        position = i
        for bits, bit in steps:
            position = bits.rank1(position) if bit else bits.rank0(position)
        return position

    def rank_pair(self, symbol: int, i: int, j: int) -> Tuple[int, int]:
        """Compute ``(rank(symbol, i), rank(symbol, j))`` in one descent.

        Backward search (Procedure 2) always needs the rank at both interval
        endpoints; sharing the descent halves the node lookups, and once the
        endpoints meet the remaining nodes are walked with a single position
        (equal endpoints can never diverge again).
        """
        steps = self._steps.get(int(symbol))
        if steps is None:
            return 0, 0
        return self._descend_pair(steps, i, j)

    @staticmethod
    def _descend_pair(
        steps: Sequence[_Step], pos_i: int, pos_j: int
    ) -> Tuple[int, int]:
        """Walk an interval pair down a (suffix of a) descent list."""
        for index, (bits, bit) in enumerate(steps):
            if pos_i == pos_j:
                for bits_rest, bit_rest in steps[index:]:
                    pos_i = (
                        bits_rest.rank1(pos_i)
                        if bit_rest
                        else bits_rest.rank0(pos_i)
                    )
                return pos_i, pos_i
            rank_i, rank_j = bits.rank_pair(pos_i, pos_j)
            if bit:
                pos_i, pos_j = rank_i, rank_j
            else:
                pos_i, pos_j = pos_i - rank_i, pos_j - rank_j
        return pos_i, pos_j

    def rank_pairs_frontier(
        self,
        symbols: Sequence[int],
        i_positions: np.ndarray,
        j_positions: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`rank_pair` across *many symbols* at once.

        A backward-search round over a diverse path batch yields mostly
        singleton symbol groups, so a per-symbol bulk descent would not
        pay off.  This descent is *levelwise* instead: because every
        node's payload lives in one flat words/blocks pair (see
        :meth:`_finalize`),
        each tree level answers the ranks of **all** live pairs with a
        single offset-based bulk call
        (:func:`~repro.fmindex.bitvector.rank1_bulk_offsets`), no
        matter how the pairs have spread across nodes — the per-level
        cost is a fixed ~15 numpy dispatches, not one bulk call per
        touched node.  Once fewer than ``_FRONTIER_MIN`` pairs remain
        live (only rare, long-code symbols descend that deep), the
        leftovers finish scalar.  Bit-identical to the scalar
        :meth:`rank_pair` per element; symbols absent from the text
        yield ``(0, 0)``.
        """
        pairs = len(symbols)
        out_i = np.zeros(pairs, dtype=np.int64)
        out_j = np.zeros(pairs, dtype=np.int64)
        if pairs == 0 or not self._nodes:
            return out_i, out_j
        sym_row = self._sym_row
        rows = np.fromiter(
            (sym_row.get(int(s), -1) for s in symbols),
            dtype=np.int64,
            count=pairs,
        )
        root = self._nodes[()]
        ipos = root._validated_positions(i_positions)
        jpos = root._validated_positions(j_positions)
        if ipos.size != pairs or jpos.size != pairs:
            raise TypeError(
                f"symbols and endpoint arrays differ in length "
                f"({pairs} symbols vs {ipos.size}/{jpos.size} positions)"
            )
        pos = np.stack([ipos, jpos])  # (2, pairs): both endpoints at once
        flat_words = self._flat_words
        flat_blocks = self._flat_blocks
        word_off = self._node_word_off
        block_off = self._node_block_off
        child = self._child
        code_matrix = self._code_matrix
        code_len = self._code_len
        steps_of = self._steps
        node = np.zeros(pairs, dtype=np.int64)  # every pair starts at root
        idx = np.nonzero(rows >= 0)[0]
        depth = 0
        while idx.size:
            if idx.size < _FRONTIER_MIN:
                # Fragmented tail: finish the stragglers' remaining
                # descents scalar (same integers, cheaper below the
                # bulk dispatch floor).
                for c in idx.tolist():
                    out_i[c], out_j[c] = self._descend_pair(
                        steps_of[int(symbols[c])][depth:],
                        int(pos[0, c]),
                        int(pos[1, c]),
                    )
                break
            nid = node[idx]
            live_pos = pos[:, idx]
            ranks = rank1_bulk_offsets(
                flat_words,
                flat_blocks,
                word_off[nid],
                block_off[nid],
                live_pos,
            )
            go_one = code_matrix[rows[idx], depth]
            new_pos = np.where(go_one, ranks, live_pos - ranks)
            pos[:, idx] = new_pos
            done = code_len[rows[idx]] == depth + 1
            if done.any():
                finished = idx[done]
                out_i[finished] = new_pos[0, done]
                out_j[finished] = new_pos[1, done]
            live = idx[~done]
            if live.size:
                node[live] = child[node[live], go_one[~done].astype(np.int64)]
            idx = live
            depth += 1
        return out_i, out_j

    def access(self, i: int) -> int:
        """Return the symbol stored at position ``i``."""
        if not 0 <= i < self._n:
            raise IndexError(f"access position {i} out of range [0, {self._n})")
        prefix: Tuple[int, ...] = ()
        position = i
        while prefix not in self._decode:
            bits = self._nodes[prefix]
            bit = int(bits[position])
            position = bits.rank1(position) if bit else bits.rank0(position)
            prefix = prefix + (bit,)
        return self._decode[prefix]

    def size_in_bytes(self) -> int:
        """Total succinct size of all node bitvectors plus the code table.

        The node term is exact (each node reports its resident arrays'
        bytes); the code table is the documented 9 B-per-symbol model
        constant (symbol id 8 B + code length 1 B).
        """
        node_bytes = sum(bits.size_in_bytes() for bits in self._nodes.values())
        return node_bytes + 9 * len(self._codes)
