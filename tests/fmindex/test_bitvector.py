"""Tests for the rank-support bitvector."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fmindex.bitvector import (
    RankBitvector,
    pack_flat,
    rank1_bulk_offsets,
    split_flat,
)
from repro.fmindex.wavelet_tree import WaveletTree


def naive_rank1(bits, i):
    return sum(1 for b in bits[:i] if b)


def test_empty():
    bv = RankBitvector([])
    assert len(bv) == 0
    assert bv.rank1(0) == 0
    assert bv.n_ones == 0


def test_single_bits():
    assert RankBitvector([True]).rank1(1) == 1
    assert RankBitvector([False]).rank1(1) == 0


def test_small_pattern():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    bv = RankBitvector(bits)
    for i in range(len(bits) + 1):
        assert bv.rank1(i) == naive_rank1(bits, i)
        assert bv.rank0(i) == i - naive_rank1(bits, i)


def test_getitem():
    bits = [1, 0, 1, 1, 0]
    bv = RankBitvector(bits)
    assert [bv[i] for i in range(5)] == [True, False, True, True, False]


def test_getitem_out_of_range():
    bv = RankBitvector([1, 0])
    with pytest.raises(IndexError):
        bv[2]
    with pytest.raises(IndexError):
        bv[-1]


def test_rank_out_of_range():
    bv = RankBitvector([1, 0])
    with pytest.raises(IndexError):
        bv.rank1(3)


def test_block_boundaries():
    # Exercise ranks across byte and block boundaries.
    bits = ([True] * 100 + [False] * 100) * 7
    bv = RankBitvector(bits)
    for i in [0, 1, 7, 8, 9, 63, 64, 65, 100, 199, 200, 512, 513, 1399, 1400]:
        assert bv.rank1(i) == naive_rank1(bits, i)


def test_n_ones():
    bits = [True, False, True] * 50
    assert RankBitvector(bits).n_ones == 100


def test_rank1_bulk_matches_scalar():
    rng = np.random.default_rng(7)
    bits = rng.random(1000) < 0.3
    bv = RankBitvector(bits)
    positions = np.array([0, 1, 8, 9, 511, 512, 513, 999, 1000])
    expected = [bv.rank1(int(p)) for p in positions]
    zeros = np.zeros(positions.size, dtype=np.int64)
    got = rank1_bulk_offsets(
        bv.words, bv.block_ranks, zeros, zeros, positions
    )
    assert got.tolist() == expected


def test_rank1_bulk_out_of_range():
    """The bulk rank validates its root positions against the root
    bitvector: one past the end is an ``IndexError``."""
    tree = WaveletTree([1, 0, 1, 1])
    zero = np.zeros(1, dtype=np.int64)
    with pytest.raises(IndexError):
        tree.rank_pairs_frontier([1], zero, np.array([5]))


def test_size_in_bytes_reasonable():
    bv = RankBitvector([True] * 8000)
    # 1000 packed bytes + block ranks; far below a byte per bit.
    assert 1000 <= bv.size_in_bytes() < 1400


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), max_size=1100), st.data())
def test_property_rank_matches_naive(bits, data):
    # Up to 1100 bits: past two 512-bit block edges.
    bv = RankBitvector(bits)
    i = data.draw(st.integers(min_value=0, max_value=len(bits)))
    j = data.draw(st.integers(min_value=0, max_value=len(bits)))
    assert bv.rank1(i) == naive_rank1(bits, i)
    assert bv.rank0(i) + bv.rank1(i) == i
    assert bv.rank_pair(i, j) == (naive_rank1(bits, i), naive_rank1(bits, j))


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n_bits", [64 * 8, 64 * 8 * 2 + 64 * 3 + 5, 1100])
def test_rank_pair_near_every_word_and_block_edge(n_bits, density):
    """``rank_pair`` and ``rank1`` against a naive popcount at every
    position within two of a word edge (every eighth one a block edge),
    each paired with a position in another word and another block."""
    bits = np.random.default_rng(n_bits).random(n_bits) < density
    bv = RankBitvector(bits)
    naive = np.concatenate(([0], np.cumsum(bits))).tolist()
    positions = sorted(
        {
            p
            for edge in range(0, n_bits + 64, 64)
            for p in range(edge - 2, edge + 3)
            if 0 <= p <= n_bits
        }
    )
    for i in positions:
        assert bv.rank1(i) == naive[i]
        for j in (i, n_bits - i, min(n_bits, i + 65), min(n_bits, i + 513)):
            assert bv.rank_pair(i, j) == (naive[i], naive[j])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_property_access_matches_input(bits):
    bv = RankBitvector(bits)
    assert [bv[i] for i in range(len(bits))] == [bool(b) for b in bits]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.booleans(), max_size=1100).map(
            lambda bits: np.asarray(bits, dtype=bool)
        ),
        max_size=6,
    )
)
@example(
    [
        np.random.default_rng(n).random(n) < 0.5
        for n in (0, 1, 63, 64, 65, 511, 512, 513, 4097)
    ]
)
def test_pack_flat_matches_a_bit_by_bit_layout(arrays):
    # Lengths straddle word (64) and block (512) boundaries, and an
    # empty bitvector keeps its one-entry directory.
    words, blocks = pack_flat(arrays)
    expected_words, expected_blocks = [], []
    for bits in arrays:
        bits = bits.tolist()
        vector_words = [
            sum(1 << (63 - j) for j, bit in enumerate(bits[i : i + 64]) if bit)
            for i in range(0, len(bits), 64)
        ]
        expected_words += vector_words
        expected_blocks += [
            sum(bin(word).count("1") for word in vector_words[:b])
            for b in range(0, len(vector_words), 8)
        ] + [sum(bits)]
    assert words.dtype == np.uint64 and blocks.dtype == np.int64
    assert words.tolist() == expected_words
    assert blocks.tolist() == expected_blocks
    vectors = split_flat([bits.size for bits in arrays], words, blocks)
    for bits, vector in zip(arrays, vectors):
        assert [vector[i] for i in range(len(vector))] == bits.tolist()
        assert vector.rank1(len(vector)) == int(bits.sum())


def test_split_flat_rejects_a_payload_of_the_wrong_size():
    words, blocks = pack_flat([np.ones(70, dtype=bool)])
    assert (words.size, blocks.size) == (2, 2)
    with pytest.raises(ValueError, match="2 words / 2 block ranks expected"):
        split_flat([70], words[:-1], blocks)
    with pytest.raises(ValueError, match="2 / 3 given"):
        split_flat([70], words, np.append(blocks, 0))
