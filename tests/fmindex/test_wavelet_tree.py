"""Tests for the Huffman-shaped wavelet tree."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.fmindex.huffman import huffman_codes
from repro.fmindex.wavelet_tree import WaveletTree

from tests.paper_vectors import EXPECTED_BWT


def naive_rank(text, symbol, i):
    return sum(1 for s in text[:i] if s == symbol)


def test_empty():
    wt = WaveletTree([])
    assert len(wt) == 0
    assert wt.rank(3, 0) == 0


def test_single_symbol_alphabet():
    wt = WaveletTree([4, 4, 4, 4])
    assert wt.rank(4, 0) == 0
    assert wt.rank(4, 3) == 3
    assert wt.rank(5, 4) == 0
    assert wt.access(2) == 4


def test_rank_on_paper_bwt():
    wt = WaveletTree(EXPECTED_BWT)
    # Procedure 2 trace for path <A, B>: rank_A(Tbwt, 8) = 0 and
    # rank_A(Tbwt, 11) = 3 (paper Section 4.1.1).
    assert wt.rank(1, 8) == 0
    assert wt.rank(1, 11) == 3


def test_rank_all_positions_paper_bwt():
    wt = WaveletTree(EXPECTED_BWT)
    for symbol in range(7):
        for i in range(len(EXPECTED_BWT) + 1):
            assert wt.rank(symbol, i) == naive_rank(EXPECTED_BWT, symbol, i)


def test_access_reconstructs_text():
    wt = WaveletTree(EXPECTED_BWT)
    assert [wt.access(i) for i in range(len(EXPECTED_BWT))] == EXPECTED_BWT


def test_rank_unknown_symbol_is_zero():
    wt = WaveletTree([1, 2, 3])
    assert wt.rank(99, 3) == 0


def test_rank_out_of_range():
    wt = WaveletTree([1, 2, 3])
    with pytest.raises(IndexError):
        wt.rank(1, 4)


def test_access_out_of_range():
    wt = WaveletTree([1, 2, 3])
    with pytest.raises(IndexError):
        wt.access(3)


def test_rank_pair_matches_individual():
    wt = WaveletTree(EXPECTED_BWT)
    for symbol in range(7):
        assert wt.rank_pair(symbol, 3, 11) == (
            wt.rank(symbol, 3),
            wt.rank(symbol, 11),
        )


def test_huffman_shape_gives_short_codes_to_frequent_symbols():
    text = [1] * 100 + [2] * 10 + [3] * 5 + [4]
    wt = WaveletTree(text)
    codes = wt.codes
    assert len(codes[1]) <= len(codes[2]) <= len(codes[3])
    assert len(codes[1]) <= len(codes[4])


def test_huffman_codes_prefix_free():
    codes = huffman_codes({1: 7, 2: 1, 3: 1, 4: 4, 5: 9})
    items = list(codes.values())
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            if i != j:
                assert a[: len(b)] != b, "codes must be prefix-free"


def test_huffman_codes_empty_and_single():
    assert huffman_codes({}) == {}
    assert huffman_codes({7: 3}) == {7: (0,)}
    assert huffman_codes({7: 0}) == {}


def test_size_in_bytes_entropy_sensitive():
    skewed = WaveletTree([1] * 1000 + [2] * 10)
    uniform = WaveletTree(list(range(10)) * 101)
    assert skewed.size_in_bytes() < uniform.size_in_bytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), max_size=120), st.data())
def test_property_rank_matches_naive(text, data):
    wt = WaveletTree(text)
    symbol = data.draw(st.integers(min_value=0, max_value=12))
    i = data.draw(st.integers(min_value=0, max_value=len(text)))
    assert wt.rank(symbol, i) == naive_rank(text, symbol, i)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
def test_property_access_roundtrip(text):
    wt = WaveletTree(text)
    assert [wt.access(i) for i in range(len(text))] == text


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), max_size=100))
def test_property_total_rank_is_count(text):
    wt = WaveletTree(text)
    counts = Counter(text)
    for symbol, count in counts.items():
        assert wt.rank(symbol, len(text)) == count


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=60),
        ),
        min_size=1,
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_property_every_rank_matches_naive_with_mixed_code_depths(
    runs, rng
):
    # Skewed symbol counts give codes of several lengths in one tree.
    text = [symbol for symbol, count in runs for _ in range(count)]
    rng.shuffle(text)
    _assert_every_rank(WaveletTree(text), text)


def test_every_rank_on_a_tree_with_five_code_depths():
    text = [7] * 64 + [3] * 32 + [5] * 16 + [1] * 8 + [2] * 4 + [9] * 4
    text = text[::3] + text[1::3] + text[2::3]
    wt = WaveletTree(text)
    assert {len(code) for code in wt.codes.values()} == {1, 2, 3, 4, 5}
    _assert_every_rank(wt, text)


def _assert_every_rank(wt, text):
    for symbol in set(text) | {41}:
        running = 0
        for i in range(len(text) + 1):
            assert wt.rank(symbol, i) == running
            if i < len(text) and text[i] == symbol:
                running += 1
