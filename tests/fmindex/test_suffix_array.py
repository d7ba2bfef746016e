"""Tests for suffix-array construction."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.fmindex.suffix_array import (
    MAX_TEXT_LENGTH,
    inverse_suffix_array,
    naive_suffix_array,
    suffix_array,
)

from tests.paper_vectors import TRAJECTORY_STRING


def test_empty_string():
    assert suffix_array([]).size == 0


def test_single_symbol():
    assert suffix_array([5]).tolist() == [0]


def test_two_symbols_sorted():
    assert suffix_array([2, 1]).tolist() == [1, 0]
    assert suffix_array([1, 2]).tolist() == [0, 1]


def test_repeated_symbol_prefers_shorter_suffix():
    # aaa: suffixes "a" < "aa" < "aaa".
    assert suffix_array([1, 1, 1]).tolist() == [2, 1, 0]


def test_banana_like():
    # "banana" with b=2, a=1, n=3 -> suffixes sorted: a, ana, anana, banana,
    # na, nana -> SA = [5, 3, 1, 0, 4, 2].
    text = [2, 1, 3, 1, 3, 1]
    assert suffix_array(text).tolist() == [5, 3, 1, 0, 4, 2]


def test_matches_naive_on_paper_string():
    expected = naive_suffix_array(TRAJECTORY_STRING)
    assert suffix_array(TRAJECTORY_STRING).tolist() == expected.tolist()


def test_paper_string_dollar_block_first():
    # The four $ suffixes occupy SA[0..4); the four A suffixes SA[4..8).
    sa = suffix_array(TRAJECTORY_STRING)
    text = list(TRAJECTORY_STRING)
    first_symbols = [text[i] for i in sa]
    assert first_symbols[:4] == [0, 0, 0, 0]
    assert first_symbols[4:8] == [1, 1, 1, 1]


def test_rejects_negative_symbols():
    with pytest.raises(ValueError):
        suffix_array([1, -2, 3])


def test_inverse_suffix_array_roundtrip():
    sa = suffix_array(TRAJECTORY_STRING)
    isa = inverse_suffix_array(sa)
    assert np.array_equal(sa[isa], np.arange(sa.size))
    assert np.array_equal(isa[sa], np.arange(sa.size))


def test_suffix_array_is_permutation():
    sa = suffix_array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5])
    assert sorted(sa.tolist()) == list(range(11))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
def test_property_matches_naive(text):
    assert suffix_array(text).tolist() == naive_suffix_array(text).tolist()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=80))
def test_property_sorted_order(text):
    sa = suffix_array(text)
    suffixes = [text[i:] for i in sa]
    assert suffixes == sorted(suffixes)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200)
)
def test_property_large_alphabet(text):
    sa = suffix_array(text)
    suffixes = [text[i:] for i in sa]
    assert suffixes == sorted(suffixes)


def _trajectory_string(paths):
    """``P_0 $ P_1 $ ...`` with ``$`` = 0, as the index builds it."""
    return [symbol for path in paths for symbol in (*path, 0)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=6), max_size=15),
        max_size=5,
    ).map(_trajectory_string)
)
def test_property_trajectory_strings_match_naive(text):
    assert suffix_array(text).tolist() == naive_suffix_array(text).tolist()


def test_periodic_text_needs_every_doubling_round():
    # Every suffix of (12)^500 shares a prefix with another until the
    # round whose offset passes its length, so ties last ~log2(n) rounds.
    text = [1, 2] * 500 + [0]
    assert suffix_array(text).tolist() == naive_suffix_array(text).tolist()


def test_text_too_long_for_the_packed_key(monkeypatch):
    module = sys.modules[suffix_array.__module__]
    monkeypatch.setattr(module, "MAX_TEXT_LENGTH", 4)
    assert suffix_array([2, 1, 2, 0]).tolist() == [3, 1, 2, 0]
    with pytest.raises(IndexError_, match="at most 4 symbols; got 5"):
        suffix_array([2, 1, 2, 1, 0])


def test_max_text_length_keeps_the_packed_key_in_int64():
    n = MAX_TEXT_LENGTH
    assert n * (n + 1) + n <= np.iinfo(np.int64).max
    n += 1
    assert n * (n + 1) + n > np.iinfo(np.int64).max
