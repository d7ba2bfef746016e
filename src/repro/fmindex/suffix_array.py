"""Suffix-array construction for integer-alphabet trajectory strings.

The SNT-index (paper Section 4.1.1) sorts all suffixes of the concatenated
trajectory string ``T = P_tr0 $ P_tr1 $ ... $`` to obtain the suffix array
``SA`` and its inverse ``ISA``.  The authors use Yuta Mori's ``sais-lite``;
here we provide a numpy prefix-doubling construction plus a naive oracle
used by the test-suite.

Each doubling round re-sorts only the positions still in *tied* groups
(suffixes whose first ``k`` symbols agree), on one packed int64 key
``rank * (n + 1) + next_rank``.  Ranks are group starts, so a refined
group keeps its place among the settled ones and settled positions are
never touched again; on trajectory strings the tied set shrinks fast,
so the rounds after the first few are cheap.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

from ..errors import IndexError_

__all__ = ["suffix_array", "inverse_suffix_array", "naive_suffix_array"]

#: Longest text whose packed key ``rank * (n + 1) + next_rank`` (at most
#: ``(n + 1)**2 - 1``) fits in an int64.
MAX_TEXT_LENGTH = math.isqrt(2**63) - 1


def naive_suffix_array(text: Sequence[int]) -> npt.NDArray[np.int64]:
    """Build a suffix array by explicitly sorting suffix tuples.

    O(n^2 log n); intended only as a correctness oracle for small inputs.
    """
    items = list(text)
    order = sorted(range(len(items)), key=lambda i: items[i:])
    return np.asarray(order, dtype=np.int64)


def suffix_array(text: npt.ArrayLike) -> npt.NDArray[np.int64]:
    """Build the suffix array of ``text`` via numpy prefix doubling.

    Parameters
    ----------
    text:
        Sequence of non-negative integer symbols.  The trajectory-string
        convention of the paper maps the terminator ``$`` to the smallest
        symbol, but no terminator is required by this function: ties between
        overlapping suffixes are broken by suffix length (shorter suffix
        first), which matches comparing plain Python sequences.

    Returns
    -------
    numpy.ndarray
        ``SA`` with ``SA[j]`` = start position of the j-th smallest suffix.

    Raises
    ------
    ValueError
        For a negative symbol.
    IndexError_
        For a text longer than :data:`MAX_TEXT_LENGTH`.
    """
    arr = np.asarray(text, dtype=np.int64)
    n = int(arr.size)
    if n > MAX_TEXT_LENGTH:
        raise IndexError_(
            f"suffix_array handles at most {MAX_TEXT_LENGTH} symbols; "
            f"got {n}"
        )
    if n and int(arr.min()) < 0:
        raise ValueError("suffix_array requires non-negative symbols")
    sa = np.argsort(arr, kind="stable").astype(np.int64, copy=False)
    if n < 2:
        return sa

    # rank[i] = 1 + the first SA slot of i's group; rank[n] = 0 stands
    # for "past the end", so shorter suffixes sort first.
    rank = np.zeros(n + 1, dtype=np.int64)
    rank[sa] = _group_starts(arr[sa], np.arange(n, dtype=np.int64)) + 1
    tied = np.flatnonzero(_tied_mask(rank[sa]))
    k = 1
    while tied.size:
        positions = sa[tied]
        key = rank[positions] * (n + 1) + rank[np.minimum(positions + k, n)]
        # Tied groups occupy their SA slots contiguously and in rank
        # order, so sorting all of them together re-sorts each in place.
        order = np.argsort(key)
        key = key[order]
        positions = positions[order]
        sa[tied] = positions
        # Rank updates wait until every key of the round is read.
        rank[positions] = _group_starts(key, tied) + 1
        tied = tied[_tied_mask(key)]
        k *= 2
    return sa


def inverse_suffix_array(sa: npt.ArrayLike) -> npt.NDArray[np.int64]:
    """Return ``ISA`` with ``ISA[SA[j]] = j`` (paper Section 4.1.1)."""
    order = np.asarray(sa, dtype=np.int64)
    isa = np.empty_like(order)
    isa[order] = np.arange(order.size, dtype=np.int64)
    return isa


def _group_starts(
    sorted_keys: npt.NDArray[np.signedinteger[Any]],
    slots: npt.NDArray[np.signedinteger[Any]],
) -> npt.NDArray[np.int64]:
    """For each slot of a sorted run, the slot where its key's group
    starts (``slots`` ascending, one per key)."""
    starts = np.empty(sorted_keys.size, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return np.maximum.accumulate(np.where(starts, slots, 0))


def _tied_mask(
    sorted_keys: npt.NDArray[np.signedinteger[Any]],
) -> npt.NDArray[np.bool_]:
    """Which entries of a sorted run share their key with a neighbour."""
    same = sorted_keys[1:] == sorted_keys[:-1]
    tied = np.zeros(sorted_keys.size, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    return tied

