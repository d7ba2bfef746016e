"""Huffman code construction for the Huffman-shaped wavelet tree.

The paper's FM-index uses sdsl-lite's *integer-alphabet Huffman-shaped*
wavelet tree (Section 6.2), which shapes the tree by symbol frequency so
that total bitvector length approaches the zeroth-order entropy of the text.
"""

from __future__ import annotations

import heapq
from typing import Dict, Tuple

__all__ = ["huffman_codes"]


def huffman_codes(frequencies: Dict[int, int]) -> Dict[int, Tuple[int, ...]]:
    """Build Huffman codes for symbols with the given positive frequencies.

    Parameters
    ----------
    frequencies:
        Mapping from symbol to occurrence count.  Symbols with zero or
        negative frequency are ignored.

    Returns
    -------
    dict
        Mapping from symbol to its code as a tuple of bits (0/1).  A
        single-symbol alphabet receives the one-bit code ``(0,)`` so the
        resulting wavelet tree still has one level to store positions.
    """
    items = [(freq, sym) for sym, freq in frequencies.items() if freq > 0]
    if not items:
        return {}
    if len(items) == 1:
        return {items[0][1]: (0,)}

    # Heap entries: (frequency, tie_breaker, tree). Trees are either a leaf
    # symbol or a (left, right) pair.
    heap: list = []
    for tie, (freq, sym) in enumerate(sorted(items)):
        heap.append((freq, tie, sym))
    heapq.heapify(heap)
    next_tie = len(heap)
    while len(heap) > 1:
        f1, _, t1 = heapq.heappop(heap)
        f2, _, t2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, next_tie, (t1, t2)))
        next_tie += 1

    codes: Dict[int, Tuple[int, ...]] = {}

    def assign(tree, prefix: Tuple[int, ...]) -> None:
        if isinstance(tree, tuple):
            assign(tree[0], prefix + (0,))
            assign(tree[1], prefix + (1,))
        else:
            codes[tree] = prefix

    assign(heap[0][2], ())
    return codes

