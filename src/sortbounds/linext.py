"""Exact counting, enumeration and uniform sampling of linear extensions.

Counting is a dynamic program over the unranked part of the ground set,
keyed on its bitmask: the ranked prefix of any partial schedule is an
order ideal, so the states are exactly the up-sets of the poset.  The table
lives in ``Poset.upset_counts``: counting reads its full-set entry,
enumeration checks its cap against that count, and sampling walks it.
Counts are arbitrary-precision integers throughout; n is capped (default 20)
so the state space stays at most 2**20.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import LimitExceededError
from .poset import Poset
from .spexpr import Block, NBlock, Parallel, SPExpr, expr_size, nodes

DEFAULT_N_CAP = 20
DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class LinearExtension:
    """Rank assignment: rank[i] is the 1-based position of element i."""

    rank: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.rank) != list(range(1, len(self.rank) + 1)):
            raise ValueError(f"rank vector {self.rank} is not a permutation of 1..n")

    @property
    def order(self) -> tuple[int, ...]:
        """Elements listed from rank 1 to rank n (0-based elements)."""
        return tuple(sorted(range(len(self.rank)), key=self.rank.__getitem__))

    @classmethod
    def from_order(cls, order) -> "LinearExtension":
        rank = [0] * len(order)
        for pos, elem in enumerate(order):
            rank[elem] = pos + 1
        return cls(tuple(rank))


def is_extension(P: Poset, ext: LinearExtension) -> bool:
    if len(ext.rank) != P.n:
        return False
    rank = np.asarray(ext.rank)
    rows, cols = np.nonzero(P.rel)
    return bool(np.all(rank[rows] < rank[cols]))


def count_extensions(P: Poset, max_n: int = DEFAULT_N_CAP) -> int:
    """Exact number of linear extensions (arbitrary precision)."""
    if P.n > max_n:
        raise LimitExceededError(f"n={P.n} exceeds the counting cap {max_n}")
    return P.upset_counts[(1 << P.n) - 1]


def ln_count(x: int) -> float:
    """Natural log of a positive big integer, error well below 1e-12."""
    if x <= 0:
        raise ValueError("log of a non-positive count")
    return math.log(x)


def itlb(P: Poset) -> float:
    """Information-theoretic lower bound ln |extensions|; 0 for a chain."""
    return ln_count(count_extensions(P))


def enumerate_extensions(
    P: Poset, max_extensions: int = DEFAULT_ENUM_CAP
) -> Iterator[LinearExtension]:
    """Yield every extension once, in lexicographic order of element sequence."""
    for order in extension_orders(P, max_extensions).tolist():
        yield LinearExtension.from_order(order)


def _placeable(placed: np.ndarray, need: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """(prefix, element) matrix of placed & need == preds, filled in blocks
    of prefixes so the int32 temporary stays small."""
    out = np.empty((len(placed), len(need)), dtype=bool)
    for lo in range(0, len(placed), 1 << 14):
        block = placed[lo : lo + (1 << 14), None]
        np.equal(block & need, preds, out=out[lo : lo + len(block)])
    return out


def extension_orders(P: Poset, max_extensions: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All extensions as an (N, n) array of element sequences, lex order.

    All prefixes grow one rank per step by each unplaced element whose
    predecessors are placed; `np.nonzero` reads that (prefix, element)
    matrix row-major, so each step stays in lex order.  The rows are read
    back through the (parent, element) pairs of the steps, kept as int32
    (int64 past 2**31 extensions) and int8.
    """
    total = count_extensions(P)  # caps n at 20, so the masks fit in int32
    if total > max_extensions:
        raise LimitExceededError(f"{total} extensions exceed the enumeration cap {max_extensions}")
    index = np.int32 if total < 2**31 else np.int64
    bits = np.int32(1) << np.arange(P.n, dtype=np.int32)
    preds = np.array(P.pred_masks, dtype=np.int32)
    need = preds | bits  # e is placeable after a prefix iff prefix & need == preds
    placed = np.zeros(1, dtype=np.int32)
    steps = []
    for _ in range(P.n):
        parent, elem = np.nonzero(_placeable(placed, need, preds))
        parent, elem = parent.astype(index), elem.astype(np.int8)
        steps.append((parent, elem))
        placed = placed[parent] | bits[elem]
    orders = np.empty((len(placed), P.n), dtype=np.int16)
    row = np.arange(len(placed), dtype=index)
    for k in range(P.n - 1, -1, -1):
        parent, elem = steps.pop()
        orders[:, k] = elem[row]
        row = parent[row]
    return orders


def sample_order(P: Poset, rng: random.Random) -> tuple[int, ...]:
    """One exactly-uniform extension as an element sequence, drawn with rng.

    Rank 1 first: each minimal element of the unranked up-set is picked with
    probability proportional to its number of completions, read from the
    up-set table in exact integer arithmetic.  The table is built on first
    use, so callers cap n first.
    """
    preds = P.pred_masks
    counts = P.upset_counts
    mask = (1 << P.n) - 1
    order = []
    while mask:
        choices = []
        cumulative = []
        acc = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            if preds[e] & mask == 0:
                acc += counts[mask ^ low]
                choices.append((e, low))
                cumulative.append(acc)
        e, low = choices[bisect_right(cumulative, rng.randrange(acc))]
        order.append(e)
        mask ^= low
    return tuple(order)


def sample_extension(P: Poset, seed: int) -> LinearExtension:
    """One exactly-uniform extension; deterministic given the seed."""
    count_extensions(P)  # caps n before the up-set table is built
    return LinearExtension.from_order(sample_order(P, random.Random(seed)))


def count_extensions_sp(e: SPExpr, max_n: int = DEFAULT_N_CAP) -> int:
    """Exact extension count from the structure of an SP expression.

    Series multiplies counts; parallel multiplies counts and the multinomial
    of the block sizes, so the count is the product of the multinomials of
    the parallel nodes and of the counts of the Block and NBlock leaves,
    which the up-set DP gives under max_n.
    """
    total = 1
    for node in nodes(e):
        if isinstance(node, (Block, NBlock)):
            total *= count_extensions(node.poset, max_n=max_n)
        if isinstance(node, Parallel):
            sizes = [expr_size(c) for c in node.children]
            total *= math.factorial(sum(sizes)) // math.prod(map(math.factorial, sizes))
    return total
