"""Exact counting, enumeration and uniform sampling of linear extensions.

Each extension is a path up the lattice of ideals, one element placed per
edge, and all three read its table ``Poset.lattice``: counting takes the
completions of the empty ideal, enumeration follows the path of each lex
rank and sampling walks one at random.  Counts are exact integers; n is
capped (default 20) so the table stays at most 2**20 ideals.
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
    return int(P.lattice[0].counts[0])


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


def extension_orders(P: Poset, max_extensions: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All N extensions in lex order: `orders_by_rank` of 0..N-1."""
    total = count_extensions(P)  # caps n at 20
    if total > max_extensions:
        raise LimitExceededError(f"{total} extensions exceed the enumeration cap {max_extensions}")
    return orders_by_rank(P, np.arange(total))


def orders_by_rank(P: Poset, ranks) -> np.ndarray:
    """The extensions of lex ranks 0 <= r < N as (len(ranks), n) int16 element
    sequences.  From the empty ideal each layer takes the edge whose prefix sum
    of completions (``before`` of `IdealLattice.walk`) holds the rank and keeps
    the remainder, 2**16 ranks at a time.  Callers cap n and the ranks first."""
    ranks = np.asarray(ranks, dtype=np.int64)
    walk = [tuple(map(np.asarray, layer)) for layer in P.lattice.walk]
    orders = np.empty((len(ranks), P.n), dtype=np.int16)
    for lo in range(0, len(ranks), 1 << 16):
        rank, node = ranks[lo : lo + (1 << 16)], 0
        for k, (start, before, elem, dst) in enumerate(walk):
            at = before[start[node]] + rank
            edge = before.searchsorted(at, side="right") - 1
            rank = at - before[edge]
            orders[lo : lo + len(rank), k] = elem[edge]
            node = dst[edge]
    return orders


def sample_order(P: Poset, rng: random.Random) -> tuple[int, ...]:
    """One exactly-uniform extension as an element sequence, drawn with rng.

    Rank 1 first: from the ideal placed so far, each edge of `Poset.lattice`
    is taken with probability proportional to the completions of its end, in
    exact integers.  The table is built on first use: callers cap n first.
    """
    node, order = 0, []
    for start, before, elem, dst in P.lattice.walk:
        lo, hi = start[node], start[node + 1]
        base = before[lo]
        t = bisect_right(before, base + rng.randrange(before[hi] - base), lo + 1, hi + 1) - 1
        order.append(elem[t])
        node = dst[t]
    return tuple(order)


def sample_extension(P: Poset, seed: int) -> LinearExtension:
    """One exactly-uniform extension; deterministic given the seed."""
    count_extensions(P)  # caps n before the lattice is built
    return LinearExtension.from_order(sample_order(P, random.Random(seed)))


def count_extensions_sp(e: SPExpr, max_n: int = DEFAULT_N_CAP) -> int:
    """Exact extension count from the structure of an SP expression.

    Series multiplies counts; parallel multiplies counts and the multinomial
    of the block sizes, so the count is the product of the multinomials of
    the parallel nodes and of the counts of the Block and NBlock leaves,
    which `Poset.lattice` gives under max_n.
    """
    total = 1
    for node in nodes(e):
        if isinstance(node, (Block, NBlock)):
            total *= count_extensions(node.poset, max_n=max_n)
        if isinstance(node, Parallel):
            sizes = [expr_size(c) for c in node.children]
            total *= math.factorial(sum(sizes)) // math.prod(map(math.factorial, sizes))
    return total
