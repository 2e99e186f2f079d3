"""Exact counting, enumeration and uniform sampling of linear extensions.

Each extension is a path up the lattice of ideals, one element placed per
edge, and all three read its table ``Poset.lattice``: counting takes the
completions of the empty ideal, and `orders_by_rank` follows the path of
each lex rank, for enumeration (every rank) and for sampling (uniform ranks
drawn with numpy's ``Generator``).  Counts are exact integers; n is capped
(default 20) so the table stays at most 2**20 ideals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LimitExceededError
from .poset import Poset
from .spexpr import Block, NBlock, Parallel, SPExpr, nodes

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


def extension_orders(P: Poset, max_extensions: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All N extensions in lex order: `orders_by_rank` of 0..N-1."""
    total = count_extensions(P)  # caps n at 20
    if total > max_extensions:
        raise LimitExceededError(f"{total} extensions exceed the enumeration cap {max_extensions}")
    return orders_by_rank(P, np.arange(total))


def orders_by_rank(P: Poset, ranks) -> np.ndarray:
    """The extensions of lex ranks 0 <= r < N as (len(ranks), n) int16 element
    sequences.  From the empty ideal each layer takes the edge whose prefix sum
    of completions ``before`` holds the rank and keeps the remainder, 2**16
    ranks at a time.  Caps n at 20 before the lattice is built; DomainError
    unless ranks is a 1-d integer array in 0..N-1."""
    total = count_extensions(P)
    ranks = np.asarray(ranks)
    if ranks.ndim != 1 or ranks.dtype.kind not in "iu" or (
            ranks.size and not 0 <= ranks.min() <= ranks.max() < total):
        raise DomainError(f"ranks must be a 1-d integer array in 0..{total - 1}")
    ranks = ranks.astype(np.int64, copy=False)
    walk = [(a.start, np.concatenate(([0], np.cumsum(b.counts[a.dst]))), a.elem, a.dst)
            for a, b in zip(P.lattice, P.lattice[1:])]
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


def sample_extension(P: Poset, seed: int) -> LinearExtension:
    """One exactly-uniform extension, deterministic given the seed: the
    `orders_by_rank` row of a rank drawn by ``np.random.default_rng(seed)``."""
    rank = np.random.default_rng(seed).integers(0, count_extensions(P))
    return LinearExtension.from_order(orders_by_rank(P, [rank])[0].tolist())


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
            total *= math.factorial(node.size) // math.prod(math.factorial(c.size)
                                                            for c in node.children)
    return total
