"""Finite strict partial orders on the ground set {0, ..., n-1}.

``Poset(rel)`` takes any acyclic relation on n >= 1 elements and stores its
transitive closure, strict; the reflexive pairs of the textbook convention
are implicit.  Elements are 0-based throughout the Python API.  The text
format and :func:`build_poset` accept 1-based labels, so conversion happens
only at that boundary.

A ``Poset`` is immutable after construction and safe to share across workers.
Its only caches are the declared cached properties below: the cover
relation, the predecessor and successor bitmasks (bit i is element i) and
``lattice``, the ideal table that counting, `orders_by_rank` (enumeration,
sampling) and the exact QLB read.  Each is built on first use, never mutated.
"""
from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CycleError, LimitExceededError, SizeMismatchError

# Past this many maximal chains the chain walk and the chain matrix are
# refused; at n <= 20 there are at most 3**6 * 2 = 1458.
MAX_CHAINS = 100_000


def transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Repeated squaring R | R @ R to its fixpoint, about log2(n) products
    (one for a closed R), through float32 BLAS: it skips bool products, and
    a sum of 0/1 terms is > 0 iff one is 1."""
    out = rel
    while True:
        f = out.astype(np.float32)
        grown = out | ((f @ f) > 0)
        if np.array_equal(grown, out):
            return grown
        out = grown


def _row_masks(rel: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as a bitmask, bit j for column j."""
    packed = np.packbits(rel, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


class IdealLayer(NamedTuple):
    """The ideals of one size in `Poset.lattice`: their bitmasks in
    increasing order and their completions c(D), the extensions of the
    elements outside D.  The edges D -> D | e out of ideal j are
    start[j]:start[j + 1], by increasing ``elem``; ``dst`` indexes D | e
    in the next layer."""

    masks: np.ndarray
    counts: np.ndarray
    start: np.ndarray
    elem: np.ndarray
    dst: np.ndarray


class Poset:
    """Immutable strict partial order: the closure of a relation, n >= 1.

    ``rel[i, j]`` is true iff ``i < j`` in the order.  The constructor raises
    ValueError when rel is not a non-empty square matrix, and CycleError
    when rel has a cycle (a loop or a mutual pair included).
    """

    def __init__(self, rel: np.ndarray):
        rel = np.asarray(rel, dtype=bool)
        if rel.ndim != 2 or rel.shape[0] != rel.shape[1] or rel.shape[0] == 0:
            raise ValueError(f"relation must be a non-empty square matrix, got shape {rel.shape}")
        closed = transitive_closure(rel)
        if closed.diagonal().any():
            raise CycleError("relation contains a directed cycle")
        closed.setflags(write=False)
        self.n: int = int(closed.shape[0])
        self.rel: np.ndarray = closed

    def less(self, i: int, j: int) -> bool:
        return bool(self.rel[i, j])

    def pairs(self) -> list[tuple[int, int]]:
        """All strict pairs (i, j) with i < j in the order, 0-based."""
        rows, cols = np.nonzero(self.rel)
        return list(zip(rows.tolist(), cols.tolist()))

    @cached_property
    def covers(self) -> np.ndarray:
        """Cover relation (Hasse diagram): i <: j with nothing in between."""
        f = self.rel.astype(np.float32)  # through BLAS, as in transitive_closure
        out = self.rel & ~((f @ f) > 0)
        out.setflags(write=False)
        return out

    @cached_property
    def pred_masks(self) -> tuple[int, ...]:
        """Bitmask of strict predecessors for each element."""
        return _row_masks(self.rel.T)

    @cached_property
    def succ_masks(self) -> tuple[int, ...]:
        """Bitmask of strict successors for each element."""
        return _row_masks(self.rel)

    @cached_property
    def lattice(self) -> tuple[IdealLayer, ...]:
        """The ideals (down-sets) of P, a plain tuple of one `IdealLayer` per
        size 0..n: the one place that decides which elements extend an ideal.

        Filled from the full set down: D ^ e is an ideal iff e is maximal in
        ideal D, D & (succ(e) | e) == e.  The pairs (e, D) are listed by
        element, so sorting D ^ e stably groups them into edges D ^ e -> D
        by increasing element; c(D ^ e) sums c(D) over them.  Masks are
        int64 below 63 elements and counts up to 20 (N <= 20! < 2**63), else
        Python ints.  There can be 2**n ideals: callers cap n first.
        """
        n = self.n
        mask_type = np.int64 if n < 63 else object
        bits = np.array([1 << e for e in range(n)], dtype=mask_type)
        need = (np.array(self.succ_masks, dtype=mask_type) | bits)[:, None]
        elem_type = np.min_scalar_type(n)
        masks = np.array([(1 << n) - 1], dtype=mask_type)
        counts = np.ones(1, dtype=np.int64 if n <= 20 else object)
        layers = [IdealLayer(masks, counts, np.zeros(1, np.int32), np.zeros(0, elem_type),
                             np.zeros(0, np.int32))]
        for _ in range(n):
            index = np.int32 if n * len(masks) < 2**31 else np.int64
            # (element, ideal) pairs by element; blocks keep temporaries near 2**20 masks
            step = max(1, (1 << 20) // len(masks))
            elems, dsts = [], []
            for lo in range(0, n, step):
                e, d = ((masks & need[lo : lo + step]) == bits[lo : lo + step, None]).nonzero()
                elems.append(np.add(e, lo, dtype=elem_type, casting="unsafe"))
                dsts.append(d.astype(index))
            elem, dst = np.concatenate(elems), np.concatenate(dsts)
            del elems, dsts
            lower = masks[dst]
            lower ^= bits[elem]
            order = lower.argsort(kind="stable")
            lower.sort()  # the values of lower[order], with no second copy
            elem, dst = elem[order], dst[order]
            del order
            start = np.concatenate(([True], lower[1:] != lower[:-1], [True])).nonzero()[0]
            masks, counts = lower[start[:-1]], np.add.reduceat(counts[dst], start[:-1])
            layers.append(IdealLayer(masks, counts, start.astype(index), elem, dst))
        for a in itertools.chain.from_iterable(layers):
            a.setflags(write=False)
        return tuple(reversed(layers))

    def predecessors(self, i: int) -> list[int]:
        return np.nonzero(self.rel[:, i])[0].tolist()

    def minimal_elements(self) -> list[int]:
        return (~self.rel.any(axis=0)).nonzero()[0].tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.rel, other.rel))

    def __hash__(self) -> int:
        return hash((self.n, self.rel.tobytes()))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, pairs={self.pairs()})"


def build_poset(n: int, relations: Iterable[tuple[int, int]]) -> Poset:
    """The poset of 1-based pairs ``(i, j)`` meaning i < j, closed by `Poset`.

    Raises IndexError for labels outside 1..n and, from `Poset`, CycleError
    when the pairs contain a cycle (a pair (i, i) included).
    """
    if n < 1:
        raise ValueError(f"element count must be positive, got {n}")
    rel = np.zeros((n, n), dtype=bool)
    for i, j in relations:
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"element pair ({i}, {j}) out of range 1..{n}")
        rel[i - 1, j - 1] = True
    return Poset(rel)


def relabel(P: Poset, perm: Sequence[int]) -> Poset:
    """Rename element i to perm[i]; perm must be a 0-based permutation."""
    if sorted(perm) != list(range(P.n)):
        raise ValueError("perm is not a permutation of 0..n-1")
    idx = np.asarray(perm)
    rel = np.zeros_like(P.rel)
    rel[np.ix_(idx, idx)] = P.rel
    return Poset(rel)


def extends(Q: Poset, P: Poset) -> bool:
    """True iff Q refines P, i.e. every relation of P also holds in Q."""
    if Q.n != P.n:
        raise SizeMismatchError(f"ground sets differ: {Q.n} != {P.n}")
    return not (P.rel & ~Q.rel).any()


def count_maximal_chains(P: Poset) -> int:
    """Number of maximal chains (source-to-sink paths of the cover
    relation), counted in Python ints from the sinks down."""
    return _cover_paths(P)[0]


def _cover_paths(P: Poset) -> tuple[int, list[int], list[int], list[list[int]]]:
    """`count_maximal_chains`, with the sources, the order from the sinks
    down and the increasing cover list of each element that it walks."""
    succ_lists = [row.nonzero()[0].tolist() for row in P.covers]
    # An element has strictly more successors than any element above it.
    order = np.argsort(P.rel.sum(axis=1), kind="stable").tolist()
    paths = [0] * P.n
    for i in order:
        paths[i] = sum(paths[j] for j in succ_lists[i]) or 1  # a sink ends one path
    sources = P.minimal_elements()
    return sum(paths[i] for i in sources), sources, order, succ_lists


def maximal_chains(P: Poset) -> list[tuple[int, ...]]:
    """All inclusion-maximal chains, as tuples of elements in increasing order.

    Every maximal chain is a source-to-sink path of the cover relation, so
    the count's recurrence, run over the same cover lists, builds each one
    once: the paths up from an element are that element followed by the
    paths up from each of its covers in turn, in depth-first order.
    Isolated elements yield singleton chains.  The count is exponential in
    the worst case, so it is taken first and more than MAX_CHAINS raises
    LimitExceededError.
    """
    total, sources, order, succ_lists = _cover_paths(P)
    if total > MAX_CHAINS:
        raise LimitExceededError(f"{total} maximal chains exceed the chain cap {MAX_CHAINS}")
    up: list[list[tuple[int, ...]]] = [[] for _ in range(P.n)]
    for i in order:
        up[i] = [(i, *path) for j in succ_lists[i] for path in up[j]] or [(i,)]
    return [path for s in sources for path in up[s]]


_QUAD_PAIRS = [(p, q) for p in range(4) for q in range(4) if p != q]


def _pattern_codes() -> frozenset[int]:
    # 12-bit codes (bit t for the ordered pair _QUAD_PAIRS[t] among 4
    # elements) of every labeling of the 4-element poset {a<b, c<b, c<d}.
    base = {(0, 1), (2, 1), (2, 3)}
    return frozenset(sum(1 << _QUAD_PAIRS.index((perm[p], perm[q])) for p, q in base)
                     for perm in itertools.permutations(range(4)))


_N_CODES = _pattern_codes()
_IS_N_CODE = np.zeros(1 << 12, dtype=bool)  # indexed by a 12-bit code
_IS_N_CODE[sorted(_N_CODES)] = True
_CODE_BITS = 1 << np.arange(12, dtype=np.intp)


@lru_cache(maxsize=16)
def _quad_index(n: int) -> np.ndarray:
    """(C(n,4), 12) flat indices into an n x n relation: row t holds the
    ordered pairs of the t-th 4-subset in the bit order of `_N_CODES`."""
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp)
    p, q = np.array(_QUAD_PAIRS).T
    index = quads[:, p] * n + quads[:, q]
    index.setflags(write=False)
    return index


def count_induced_N(P: Poset) -> int:
    """Number of 4-subsets inducing the N-shaped poset {a<b, c<b, c<d}.

    Series-parallel posets are exactly the posets with none; the k-fold
    chain blowup of N has k**4 of them.
    """
    n = P.n
    if n < 4:
        return 0
    codes = P.rel.ravel()[_quad_index(n)] @ _CODE_BITS
    return int(np.count_nonzero(_IS_N_CODE[codes]))


def poset_to_text(P: Poset) -> str:
    """Serialize in the .poset text format (1-based, transitive reduction)."""
    lines = [str(P.n)]
    rows, cols = np.nonzero(P.covers)
    for i, j in sorted(zip(rows.tolist(), cols.tolist())):
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def parse_poset_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse the .poset text format into (n, 1-based pairs) without building
    the relation, so a caller can check n first.

    Lines starting with '#' are comments; the first significant line is n;
    each further line is '<i> <j>' (1-based) meaning i < j.
    """
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ValueError(f"line {lineno}: expected the element count, got {line!r}")
            n = int(fields[0])
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {line!r}")
        i, j = int(fields[0]), int(fields[1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"line {lineno}: element pair ({i}, {j}) out of range 1..{n}")
        pairs.append((i, j))
    if n is None:
        raise ValueError("empty poset file: missing element count")
    return n, pairs


def poset_from_text(text: str) -> Poset:
    """Parse and build a poset from the .poset text format."""
    return build_poset(*parse_poset_text(text))


def read_poset(path) -> Poset:
    with open(path, "r", encoding="ascii") as fh:
        return poset_from_text(fh.read())


def write_poset(P: Poset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(poset_to_text(P))
