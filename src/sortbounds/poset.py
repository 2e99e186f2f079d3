"""Finite strict partial orders on the ground set {0, ..., n-1}.

``Poset(rel)`` takes any acyclic relation on 1 <= n <= `MAX_N` = 20
elements and stores its transitive closure, strict; the reflexive pairs of
the textbook convention are implicit.  Elements are 0-based throughout the
Python API.  The text format and :func:`build_poset` accept 1-based labels,
so conversion happens only at that boundary.

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

# Every poset has at most MAX_N elements, so the ideal table holds at most
# 2**20 ideals and, by Moon and Moser (1965), there are at most
# 2 * 3**6 = 1458 maximal chains.
MAX_N = 20


def check_size(n: int) -> None:
    """The one size check: n > MAX_N raises LimitExceededError.  `Poset`,
    `build_poset`, `spexpr.realize`, `spexpr.n_poset` and
    `families.random_poset` call it before they allocate an n x n relation."""
    if n > MAX_N:
        raise LimitExceededError(f"n={n} exceeds the size cap {MAX_N}")


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
    """Each row of a boolean matrix as a bitmask, bit j for column j (int64:
    n <= MAX_N)."""
    return tuple((rel @ (1 << np.arange(len(rel), dtype=np.int64))).tolist())


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
    """Immutable strict partial order: the closure of a relation, 1 <= n <= 20.

    ``rel[i, j]`` is true iff ``i < j`` in the order.  The constructor raises
    ValueError when rel is not a non-empty square matrix, LimitExceededError
    when it has more than MAX_N rows (before it converts rel), and
    CycleError when rel has a cycle (a loop or a mutual pair included).
    """

    def __init__(self, rel: np.ndarray):
        shape = np.shape(rel)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
            raise ValueError(f"relation must be a non-empty square matrix, got shape {shape}")
        check_size(shape[0])
        closed = transitive_closure(np.asarray(rel, dtype=bool))
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
        by increasing element; c(D ^ e) sums c(D) over them.  As n <= MAX_N,
        masks and counts are int64 (N <= 20! < 2**63) and edge indices int32
        (n * C(20, 10) < 2**31).
        """
        n = self.n
        bits = np.array([1 << e for e in range(n)], dtype=np.int64)
        need = (np.array(self.succ_masks, dtype=np.int64) | bits)[:, None]
        masks, counts = np.array([(1 << n) - 1], dtype=np.int64), np.ones(1, dtype=np.int64)
        layers = [IdealLayer(masks, counts, np.zeros(1, np.int32), np.zeros(0, np.uint8),
                             np.zeros(0, np.int32))]
        for _ in range(n):
            # (element, ideal) pairs by element; blocks keep temporaries near 2**20 masks
            step = max(1, (1 << 20) // len(masks))
            elems, dsts = [], []
            for lo in range(0, n, step):
                e, d = ((masks & need[lo : lo + step]) == bits[lo : lo + step, None]).nonzero()
                elems.append(np.add(e, lo, dtype=np.uint8, casting="unsafe"))
                dsts.append(d.astype(np.int32))
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
            layers.append(IdealLayer(masks, counts, start.astype(np.int32), elem, dst))
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

    Raises LimitExceededError for n > MAX_N, before the relation is
    allocated, IndexError for labels outside 1..n and, from `Poset`,
    CycleError when the pairs contain a cycle (a pair (i, i) included).
    """
    if n < 1:
        raise ValueError(f"element count must be positive, got {n}")
    check_size(n)
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


def maximal_chains(P: Poset) -> list[tuple[int, ...]]:
    """All inclusion-maximal chains, as tuples of elements in increasing order.

    Every maximal chain is a source-to-sink path of the cover relation, so
    walking the increasing cover lists from the sinks down builds each one
    once: the paths up from an element are that element followed by the
    paths up from each of its covers in turn, in depth-first order.
    Isolated elements yield singleton chains.  At n <= MAX_N there are at
    most 1458 of them (Moon and Moser).
    """
    succ_lists = [row.nonzero()[0].tolist() for row in P.covers]
    up: list[list[tuple[int, ...]]] = [[] for _ in range(P.n)]
    # An element has strictly more successors than any element above it.
    for i in np.argsort(P.rel.sum(axis=1), kind="stable").tolist():
        up[i] = [(i, *path) for j in succ_lists[i] for path in up[j]] or [(i,)]
    return [path for s in P.minimal_elements() for path in up[s]]


_QUAD_PAIRS = list(itertools.combinations(range(4), 2))  # bit t of a code: pair t
_CODE_BITS = np.array([1 << t for t in range(6)], dtype=np.uint8)  # wider would cast the gather

# A 4-subset induces N iff its comparability graph is the path w-x-y-z: on
# that path transitivity forbids two edges in a row pointing the same way
# (w < x < y would make w, y comparable), so the order is w < x > y < z or
# its reverse, which is {a<b, c<b, c<d} up to labels; the converse is
# immediate.  The 12 path codes are the 3-edge graphs of degrees 1, 1, 2, 2;
# a degree is the code's bits in the star of pairs at one element.
_STARS = [sum(1 << t for t, pair in enumerate(_QUAD_PAIRS) if v in pair) for v in range(4)]
_IS_PATH = np.array([sorted((code & star).bit_count() for star in _STARS) == [1, 1, 2, 2]
                     for code in range(64)])


@lru_cache(maxsize=MAX_N)
def _quad_index(n: int) -> np.ndarray:
    """(C(n,4), 6) flat indices into an n x n relation: row t holds the
    unordered pairs of the t-th 4-subset (lex order) in the bit order of
    `_QUAD_PAIRS`; at n <= MAX_N, at most C(20, 4) = 4845 rows."""
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4)
    p, q = np.array(_QUAD_PAIRS).T
    index = quads[:, p] * n + quads[:, q]
    index.setflags(write=False)
    return index


def count_induced_N(P: Poset) -> int:
    """Number of 4-subsets inducing the N-shaped poset {a<b, c<b, c<d}.

    Series-parallel posets are exactly the posets with none; the k-fold
    chain blowup of N has k**4 of them.
    """
    codes = (P.rel | P.rel.T).ravel()[_quad_index(P.n)].view(np.uint8) @ _CODE_BITS
    return int(np.count_nonzero(_IS_PATH[codes]))


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
        if len(fields) != (1 if n is None else 2):
            want = "the element count" if n is None else "'i j'"
            raise ValueError(f"line {lineno}: expected {want}, got {line!r}")
        try:
            values = [int(field) for field in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if n is None:
            n = values[0]
            continue
        i, j = values
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
