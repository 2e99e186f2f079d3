"""Finite strict partial orders on the ground set {0, ..., n-1}.

``Poset(rel)`` takes any acyclic relation on n >= 1 elements and stores its
transitive closure, strict; the reflexive pairs of the textbook convention
are implicit.  Elements are 0-based throughout the Python API.  The text
format and :func:`build_poset` accept 1-based labels, so conversion happens
only at that boundary.

A ``Poset`` is immutable after construction and safe to share across workers.
Its only caches are the declared cached properties below: the cover
relation, the predecessor and successor bitmasks (bit i is element i) and
``lattice``, the table of ideals that counting, enumeration, sampling and
the exact QLB read.  Each is built on first use and never mutated afterwards.
"""
from __future__ import annotations

import itertools
from functools import cached_property
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


class IdealLattice(tuple):
    """`Poset.lattice`: the `IdealLayer` of each size 0..n."""

    @cached_property
    def walk(self) -> tuple[tuple[memoryview, ...], ...]:
        """(start, before, elem, dst) per layer as memoryviews for `sample_order`:
        before[k] sums c over the ends of edges before k, at most N (n <= 20)."""
        return tuple(tuple(map(memoryview, (
            a.start, np.concatenate(([0], np.cumsum(b.counts[a.dst]))), a.elem, a.dst)))
            for a, b in zip(self, self[1:]))


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
    def lattice(self) -> "IdealLattice":
        """The ideals (down-sets) of P, one `IdealLayer` per size 0..n: the
        one place that decides which elements extend an ideal.

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
        return IdealLattice(reversed(layers))

    def predecessors(self, i: int) -> list[int]:
        return np.nonzero(self.rel[:, i])[0].tolist()

    def minimal_elements(self) -> list[int]:
        return [i for i in range(self.n) if not self.rel[:, i].any()]

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
    covers = P.covers
    paths = [0] * P.n
    # An element has strictly more successors than any element above it.
    for i in np.argsort(P.rel.sum(axis=1), kind="stable").tolist():
        succs = np.nonzero(covers[i])[0].tolist()
        paths[i] = sum(paths[j] for j in succs) if succs else 1
    return sum(paths[i] for i in P.minimal_elements())


def maximal_chains(P: Poset) -> list[tuple[int, ...]]:
    """All inclusion-maximal chains, as tuples of elements in increasing order.

    Every maximal chain is a source-to-sink path of the cover relation, so a
    DFS over the Hasse diagram enumerates each exactly once.  Isolated
    elements yield singleton chains.  The count is exponential in the
    worst case, so it is taken first and more than MAX_CHAINS raises
    LimitExceededError.
    """
    total = count_maximal_chains(P)
    if total > MAX_CHAINS:
        raise LimitExceededError(f"{total} maximal chains exceed the chain cap {MAX_CHAINS}")
    covers = P.covers
    succ_lists = [np.nonzero(covers[i])[0].tolist() for i in range(P.n)]
    chains: list[tuple[int, ...]] = []
    path: list[int] = []
    # (depth, element) pairs; successors pushed in reverse pop in order
    stack = [(0, s) for s in reversed(P.minimal_elements())]
    while stack:
        depth, v = stack.pop()
        del path[depth:]
        path.append(v)
        succs = succ_lists[v]
        if succs:
            stack.extend((depth + 1, s) for s in reversed(succs))
        else:
            chains.append(tuple(path))
    return chains


def _pattern_codes() -> frozenset[int]:
    # 12-bit codes (one bit per ordered pair among 4 elements) of every
    # labeling of the 4-element poset with relation {a<b, c<b, c<d}.
    base = {(0, 1), (2, 1), (2, 3)}
    pair_index = {
        (p, q): t for t, (p, q) in enumerate((p, q) for p in range(4) for q in range(4) if p != q)
    }
    codes = set()
    for perm in itertools.permutations(range(4)):
        code = 0
        for (p, q) in base:
            code |= 1 << pair_index[(perm[p], perm[q])]
        codes.add(code)
    return frozenset(codes)


_N_CODES = _pattern_codes()
_QUAD_PAIRS = [(p, q) for p in range(4) for q in range(4) if p != q]


def count_induced_N(P: Poset) -> int:
    """Number of 4-subsets inducing the N-shaped poset {a<b, c<b, c<d}.

    Series-parallel posets are exactly the posets with none; the k-fold
    chain blowup of N has k**4 of them.
    """
    n = P.n
    if n < 4:
        return 0
    quads = np.array(list(itertools.combinations(range(n), 4)))
    bits = np.empty((len(quads), 12), dtype=np.int64)
    for t, (p, q) in enumerate(_QUAD_PAIRS):
        bits[:, t] = P.rel[quads[:, p], quads[:, q]]
    codes = bits @ (1 << np.arange(12, dtype=np.int64))
    return int(np.isin(codes, np.fromiter(_N_CODES, dtype=np.int64)).sum())


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
