"""Quantum-side quantities: predecessor-gap ranks, the harmonic lower bound,
its compositional recurrences, and adversary matrices with spectral-norm
certificates.

For an extension with ranks sigma, the gap of element i is

    d_i = sigma(i)                         if i is minimal,
    d_i = sigma(i) - max_{j < i} sigma(j)  otherwise,

and the quantum lower bound is QLB(P) = E_sigma[ sum_i H_{d_i - 1} ], the
average taken uniformly over all extensions and H_q the q-th harmonic
number.  QLB(P) = n (H_n - QH(P)) holds exactly, where QH averages
-(1/n) sum ln z_i over the uniform distribution on the chain polytope.

The adversary matrix puts weight 1/d on every pair of extensions that differ
by one element moving d ranks down past incomparable elements; masking it by
the outcome of a single comparison can never push the spectral norm past
2*pi, which is what turns QLB into a query lower bound.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
# at module top: `analyze` reaches eigsh on lattice inputs too (a 1,024-vertex
# component), where an import inside the op costs about 0.2 s, and csgraph
# splits every matrix `norm_bracket` brackets
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from .errors import DomainError, LimitExceededError, NotAnExtensionError
from .linext import (
    ENUM_CAP,
    LinearExtension,
    count_extensions,
    count_extensions_sp,
    extension_orders,
    is_extension,
    ln_count,
)
from .orderstats import harmonic, harmonic_table
from .polytopes import EntropySolution, chain_point_batch, entropy, transfer_batch
from .poset import MAX_N, Poset
from .spexpr import Block, NBlock, Parallel, Series, SPExpr, nodes, sp_decomposition

MATRIX_CAP = 4000

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Gap vectors and the exact lower bound
# ---------------------------------------------------------------------------

def d_vector(P: Poset, ext: LinearExtension) -> tuple[int, ...]:
    """Predecessor-gap vector of an extension; raises NotAnExtension."""
    if not is_extension(P, ext):
        raise NotAnExtensionError(f"{ext.rank} is not an extension of the poset")
    return tuple(transfer_batch(P, np.array([ext.rank]))[0].tolist())


def qlb_fraction(P: Poset) -> Fraction:
    """Exact rational QLB from a DP over the lattice of ideals of P; raises
    LimitExceededError when P has more than ENUM_CAP extensions.

    The prefixes of the extensions are the paths up `Poset.lattice`, one
    element placed per edge D -> D | e; the table holds c(D), the
    completions of D, and f(D), the prefixes reaching D, is filled forward.
    H_k(D, i) counts the completions of D in which i, whose predecessors are
    in D and which is not, follows k more elements; filled backward, it is
    c(D | i) at k = 0 and the sum of H_{k-1}(D | e, i) over the edges of D at
    k > 0.  Element i is available for d_i steps; at each but its own, with
    k elements still to come before it, it adds 1/k, and those terms sum to
    H_{d_i - 1}.  So N QLB = sum_D f(D) sum_i sum_{k>=1} H_k(D, i) / k,
    added one layer of sizes at a time over L = lcm(1..n-1).

    In int64 every entry is a count of (prefixes of) extensions, at most
    N <= 20! < 2**63.  A layer's sum at one k counts (extension, element)
    pairs, one element per extension, so it is at most N too; summed over
    the layers it reaches n N, so the layers are added in Python ints.
    """
    num = count_extensions(P)  # the table caps n at 20, so every count fits in int64
    if num > ENUM_CAP:
        raise LimitExceededError(f"{num} extensions exceed the enumeration cap {ENUM_CAP}")
    n, lattice = P.n, P.lattice
    L = math.lcm(*range(1, n))
    f, deg = [np.ones(1, dtype=np.int64)], [layer.start[1:] - layer.start[:-1] for layer in lattice]
    for layer, up, d in zip(lattice, lattice[1:], deg):
        reach = np.zeros(len(up.masks), dtype=np.int64)
        np.add.at(reach, layer.dst, f[-1].repeat(d))
        f.append(reach)
    H = np.zeros((1, n, 0), dtype=np.int64)
    total = 0
    for s in range(n - 1, -1, -1):
        layer, up, d = lattice[s], lattice[s + 1], deg[s]
        ahead = H[layer.dst]
        ahead[P.rel[layer.elem]] = 0  # i above the placed e is not available at D
        H = np.zeros((len(d), n, n - s), dtype=np.int64)
        H[:, :, 1:] = np.add.reduceat(ahead, layer.start[:-1])
        H[np.arange(len(d)).repeat(d), layer.elem, 0] = up.counts[layer.dst]
        pairs = (f[s] @ H[:, :, 1:].sum(axis=1)).tolist()  # for k = 1, 2, ...
        total += sum(t * (L // k) for k, t in enumerate(pairs, 1))
    return Fraction(total, L * num)


def qh_fraction(P: Poset) -> Fraction:
    """Exact QH via the identity QLB = n (H_n - QH)."""
    return harmonic(P.n) - qlb_fraction(P) / P.n


def qh_mc(P: Poset, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo QH: mean of -(1/n) sum ln z_i over uniform chain-polytope
    points; returns (estimate, stderr).  Rows with a zero coordinate (a
    measure-zero tie) are redrawn."""
    if samples < 2:
        raise DomainError(f"need at least 2 samples for a standard error, got {samples}")
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    filled = 0
    while filled < samples:
        want = samples - filled
        Z = chain_point_batch(P, want, rng)
        good = np.asfortranarray(Z > 0.0).all(axis=1)  # by column: a row-wise reduce pays a call a row
        got = int(good.sum())
        vals[filled : filled + got] = -np.log(Z[good]).mean(axis=1)
        filled += got
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------------------------
# Series-parallel recurrences
# ---------------------------------------------------------------------------

def qlb_sp_fraction(e: SPExpr) -> Fraction:
    """Exact QLB of an SP expression, summed over its `nodes`.

    Series adds the parts, so a Series node adds nothing; a Parallel node
    adds the harmonic merge cost n H_n - sum_c n_c H_{n_c} of its children
    (the binary n H_n - n1 H_{n1} - n2 H_{n2} summed over a left fold).  Each
    Block and NBlock leaf adds the ideal DP of `qlb_fraction`, which refuses
    a leaf of more than ENUM_CAP extensions.
    """
    total = Fraction(0)
    for node in nodes(e):
        if isinstance(node, (Block, NBlock)):
            total += qlb_fraction(node.poset)
        elif isinstance(node, Parallel):
            total += node.size * harmonic(node.size)
            total -= sum(c.size * harmonic(c.size) for c in node.children)
    return total


def _ln(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


class EntropyFold(NamedTuple):
    H: float
    lb: float
    top: Fraction  # n**n / R, the exact part of LB
    leaves: list[EntropySolution]


def entropy_sp(e: SPExpr) -> EntropyFold:
    """H(P) and LB of an SP expression, folded over its `nodes` by the
    graph-entropy rules of Kahn and Kim (1995).

    A parallel composition is a product of chain polytopes, so a Parallel
    node adds nothing to n H; a Series node of size m is a join, split at
    alpha_c = n_c / m, and multiplies the rational R by prod_c (m / n_c)**n_c;
    each Block and NBlock leaf adds n_b H_b, H_b from `entropy(node.poset)`,
    the only interior-point solves (and chain lists).  So
    n H = ln R + sum_b n_b H_b and LB = ln(top) - sum_b n_b H_b for
    top = n**n / R, clamped at 0; each log of a Fraction is taken from its
    numerator and denominator, so an antichain has H = 0.0 and a chain
    LB = 0.0 exactly.  The fold also returns top and the solved leaves, from
    which `certify_sandwich` decides the sandwich.
    """
    R, leaves = Fraction(1), []
    for node in nodes(e):
        if isinstance(node, (Block, NBlock)):
            leaves.append(entropy(node.poset))
        elif isinstance(node, Series):
            R *= Fraction(node.size**node.size, math.prod(c.size**c.size for c in node.children))
    n = e.size
    spent = sum(len(sol.z_star) * sol.H for sol in leaves)
    top = n**n / R
    return EntropyFold(H=(_ln(R) + spent) / n, lb=max(0.0, _ln(top) - spent),
                       top=top, leaves=leaves)


def lb(P: Poset) -> float:
    """The entropy bound LB of P, as `analyze` reports it: read off the fold
    of its series-parallel decomposition, so it needs no extension count."""
    return entropy_sp(sp_decomposition(P)[0]).lb


def certify_sandwich(num: int, top: Fraction, leaves: Sequence[EntropySolution]) -> bool:
    """ITLB <= LB <= 2 ITLB, for ITLB = ln num and LB = ln(top) - sum_b n_b H_b
    over the solved leaves, decided exactly: each leaf's `bracket`
    lo_b <= e^(-n_b H_b) <= hi_b makes the sides num <= top prod lo_b and
    top prod hi_b <= num**2, so with no leaf it is num <= top <= num**2.
    """
    lo = math.prod(sol.bracket[0] for sol in leaves)
    hi = math.prod(sol.bracket[1] for sol in leaves)
    return num <= top * lo and top * hi <= num * num


@dataclass(frozen=True)
class NkBounds:
    """Bracketing bounds for the k-fold chain blowup of the N poset."""

    itlb_lo: float  # ln C(2k, k)
    itlb_hi: float  # ln C(4k, 2k)
    qlb_lo: float   # 2 (2k H_{2k} - 2k H_k)


def nk_bounds(k: int) -> NkBounds:
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    qlb_lo = 2 * (2 * k * harmonic(2 * k) - 2 * k * harmonic(k))
    return NkBounds(
        itlb_lo=math.log(math.comb(2 * k, k)),
        itlb_hi=math.log(math.comb(4 * k, 2 * k)),
        qlb_lo=float(qlb_lo),
    )


@dataclass(frozen=True)
class TechConstant:
    """Minimum over 1 <= n1 <= n2 <= max_n of the merge-cost ratio

        ((n1+n2) H_{n1+n2} - n1 H_{n1} - n2 H_{n2}) / ln C(n1+n2, n1).
    """

    c_min: float
    argmin: tuple[int, int]
    c_min_numerator: Fraction  # exact merge cost at the argmin
    table: np.ndarray          # read-only rows (n1, n2, ratio) in scan order


TECH_MAX_N = 1000  # the scan's table has about max_n**2 / 2 rows


@lru_cache(maxsize=8)
def tech_constant(max_n: int) -> TechConstant:
    """Exhaustive exact-rational scan of the merge-cost ratio, with its
    (cached, so read-only) table.

    The numerator is evaluated in exact integer arithmetic over the common
    denominator lcm(1..2*max_n) of `harmonic_table(2 * max_n)` and rounded
    once, by Python's correctly rounded integer true division; only the
    division by the (irrational) log binomial is floating point.
    """
    if not 2 <= max_n <= TECH_MAX_N:
        raise DomainError(f"max_n must be in 2..{TECH_MAX_N}, got {max_n}")
    den, LH = harmonic_table(2 * max_n)
    acc = [q * h for q, h in enumerate(LH)]  # acc[q] = q * H_q * den, exactly
    best = math.inf
    best_arg = (0, 0)
    best_num = 0
    # filled in place: a list of row tuples would hold about 4x the table
    table = np.empty((max_n * (max_n + 1) // 2, 3))
    t = 0
    for n1 in range(1, max_n + 1):
        binom = math.comb(2 * n1, n1)  # C(n1 + n2, n1), carried along the row
        for n2 in range(n1, max_n + 1):
            merge_scaled = acc[n1 + n2] - acc[n1] - acc[n2]
            ratio = merge_scaled / den / math.log(binom)
            table[t] = n1, n2, ratio
            t += 1
            if ratio < best:
                best, best_arg, best_num = ratio, (n1, n2), merge_scaled
            binom = binom * (n1 + n2 + 1) // (n2 + 1)
    table.setflags(write=False)
    return TechConstant(
        c_min=best,
        argmin=best_arg,
        c_min_numerator=Fraction(best_num, den),
        table=table,
    )


# ---------------------------------------------------------------------------
# Adversary matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversaryMatrix:
    """Sparse symmetric nonnegative matrix on extension pairs.

    Rows/columns follow the lexicographic enumeration order of extensions.
    Both orientations of every nonzero are stored, each as its integer step
    d (weight 1/d), so `to_csr` and `to_dense` each build the whole symmetric
    matrix in one pass over the entries, and `uniform_rayleigh` sums 1'Gamma 1
    straight off `steps`.
    """

    rows: np.ndarray
    cols: np.ndarray
    steps: np.ndarray  # int64 step d of each stored entry
    ranks: np.ndarray  # (dim, n) rank matrix of the indexing extensions

    @property
    def dim(self) -> int:
        return len(self.ranks)

    @property
    def vals(self) -> np.ndarray:
        return 1.0 / self.steps

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def to_csr(self) -> sparse.csr_matrix:
        return sparse.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim)
        ).tocsr()


def build_adversary(P: Poset) -> AdversaryMatrix:
    """Adversary matrix: weight 1/d between an extension and the one obtained
    by moving an element d ranks down.

    A down-move of element i by d keeps the sequence an extension exactly
    when d <= d_i - 1: the passed elements rank above every predecessor of i
    and below i itself, hence are incomparable to i.  Both (sigma, tau) and
    (tau, sigma) are set to 1/d.  The moves are listed row-major over
    (extension, element), then by d, and their targets found by key; an
    adjacent swap (d = 1), the one move that arises twice (once from each
    endpoint), is kept from the endpoint listed first.

    An extension's key is its inversion table by label in the factorial
    number system, key(sigma) = sum_e c_e e!, where c_e <= e counts the
    smaller labels that sigma places after e: a bijection onto 0..n!-1.
    Moving i down past f flips only the pair (i, f), adding i! if f < i and
    subtracting f! if f > i, so a target's key is its source's plus a
    running sum over the moves of one (sigma, i).  The sums wrap in int64,
    exactly modulo 2**64, so each key, below n! <= 20! < 2**63 (every
    `Poset` has n <= MAX_N = 20), is exact.
    """
    num = count_extensions(P)
    if num > MATRIX_CAP:
        raise LimitExceededError(f"{num} extensions exceed the matrix cap {MATRIX_CAP}")
    orders = extension_orders(P)
    n = P.n
    ranks = orders.argsort(axis=1) + 1  # ranks[s, i]: 1-based rank of element i in row s
    steps = transfer_batch(P, ranks).ravel() - 1  # the moves of each (s, i)
    move = np.repeat(np.arange(len(steps)), steps)
    first = np.repeat(np.cumsum(steps) - steps, steps)  # the first move of each move's (s, i)
    dd = np.arange(len(move)) - first + 1
    src, elem = np.divmod(move, n)
    f = np.array([math.factorial(e) for e in range(n)], dtype=np.int64)
    r = ranks.astype(np.int16)  # ranks <= 20; narrow compares run faster
    keys = np.stack([(r[:, :e] > r[:, e, None]).sum(axis=1) for e in range(n)], axis=1) @ f
    passed = orders.ravel()[src * n + ranks.ravel()[move] - 1 - dd]
    flip = np.where(passed < elem, f[elem], -f[passed])
    shift = np.cumsum(flip)
    shift -= (shift - flip)[first]  # restart the running sum at each (s, i)
    order = keys.argsort()
    tgt = order[np.searchsorted(keys[order], keys[src] + shift)]
    keep = (dd > 1) | (src < tgt)
    src, tgt, dd = src[keep], tgt[keep], dd[keep]
    return AdversaryMatrix(
        rows=np.stack([src, tgt], axis=1).ravel(),
        cols=np.stack([tgt, src], axis=1).ravel(),
        steps=np.repeat(dd, 2),
        ranks=ranks,
    )


DENSE_MAX = 128  # larger components go to ARPACK, not the batched dense eigh


def _bracket(x: np.ndarray, y: np.ndarray, size: int) -> tuple[float, float]:
    """Widened (max Rayleigh quotient, max Collatz-Wielandt ratio) of rows x > 0, y = Ax."""
    slack = (size + 8) * math.ulp(1.0)  # eps
    return (float(((x * y).sum(axis=-1) / (x * x).sum(axis=-1)).max()) * (1.0 - slack),
            float((y / x).max()) * (1.0 + slack))


def norm_bracket(M: AdversaryMatrix | np.ndarray | sparse.spmatrix) -> tuple[float, float]:
    """Certified bracket lo <= ||M||_2 <= hi of a nonnegative symmetric
    matrix; raises DomainError on any other input.

    ||M||_2 is the largest Perron root over the connected components.  On a
    component of size s with approximate Perron vector x (|x|, floored at
    the smallest positive float), lo is the Rayleigh quotient x'Ax / x'x
    and hi = max_i (Ax)_i / x_i (Collatz-Wielandt), both widened outward by
    a relative (s + 8) eps, more than the rounding of the matvec (at most s
    terms a row) and of the quotient's two pairwise sums.  x comes from one
    batched dense eigh per component size up to DENSE_MAX, and from ARPACK
    (eigsh, started from the all-ones vector so reruns agree) above it.
    """
    if isinstance(M, AdversaryMatrix):
        A = M.to_csr()
    elif np.ndim(M) != 2 or np.iscomplexobj(M):
        raise DomainError(f"matrix must be real and 2-D, got a {np.ndim(M)}-D {np.result_type(M)}")
    else:  # a copy, so a CSR M's own arrays stay as they were
        A = sparse.csr_matrix(M, dtype=float, copy=True)
    A.sum_duplicates()  # sorted and summed, so a symmetric A equals its transpose array by array
    A.eliminate_zeros()
    if not (np.isfinite(A.data).all() and (A.data > 0).all()):
        raise DomainError("matrix entries must be finite and nonnegative")
    T = A.T.tocsr()
    if A.shape != T.shape or not (np.array_equal(A.indptr, T.indptr)
                                  and np.array_equal(A.indices, T.indices)
                                  and np.array_equal(A.data, T.data)):
        raise DomainError(f"matrix of shape {A.shape} is not square and symmetric")
    if A.nnz == 0:
        return 0.0, 0.0
    # A is symmetric, so its strong components are its connected components,
    # found with no transpose
    labels = connected_components(A, directed=True, connection="strong")[1]
    sizes = np.bincount(labels)
    brackets = [(0.0, 0.0)]
    for c in np.flatnonzero(sizes > DENSE_MAX).tolist():
        size = int(sizes[c])
        block = A if size == A.shape[0] else A[labels == c][:, labels == c]
        vec = eigsh(block, k=1, which="LA", v0=np.ones(size))[1][:, 0]
        x = np.maximum(np.abs(vec), np.finfo(float).tiny)
        brackets.append(_bracket(x, block @ x, size))
    if sizes.min() <= DENSE_MAX:
        # a vertex's position in its component: its rank by label minus the earlier sizes
        pos = np.argsort(np.argsort(labels, kind="stable")) - (np.cumsum(sizes) - sizes)[labels]
        coo = A.tocoo()
        comp = labels[coo.row]
        for size in np.unique(sizes[comp]).tolist():
            if size > DENSE_MAX:
                break
            sel = sizes[comp] == size
            comps, slot = np.unique(comp[sel], return_inverse=True)
            blocks = np.zeros((len(comps), size, size))
            blocks[slot, pos[coo.row[sel]], pos[coo.col[sel]]] = coo.data[sel]
            x = np.maximum(np.abs(np.linalg.eigh(blocks)[1][:, :, -1]), np.finfo(float).tiny)
            brackets.append(_bracket(x, np.matmul(blocks, x[:, :, None])[:, :, 0], size))
    return tuple(map(max, zip(*brackets)))


def hilbert_norm(m: int) -> float:
    """Spectral norm of the m-by-m Hilbert matrix 1/(k+l-1); approaches pi
    from below as m grows."""
    try:
        m = operator.index(m)
    except TypeError:
        raise DomainError(f"matrix size must be an integer, got {m!r}") from None
    if m < 1:
        raise DomainError(f"matrix size must be >= 1, got {m}")
    return norm_bracket(1.0 / np.add.outer(np.arange(m), np.arange(m) + 1.0))[0]


def uniform_rayleigh(gamma: AdversaryMatrix) -> Fraction:
    """Exact Rayleigh quotient 1'Gamma 1 / dim of the uniform unit vector, at
    most ||Gamma||: sum_d count_d / d over the integer steps d of the stored
    entries."""
    counts = np.bincount(gamma.steps).tolist()
    return sum(Fraction(c, d) for d, c in enumerate(counts) if c) / Fraction(gamma.dim)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Flat summary of every bound and certificate for one poset.

    QLB and QH are None when a block of the decomposition has more than
    ENUM_CAP extensions; the adversary fields are None then, and when the
    count exceeds MATRIX_CAP.
    """

    n: int
    num_extensions: int
    itlb: float
    entropy: float
    lb: float
    qlb: float | None
    qh: float | None
    gamma_norm: float | None
    max_gamma_ij_norm: float | None
    lemma1_ok: bool | None
    lemma2_ok: bool | None
    lemma3_ok: bool | None
    sandwich_ok: bool

    def any_failed(self) -> bool:
        return any(f is False for f in (self.lemma1_ok, self.lemma2_ok, self.lemma3_ok,
                                         self.sandwich_ok))


@lru_cache(maxsize=MAX_N - 1)  # m = n - 2 <= 18: 5.2 MB for all 19
def _window_matrix(m: int) -> tuple[np.ndarray, np.ndarray]:
    """W_m and its states (x, y, o), both cached and read-only: the masked
    adversary block of two incomparable elements i and j that may each take
    any of the m + 1 slots of the order of the other m elements.

    In state (x, y, o), i follows x of the others and j follows y of them;
    o = 0 when i comes first (so x <= y) and o = 1 when j does (x >= y),
    giving (m + 1)**2 + (m + 1) states.  Two states with different o are
    joined by the move of i past j when they share y, passing j and
    |x - x'| others, or of j past i when they share x, passing i and
    |y - y'| others: weight 1/d for d passed elements.  The swap of a tie
    (x = y in both) is that one move, of weight 1.
    """
    x, y, o = np.indices((m + 1, m + 1, 2)).reshape(3, -1)
    states = np.stack([x, y, o], axis=1)[np.where(o == 0, x <= y, x >= y)]
    x, y, o = states.T[:, :, None]
    d = np.where(y == y.T, abs(x - x.T), abs(y - y.T)) + 1
    W = np.where((o != o.T) & ((x == x.T) | (y == y.T)), 1.0 / d, 0.0)
    for a in (W, states):
        a.setflags(write=False)
    return W, states


def _window_types(gamma: AdversaryMatrix, P: Poset) -> np.ndarray:
    """The distinct windows (a_i, b_i, a_j, b_j) over every incomparable pair
    (i, j) and every row of gamma, as rows of a (types, 4) array.

    In the order of the other n - 2 elements, i may take slots a_i to b_i:
    after its last predecessor and before its first successor, and j slots
    a_j to b_j; the four are shifted so that min(a_i, a_j) = 0.  An
    element's rest rank, its rank less one for each of i and j below it,
    is a nondecreasing function of its rank, so the extreme rest ranks come
    from the largest predecessor rank and the smallest successor rank.
    Both are read off the one gap map, `transfer_batch`: the largest
    predecessor rank is the rank less its gap, and the smallest successor
    rank the rank plus its gap in the dual order at the reversed ranks
    n + 1 - r (n + 1 for an element with no successor).
    """
    r = gamma.ranks.astype(np.int32)
    low = r - transfer_batch(P, r)
    high = r + transfer_batch(Poset(P.rel.T), P.n + 1 - r)
    I, J = np.nonzero(np.triu(~(P.rel | P.rel.T), 1))
    a_i, a_j = low[:, I] - (low[:, I] > r[:, J]), low[:, J] - (low[:, J] > r[:, I])
    b_i, b_j = high[:, I] - 2 - (high[:, I] > r[:, J]), high[:, J] - 2 - (high[:, J] > r[:, I])
    shift = np.minimum(a_i, a_j)
    # 5 bits a slot: Gamma is built only for n <= MAX_N = 20, so every slot
    # is <= 18 and every key < 2**20 indexes one table of the keys seen
    seen = np.zeros(1 << 20, dtype=bool)
    seen[((a_i - shift) << 15) | ((b_i - shift) << 10)
         | ((a_j - shift) << 5) | (b_j - shift)] = True
    keys = np.flatnonzero(seen)
    return (keys[:, None] >> np.array([15, 10, 5, 0])) & 31


def _maximal_types(types: np.ndarray) -> np.ndarray:
    """The window types (rows of `_window_types`) whose box of slots fits
    inside no other type's box moved by one integer c on both axes."""
    # (types, types) tables in int8: every slot is <= 18, and n = 20 gives up to about 800 types
    a_i, b_i, a_j, b_j = types.astype(np.int8).T[:, :, None]
    contained = np.maximum(b_i - b_i.T, b_j - b_j.T) <= np.minimum(a_i - a_i.T, a_j - a_j.T)
    np.fill_diagonal(contained, False)
    return types[~contained.any(axis=1)]


def max_gamma_ij_norm(gamma: AdversaryMatrix, P: Poset) -> float:
    """Upper side of `norm_bracket` over the masked matrices Gamma^{ij}: the
    safe side for every ||Gamma^{ij}|| <= 2 pi.

    Only a move of i past j, or of j past i, flips the i-vs-j comparison,
    and it keeps the order rho of the other n - 2 elements, so Gamma^{ij}
    is block-diagonal with one block per rho.  The block is fixed by the
    windows of slots that i and j may take in rho (`_window_types`): it is
    the principal submatrix of W_{n-2} (`_window_matrix`) on the states
    inside them, up to a permutation of rows and columns, which moves no
    eigenvalue.  Comparable pairs are skipped: every extension orders them
    alike, so their masks are empty.

    Only the maximal window types are bracketed.  W_m's weights and its
    states (x <= y when o = 0, x >= y when o = 1) do not change when x and y
    both move by c, so a type whose box fits inside another type's box moved
    by an integer c on both axes, max(b_t - b_u) <= c <= min(a_t - a_u), has
    a principal submatrix of that type's block as its block.  Containment
    is transitive, and two distinct types (both shifted to min(a_i, a_j) = 0)
    never contain each other, so every type lies in one that no other type
    contains.  A nonnegative symmetric matrix's Perron root does not grow on
    a principal submatrix, so one `norm_bracket` call on the block diagonal
    of those maximal types bounds every mask.
    """
    types = _maximal_types(_window_types(gamma, P))
    if not len(types):
        return 0.0
    W, states = _window_matrix(P.n - 2)
    a_i, b_i, a_j, b_j = types.T[:, :, None]
    x, y = states[:, 0], states[:, 1]
    inside = (a_i <= x) & (x <= b_i) & (a_j <= y) & (y <= b_j)
    return norm_bracket(sparse.block_diag([W[np.ix_(row, row)] for row in inside]))[1]


def analyze(P: Poset) -> BoundsReport:
    """Every bound and certificate for one poset.

    The count and QLB fold the series-parallel decomposition of P, whose
    Block leaves take the up-set count and the gap DP over their ideals
    (P, a `Poset`, has at most MAX_N elements); QLB and QH are None when a
    block has more than ENUM_CAP extensions.  Only the adversary matrix
    enumerates the extensions, and it is built only when
    the count is within MATRIX_CAP and QLB is known, else its fields are
    None.  Each norm is a side of its `norm_bracket`: `gamma_norm` is the
    lower side of ||Gamma||, `max_gamma_ij_norm` the upper side over the
    masks.  H(P) and LB fold the same decomposition (`entropy_sp`), so only
    its Block leaves list maximal chains and run the interior-point method.
    QLB is the exact `Fraction` of `qlb_sp_fraction` and QH the exact
    H_n - QLB / n, each rounded once to a float.  The certificates, each an
    exact comparison of exact values, are

    (a) ||Gamma|| >= QLB, as `uniform_rayleigh(gamma)` >= QLB;
    (b) every masked norm ||Gamma^{ij}|| <= 2 pi;
    (c) ||Gamma|| / max ||Gamma^{ij}|| >= QLB / (2 pi), multiplied out;
    (b) and (c) against the double TWO_PI, which lies below 2 pi; and the
    sandwich ITLB <= LB <= 2 ITLB, decided with no tolerance by
    `certify_sandwich` on the exact brackets of the leaves.

    Failures are reported as False flags, never raised.
    """
    expr = sp_decomposition(P)[0]
    num = count_extensions_sp(expr)
    try:
        qlb = qlb_sp_fraction(expr)
    except LimitExceededError:
        qlb = None
    qlb_val = float(qlb) if qlb is not None else None
    qh_val = float(harmonic(P.n) - qlb / P.n) if qlb is not None else None
    fold = entropy_sp(expr)

    gnorm = mnorm = None
    lemma1 = lemma2 = lemma3 = None
    if num <= MATRIX_CAP and qlb is not None:
        gamma = build_adversary(P)
        gnorm = norm_bracket(gamma)[0]
        mnorm = max_gamma_ij_norm(gamma, P)
        lemma1 = uniform_rayleigh(gamma) >= qlb
        lemma2 = bool(mnorm <= TWO_PI)
        lemma3 = Fraction(gnorm) * Fraction(TWO_PI) >= qlb * Fraction(mnorm)
    return BoundsReport(
        n=P.n,
        num_extensions=int(num),
        itlb=ln_count(num),
        entropy=fold.H,
        lb=fold.lb,
        qlb=qlb_val,
        qh=qh_val,
        gamma_norm=gnorm,
        max_gamma_ij_norm=mnorm,
        lemma1_ok=lemma1,
        lemma2_ok=lemma2,
        lemma3_ok=lemma3,
        sandwich_ok=certify_sandwich(num, fold.top, fold.leaves),
    )
