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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .errors import DomainError, LimitExceededError, NotAnExtensionError
from .linext import (
    DEFAULT_ENUM_CAP,
    DEFAULT_N_CAP,
    LinearExtension,
    count_extensions,
    count_extensions_sp,
    extension_orders,
    is_extension,
    ln_count,
)
from .orderstats import harmonic, harmonic_float
from .polytopes import chain_point_batch, entropy, transfer_batch
from .poset import Poset
from .spexpr import Block, NBlock, Series, Singleton, SPExpr, expr_size, sp_decomposition

DEFAULT_MATRIX_CAP = 4000

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Gap vectors and the exact lower bound
# ---------------------------------------------------------------------------

def d_vector(P: Poset, ext: LinearExtension) -> tuple[int, ...]:
    """Predecessor-gap vector of an extension; raises NotAnExtension."""
    if not is_extension(P, ext):
        raise NotAnExtensionError(f"{ext.rank} is not an extension of the poset")
    return tuple(transfer_batch(P, np.array([ext.rank]))[0].tolist())


def qlb_fraction(P: Poset, max_extensions: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Exact rational QLB from a gap DP over the lattice of ideals of P;
    raises LimitExceededError when P has more than max_extensions
    extensions.

    The prefixes of the extensions are the paths up `Poset.lattice`, one
    element placed per edge D -> D | e; the table holds c(D), the
    completions of D, and f(D), the prefixes reaching D, is filled forward.
    H_k(D, i) counts the completions of D in which i, whose predecessors are
    in D and which is not, follows k more elements; filled backward, it is
    c(D | i) at k = 0 and the sum of H_{k-1}(D | e, i) over the edges of D at
    k > 0.  Over an edge D' -> D placing the last predecessor of i,
    f(D') H_k(D, i) extensions have gap d_i = k + 1 (H_k(0, i) for a minimal
    i), so QLB = sum_k C[k] H_k / N for the sums C[k] of those counts.

    The ideals are walked one layer of sizes at a time, in int64: every
    entry, product and sum over a layer is a count of (prefixes of)
    extensions, at most N <= 20! < 2**63, and the layers are added in
    Python ints.
    """
    num = count_extensions(P)  # caps n at 20, so every count fits in int64
    if num > max_extensions:
        raise LimitExceededError(f"{num} extensions exceed the enumeration cap {max_extensions}")
    n, lattice = P.n, P.lattice
    # sum_k C[k] H_k over the common denominator L = lcm(1..n-1): L H_k = sum_{j<=k} L / j
    L = math.lcm(*range(1, n))
    LH = list(itertools.accumulate(L // k if k else 0 for k in range(n)))
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
        # the i whose last predecessor the edge places: not available before it
        last = P.rel[layer.elem]
        C = np.einsum("e,ei,eik->k", f[s].repeat(d), last, ahead).tolist()
        total += sum(c * w for c, w in zip(C, LH))
        ahead[last] = 0
        H = np.zeros((len(d), n, n - s), dtype=np.int64)
        H[:, :, 1:] = np.add.reduceat(ahead, layer.start[:-1])
        H[np.arange(len(d)).repeat(d), layer.elem, 0] = up.counts[layer.dst]
    total += sum(c * w for c, w in zip(H[0].sum(axis=0).tolist(), LH))
    return Fraction(total, L * num)


def qh_fraction(P: Poset) -> Fraction:
    """Exact QH via the identity QLB = n (H_n - QH)."""
    return harmonic(P.n) - qlb_fraction(P) / P.n


def qh_mc(P: Poset, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo QH: mean of -(1/n) sum ln z_i over uniform chain-polytope
    points; returns (estimate, stderr).  Rows with a zero coordinate (a
    measure-zero tie) are redrawn."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    filled = 0
    while filled < samples:
        want = samples - filled
        Z = chain_point_batch(P, want, rng)
        good = (Z > 0.0).all(axis=1)
        got = int(good.sum())
        vals[filled : filled + got] = -np.log(Z[good]).mean(axis=1)
        filled += got
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------------------------
# Series-parallel recurrences
# ---------------------------------------------------------------------------

def qlb_sp_fraction(e: SPExpr, max_extensions: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Exact QLB of an SP expression by structural recursion.

    Series adds the parts; parallel adds the parts plus the harmonic merge
    cost n H_n - sum_c n_c H_{n_c} (the binary n H_n - n1 H_{n1} - n2 H_{n2}
    summed over a left fold).  Each Block and NBlock leaf takes the ideal
    DP of `qlb_fraction`, which refuses a leaf of more than max_extensions
    extensions.
    """
    if isinstance(e, Singleton):
        return Fraction(0)
    if isinstance(e, (Block, NBlock)):
        return qlb_fraction(e.poset, max_extensions=max_extensions)
    parts = sum((qlb_sp_fraction(c, max_extensions) for c in e.children), Fraction(0))
    if isinstance(e, Series):
        return parts
    sizes = [expr_size(c) for c in e.children]
    return parts + sum(sizes) * harmonic(sum(sizes)) - sum(k * harmonic(k) for k in sizes)


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
    denominator lcm(1..2*max_n); only the division by the (irrational) log
    binomial is floating point.
    """
    if not 2 <= max_n <= TECH_MAX_N:
        raise DomainError(f"max_n must be in 2..{TECH_MAX_N}, got {max_n}")
    den = math.lcm(*range(1, 2 * max_n + 1))
    # acc[q] = q * H_q * den, exactly.
    acc = [0] * (2 * max_n + 1)
    run = 0
    for q in range(1, 2 * max_n + 1):
        run += den // q
        acc[q] = q * run
    shift = 1 << 64
    best = math.inf
    best_arg = (0, 0)
    best_num = 0
    # filled in place: a list of row tuples would hold about 4x the table
    table = np.empty((max_n * (max_n + 1) // 2, 3))
    pairs = itertools.combinations_with_replacement(range(1, max_n + 1), 2)
    for t, (n1, n2) in enumerate(pairs):
        merge_scaled = acc[n1 + n2] - acc[n1] - acc[n2]
        merge = float((merge_scaled * shift) // den) / shift
        ratio = merge / math.log(math.comb(n1 + n2, n1))
        table[t] = n1, n2, ratio
        if ratio < best:
            best, best_arg, best_num = ratio, (n1, n2), merge_scaled
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
    Both orientations of every nonzero are stored, so a single scatter pass
    realizes the symmetric matvec.
    """

    dim: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    ranks: np.ndarray  # (dim, n) rank matrix of the indexing extensions

    def index_of(self, ext: LinearExtension | Sequence[int]) -> int:
        rank = tuple(ext.rank) if isinstance(ext, LinearExtension) else tuple(ext)
        matches = np.nonzero((self.ranks == np.asarray(rank)).all(axis=1))[0]
        if len(matches) != 1:
            raise KeyError(f"rank vector {rank} is not an indexed extension")
        return int(matches[0])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def to_csr(self) -> sparse.csr_matrix:
        return sparse.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim)
        ).tocsr()

    def nonzero_entries(self) -> dict[tuple[int, int], float]:
        return {(int(r), int(c)): float(v) for r, c, v in zip(self.rows, self.cols, self.vals)}


def _lehmer_keys(orders: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each row among the permutations of 0..n-1 (its
    Lehmer code), below n! <= 20! < 2**63."""
    n = orders.shape[1]
    return sum((orders[:, k + 1:] < orders[:, k, None]).sum(axis=1) * math.factorial(n - 1 - k)
               for k in range(n))


def build_adversary(P: Poset, matrix_cap: int = DEFAULT_MATRIX_CAP) -> AdversaryMatrix:
    """Adversary matrix: weight 1/d between an extension and the one obtained
    by moving an element d ranks down.

    A down-move of element i by d keeps the sequence an extension exactly
    when d <= d_i - 1: the passed elements rank above every predecessor of i
    and below i itself, hence are incomparable to i.  Both (sigma, tau) and
    (tau, sigma) are set to 1/d.  The moves are listed row-major over
    (extension, element), then by d, and their targets found by Lehmer key;
    an adjacent swap (d = 1), the one move that arises twice (once from each
    endpoint), is kept from the endpoint listed first.
    """
    try:
        orders = extension_orders(P, max_extensions=matrix_cap)
    except LimitExceededError:  # the count is cached: say which cap it exceeds
        raise LimitExceededError(
            f"{count_extensions(P)} extensions exceed the matrix cap {matrix_cap}") from None
    ranks = orders.argsort(axis=1) + 1  # ranks[s, i]: 1-based rank of element i in row s
    steps = transfer_batch(P, ranks).ravel() - 1  # the moves of each (s, i)
    move = np.repeat(np.arange(len(steps)), steps)
    dd = np.arange(len(move)) - np.repeat(np.cumsum(steps) - steps, steps) + 1
    src, pos = move // P.n, ranks.ravel()[move, None] - 1
    # the moved order holds order[pos] at pos - dd and order[k - 1] at k in (pos - dd, pos]
    k, lo = np.arange(P.n), pos - dd[:, None]
    take = np.where(k == lo, pos, k - ((k > lo) & (k <= pos)))
    tgt = np.searchsorted(_lehmer_keys(orders),
                          _lehmer_keys(orders.ravel()[src[:, None] * P.n + take]))
    keep = (dd > 1) | (src < tgt)
    src, tgt, dd = src[keep], tgt[keep], dd[keep]
    return AdversaryMatrix(
        dim=len(orders),
        n=P.n,
        rows=np.stack([src, tgt], axis=1).ravel(),
        cols=np.stack([tgt, src], axis=1).ravel(),
        vals=np.repeat(1.0 / dd, 2),
        ranks=ranks,
    )


def gamma_ij(gamma: AdversaryMatrix, P: Poset, i: int, j: int) -> AdversaryMatrix:
    """Mask keeping entries where extensions disagree on the i-vs-j comparison."""
    if i == j:
        raise DomainError("the two compared elements must differ")
    if not (0 <= i < P.n and 0 <= j < P.n):
        raise DomainError(f"elements ({i}, {j}) out of range 0..{P.n - 1}")
    below = gamma.ranks[:, i] < gamma.ranks[:, j]
    keep = below[gamma.rows] != below[gamma.cols]
    return AdversaryMatrix(
        dim=gamma.dim,
        n=gamma.n,
        rows=gamma.rows[keep],
        cols=gamma.cols[keep],
        vals=gamma.vals[keep],
        ranks=gamma.ranks,
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
    # imported here: it adds about 1 MB to every process that imports the package
    from scipy.sparse.csgraph import connected_components

    A = M.to_csr() if isinstance(M, AdversaryMatrix) else sparse.csr_matrix(M, dtype=float)
    A.eliminate_zeros()
    if not (np.isfinite(A.data).all() and (A.data > 0).all()):
        raise DomainError("matrix entries must be finite and nonnegative")
    if A.shape[0] != A.shape[1] or (A != A.T).nnz:
        raise DomainError(f"matrix of shape {A.shape} is not square and symmetric")
    if A.nnz == 0:
        return 0.0, 0.0
    labels = connected_components(A, directed=False)[1]
    sizes = np.bincount(labels)
    # a vertex's position in its component: its rank by label minus the earlier sizes
    pos = np.argsort(np.argsort(labels, kind="stable")) - (np.cumsum(sizes) - sizes)[labels]
    coo = A.tocoo()
    comp = labels[coo.row]
    brackets = [(0.0, 0.0)]
    for size in np.unique(sizes[comp]).tolist():
        sel = sizes[comp] == size
        comps, slot = np.unique(comp[sel], return_inverse=True)
        if size > DENSE_MAX:
            for c in comps.tolist():
                block = A[labels == c][:, labels == c]
                vec = eigsh(block, k=1, which="LA", v0=np.ones(size))[1][:, 0]
                x = np.maximum(np.abs(vec), np.finfo(float).tiny)
                brackets.append(_bracket(x, block @ x, size))
            continue
        blocks = np.zeros((len(comps), size, size))
        blocks[slot, pos[coo.row[sel]], pos[coo.col[sel]]] = coo.data[sel]
        x = np.maximum(np.abs(np.linalg.eigh(blocks)[1][:, :, -1]), np.finfo(float).tiny)
        brackets.append(_bracket(x, np.matmul(blocks, x[:, :, None])[:, :, 0], size))
    return tuple(map(max, zip(*brackets)))


def spectral_norm(M: AdversaryMatrix | np.ndarray) -> float:
    """Lower side of `norm_bracket`: the safe side for ||Gamma|| >= QLB."""
    return norm_bracket(M)[0]


def hilbert_norm(m: int) -> float:
    """Spectral norm of the m-by-m Hilbert matrix 1/(k+l-1); approaches pi
    from below as m grows."""
    if m < 1:
        raise DomainError(f"matrix size must be >= 1, got {m}")
    return spectral_norm(1.0 / np.add.outer(np.arange(m), np.arange(m) + 1.0))


def uniform_rayleigh(gamma: AdversaryMatrix) -> float:
    """Rayleigh quotient of the uniform unit vector: total weight / dim."""
    if gamma.dim == 0:
        return 0.0
    return float(gamma.vals.sum()) / gamma.dim


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Flat summary of every bound and certificate for one poset.

    QLB and QH are None when a block of the decomposition has more
    extensions than the cap enum_cap of `analyze`; adversary-dependent
    fields are None then, and when the extension count exceeds the matrix
    cap.
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

    def flags(self) -> list[bool | None]:
        return [self.lemma1_ok, self.lemma2_ok, self.lemma3_ok, self.sandwich_ok]

    def any_failed(self) -> bool:
        return any(f is False for f in self.flags())


def _window_matrix(m: int) -> tuple[np.ndarray, np.ndarray]:
    """W_m and its states (x, y, o): the masked adversary block of two
    incomparable elements i and j that may each take any of the m + 1 slots
    of the order of the other m elements.

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
    return np.where((o != o.T) & ((x == x.T) | (y == y.T)), 1.0 / d, 0.0), states


def _window_types(gamma: AdversaryMatrix, P: Poset) -> np.ndarray:
    """The distinct windows (a_i, b_i, a_j, b_j) over every incomparable pair
    (i, j) and every row of gamma, as rows of a (types, 4) array.

    In the order of the other n - 2 elements, i may take slots a_i to b_i:
    after its last predecessor and before its first successor, and j slots
    a_j to b_j; the four are shifted so that min(a_i, a_j) = 0.  An
    element's rest rank, its rank less one for each of i and j below it,
    is a nondecreasing function of its rank, so the extreme rest ranks come
    from the largest predecessor rank and the smallest successor rank.
    """
    r = gamma.ranks
    low = np.where(P.rel.T, r[:, None, :], 0).max(axis=2)  # largest predecessor rank
    high = np.where(P.rel, r[:, None, :], P.n + 1).min(axis=2)  # smallest successor rank
    I, J = np.nonzero(np.triu(~(P.rel | P.rel.T), 1))
    a_i, a_j = low[:, I] - (low[:, I] > r[:, J]), low[:, J] - (low[:, J] > r[:, I])
    b_i, b_j = high[:, I] - 2 - (high[:, I] > r[:, J]), high[:, J] - 2 - (high[:, J] > r[:, I])
    shift = np.minimum(a_i, a_j)
    # 5 bits a slot: Gamma is built only for n <= DEFAULT_N_CAP, so every slot is <= 18
    keys = np.unique(((a_i - shift) << 15) | ((b_i - shift) << 10)
                     | ((a_j - shift) << 5) | (b_j - shift))
    return (keys[:, None] >> np.array([15, 10, 5, 0])) & 31


def max_gamma_ij_norm(gamma: AdversaryMatrix, P: Poset) -> float:
    """Upper side of `norm_bracket` over the masked matrices Gamma^{ij}: the
    safe side for every ||Gamma^{ij}|| <= 2 pi.

    Only a move of i past j, or of j past i, flips the i-vs-j comparison,
    and it keeps the order rho of the other n - 2 elements, so Gamma^{ij}
    is block-diagonal with one block per rho.  The block is fixed by the
    windows of slots that i and j may take in rho (`_window_types`): it is
    the principal submatrix of W_{n-2} (`_window_matrix`) on the states
    inside them, up to a permutation of rows and columns, which moves no
    eigenvalue.  So the bracket of a window type brackets every rho-block
    of that type, and one `norm_bracket` call on the block diagonal of the
    distinct types bounds every mask.  Comparable pairs are skipped: every
    extension orders them alike, so their masks are empty.
    """
    types = _window_types(gamma, P)
    if not len(types):
        return 0.0
    W, states = _window_matrix(P.n - 2)
    a_i, b_i, a_j, b_j = types.T[:, :, None]
    x, y = states[:, 0], states[:, 1]
    inside = (a_i <= x) & (x <= b_i) & (a_j <= y) & (y <= b_j)
    at = np.cumsum(inside).reshape(inside.shape) - 1  # each state's row in the block diagonal
    r, c = np.nonzero(W)
    t, e = np.nonzero(inside[:, r] & inside[:, c])
    A = sparse.csr_matrix((W[r, c][e], (at[t, r[e]], at[t, c[e]])), shape=(at.max() + 1,) * 2)
    return norm_bracket(A)[1]


LEMMA_TOL = 1e-6


def sandwich_holds(itlb_val: float, lb_val: float) -> bool:
    """ITLB <= LB <= 2 ITLB, each side relaxed by LEMMA_TOL."""
    return (lb_val >= itlb_val * (1.0 - LEMMA_TOL) - 1e-9
            and lb_val <= 2.0 * itlb_val + LEMMA_TOL)


def analyze(
    P: Poset,
    *,
    max_n: int = DEFAULT_N_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> BoundsReport:
    """Every bound and certificate for one poset.

    The count and QLB fold the series-parallel decomposition of P, whose
    Block leaves take the up-set count and the gap DP over their ideals;
    QLB and QH are None when a block has more than enum_cap extensions or
    DEFAULT_N_CAP elements.  Only the adversary matrix enumerates the
    extensions, and it is built only when the count is within matrix_cap,
    QLB is known and n <= DEFAULT_N_CAP (its Lehmer keys need n! < 2**63),
    else its fields are None.  Each norm is a side of its
    `norm_bracket`, the safe one for its lemma: `gamma_norm` is the lower
    side of ||Gamma||, `max_gamma_ij_norm` the upper side over the
    masks.  The certificates are

    (a) ||Gamma|| >= QLB, up to relative LEMMA_TOL;
    (b) every masked norm ||Gamma^{ij}|| <= 2 pi + LEMMA_TOL;
    (c) ||Gamma|| / max ||Gamma^{ij}|| >= QLB / (2 pi) - LEMMA_TOL;
    and the sandwich ITLB <= LB <= 2 ITLB.

    Failures are reported as False flags, never raised.
    """
    if P.n > max_n:
        raise LimitExceededError(f"n={P.n} exceeds the cap max_n={max_n}")
    expr = sp_decomposition(P)[0]
    num = count_extensions_sp(expr, max_n=max_n)
    try:
        qlb_val = float(qlb_sp_fraction(expr, max_extensions=enum_cap))
    except LimitExceededError:
        qlb_val = None
    itlb_val = ln_count(num)
    sol = entropy(P)
    qh_val = harmonic_float(P.n) - qlb_val / P.n if qlb_val is not None else None

    gnorm = mnorm = None
    lemma1 = lemma2 = lemma3 = None
    if num <= matrix_cap and qlb_val is not None and P.n <= DEFAULT_N_CAP:
        gamma = build_adversary(P, matrix_cap=matrix_cap)
        gnorm = spectral_norm(gamma)
        mnorm = max_gamma_ij_norm(gamma, P)
        lemma1 = bool(gnorm >= qlb_val * (1.0 - LEMMA_TOL))
        lemma2 = bool(mnorm <= TWO_PI + LEMMA_TOL)
        ratio = gnorm / mnorm if mnorm > 0 else 0.0
        lemma3 = bool(ratio >= qlb_val / TWO_PI - LEMMA_TOL)
    return BoundsReport(
        n=P.n,
        num_extensions=int(num),
        itlb=itlb_val,
        entropy=sol.H,
        lb=sol.lb,
        qlb=qlb_val,
        qh=qh_val,
        gamma_norm=gnorm,
        max_gamma_ij_norm=mnorm,
        lemma1_ok=lemma1,
        lemma2_ok=lemma2,
        lemma3_ok=lemma3,
        sandwich_ok=sandwich_holds(itlb_val, sol.lb),
    )
