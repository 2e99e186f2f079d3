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


def _gap_counts(P: Poset, max_extensions: int) -> tuple[np.ndarray, int]:
    """(counts of each gap value over all (extension, element) pairs, N)."""
    orders = extension_orders(P, max_extensions=max_extensions)
    # the 1-based rank of each element, one column at a time, so that no
    # (N, n) int64 array (argsort's, or bincount's copy) is ever built
    ranks, rows = np.empty_like(orders), np.arange(len(orders))
    for k in range(P.n):
        ranks[rows, orders[:, k]] = k + 1
    d = transfer_batch(P, ranks)
    return sum(np.bincount(col, minlength=P.n + 1) for col in d.T), len(orders)


def qlb_fraction(P: Poset, max_extensions: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Exact rational QLB by enumeration of all extensions."""
    counts, num = _gap_counts(P, max_extensions)
    total = sum(
        (int(c) * harmonic(dv - 1) for dv, c in enumerate(counts) if c and dv >= 1),
        Fraction(0),
    )
    return total / num


def qh_fraction(P: Poset, max_extensions: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Exact QH via the identity QLB = n (H_n - QH)."""
    return harmonic(P.n) - qlb_fraction(P, max_extensions=max_extensions) / P.n


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
    summed over a left fold).  Each Block and NBlock leaf is enumerated
    under max_extensions.
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
    table: np.ndarray | None   # rows (n1, n2, ratio) when collected


TECH_MAX_N = 1000  # the scan's table has about max_n**2 / 2 rows


@lru_cache(maxsize=8)
def _tech_constant_cached(max_n: int) -> TechConstant:
    return _tech_scan(max_n, collect_table=False)


def tech_constant(max_n: int, collect_table: bool = False) -> TechConstant:
    """Exhaustive exact-rational scan of the merge-cost ratio.

    The numerator is evaluated in exact integer arithmetic over the common
    denominator lcm(1..2*max_n); only the division by the (irrational) log
    binomial is floating point.
    """
    if collect_table:
        return _tech_scan(max_n, collect_table=True)
    return _tech_constant_cached(max_n)


def _tech_scan(max_n: int, collect_table: bool) -> TechConstant:
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
    rows = [] if collect_table else None
    for n1 in range(1, max_n + 1):
        for n2 in range(n1, max_n + 1):
            merge_scaled = acc[n1 + n2] - acc[n1] - acc[n2]
            merge = float((merge_scaled * shift) // den) / shift
            ratio = merge / math.log(math.comb(n1 + n2, n1))
            if rows is not None:
                rows.append((n1, n2, ratio))
            if ratio < best:
                best, best_arg, best_num = ratio, (n1, n2), merge_scaled
    return TechConstant(
        c_min=best,
        argmin=best_arg,
        c_min_numerator=Fraction(best_num, den),
        table=np.array(rows) if rows is not None else None,
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
    num = count_extensions(P)
    if num > matrix_cap:
        raise LimitExceededError(f"{num} extensions exceed the matrix cap {matrix_cap}")
    orders = extension_orders(P, max_extensions=matrix_cap)
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
        dim=int(num),
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


def norm_bracket(M: AdversaryMatrix | np.ndarray) -> tuple[float, float]:
    """Certified bracket lo <= ||M||_2 <= hi of a nonnegative symmetric
    matrix; raises DomainError on any other input.

    ||M||_2 is the largest Perron root over the connected components.  On a
    component of size s with approximate Perron vector x (|x|, floored at
    the smallest positive float), lo is the Rayleigh quotient x'Ax / x'x
    and hi = max_i (Ax)_i / x_i (Collatz-Wielandt), both widened outward by
    a relative (s + 8) eps, more than the rounding of the matvec (at most s
    terms a row) and of the quotient's two pairwise sums.  x comes from one
    batched dense eigh per component size up to DENSE_MAX, over the distinct
    blocks of that size only, and from ARPACK (eigsh, started from the
    all-ones vector so reruns agree) above it.
    """
    # imported here: it adds about 1 MB to every process that imports the package
    from scipy.sparse.csgraph import connected_components

    A = M.to_csr() if isinstance(M, AdversaryMatrix) else sparse.csr_matrix(np.asarray(M, float))
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
        # equal blocks have equal brackets: solve each distinct block once
        flat = blocks.reshape(len(comps), -1)
        distinct = np.unique(flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))))
        blocks = distinct.view(float).reshape(-1, size, size)
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
    extensions than the enumeration cap; adversary-dependent fields are
    None then, and when the extension count exceeds the matrix cap.
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


def max_gamma_ij_norm(gamma: AdversaryMatrix, P: Poset) -> float:
    """Upper side of `norm_bracket`, maximized over the masks: the safe side
    for every ||Gamma^{ij}|| <= 2 pi.  Comparable pairs are skipped: every
    extension orders them alike, so their masks are empty."""
    return max((norm_bracket(gamma_ij(gamma, P, i, j))[1]
                for i, j in itertools.combinations(range(P.n), 2)
                if not (P.rel[i, j] or P.rel[j, i])), default=0.0)


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
    Block leaves take the ideal DP and enumeration; QLB and QH are None
    when a block has more than enum_cap extensions or DEFAULT_N_CAP elements.
    The adversary matrix is built only when the count is within matrix_cap,
    QLB is known and n <= DEFAULT_N_CAP (its Lehmer keys need n! < 2**63),
    else its fields are None.  Each norm is a side of its
    `norm_bracket`, the safe one for its lemma: `gamma_norm` is the lower
    side of ||Gamma||, `max_gamma_ij_norm` the largest upper side over the
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
    lb_val = max(0.0, P.n * (math.log(P.n) - sol.H))
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
        lb=lb_val,
        qlb=qlb_val,
        qh=qh_val,
        gamma_norm=gnorm,
        max_gamma_ij_norm=mnorm,
        lemma1_ok=lemma1,
        lemma2_ok=lemma2,
        lemma3_ok=lemma3,
        sandwich_ok=sandwich_holds(itlb_val, lb_val),
    )
