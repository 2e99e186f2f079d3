"""Chain- and order-polytope geometry.

The order polytope O(P) is the set of points in [0,1]^n consistent with the
order; the chain polytope C(P) is cut out by nonnegativity and one sum
constraint per maximal chain.  The predecessor-gap map

    z_i = y_i                      if i is minimal,
    z_i = y_i - max_{j < i} y_j    otherwise

is a volume-preserving piecewise-linear bijection O(P) -> C(P); its inverse
accumulates maxima in topological order.

The entropy program

    H(P) = min { -(1/n) sum ln z_i : z in C(P) }

is solved by a feasible-start primal-dual interior-point method (Mehrotra
predictor-corrector) over the maximal-chain inequalities; the objective
itself bars z > 0.  The reported kkt_residual is a certified duality gap,
obtained by evaluating the Lagrange dual at explicit multipliers, and the
solver stops at the first iterate where it is at most the tolerance.  The
reported H(P) and LB fold the SP decomposition (`quantum.entropy_sp`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    NonConvergenceError,
    NotConsistentError,
    NotInChainPolytopeError,
)
from .linext import count_extensions, orders_by_rank
from .orderstats import sorted_uniforms
from .poset import Poset, maximal_chains

FEAS_TOL = 1e-12
MAX_NEWTON = 1000  # primal-dual iterations `entropy` may take


def chain_matrix(P: Poset) -> np.ndarray:
    """0/1 incidence matrix of maximal chains (rows) versus elements: at
    most 1458 rows, the Moon-Moser bound at n <= 20."""
    chains = maximal_chains(P)
    A = np.zeros((len(chains), P.n))
    A[np.repeat(np.arange(len(chains)), [len(c) for c in chains]), np.concatenate(chains)] = 1.0
    return A


def _check_order_point(P: Poset, y: np.ndarray) -> None:
    if y.shape != (P.n,):
        raise NotConsistentError(f"point has shape {y.shape}, expected ({P.n},)")
    if not ((y >= -FEAS_TOL) & (y <= 1.0 + FEAS_TOL)).all():  # NaN fails too
        raise NotConsistentError("point leaves the unit cube")
    rows, cols = np.nonzero(P.rel)
    if (y[rows] > y[cols] + FEAS_TOL).any():
        raise NotConsistentError("point is not consistent with the order")


def transfer(P: Poset, y) -> np.ndarray:
    """Predecessor-gap image of an order-polytope point."""
    y = np.asarray(y, dtype=float)
    _check_order_point(P, y)
    return transfer_batch(P, y[None, :])[0]


def transfer_batch(P: Poset, Y: np.ndarray) -> np.ndarray:
    """transfer applied to each row of Y (no per-row feasibility checks).

    The one implementation of the predecessor-gap map: on integer rank rows
    it gives the d-vectors of :mod:`sortbounds.quantum`."""
    Z = Y.copy()
    for i in range(P.n):
        preds = P.predecessors(i)
        if preds:
            Z[:, i] = Y[:, i] - Y[:, preds].max(axis=1)
    return Z


def transfer_inverse(P: Poset, z) -> np.ndarray:
    """Inverse of transfer, accumulating predecessor maxima topologically;
    for z >= 0 the image's largest coordinate is the largest chain sum, so
    membership in C(P) is read off it, with no chain listed."""
    z = np.asarray(z, dtype=float)
    if z.shape != (P.n,):
        raise NotInChainPolytopeError(f"point has shape {z.shape}, expected ({P.n},)")
    if not (z >= -FEAS_TOL).all():  # NaN fails too
        raise NotInChainPolytopeError("point has a negative coordinate")
    y = transfer_inverse_batch(P, z[None, :])[0]
    if not y.max() <= 1.0 + FEAS_TOL:
        raise NotInChainPolytopeError("a chain sum exceeds 1")
    return y


def transfer_inverse_batch(P: Poset, Z: np.ndarray) -> np.ndarray:
    """transfer_inverse applied to each row of Z (no feasibility checks)."""
    Y = np.empty_like(Z)
    # predecessor counts strictly increase along the order
    for i in np.argsort(P.rel.sum(axis=0), kind="stable").tolist():
        preds = P.predecessors(i)
        base = Y[:, preds].max(axis=1) if preds else 0.0
        Y[:, i] = Z[:, i] + base
    return Y


# ---------------------------------------------------------------------------
# Uniform samplers
# ---------------------------------------------------------------------------

def _order_points(orders: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A uniform point of the order simplex of each row of element sequences: the
    k-th element of a row receives the k-th of one row of `sorted_uniforms`."""
    u = sorted_uniforms(orders.shape[1], orders.shape[0], rng)
    y = np.empty_like(u)
    np.put_along_axis(y, orders, u, axis=1)
    return y


def sample_order_point(P: Poset, seed: int) -> np.ndarray:
    """One exactly-uniform point of O(P): the one-row `order_point_batch`
    of ``np.random.default_rng(seed)``."""
    return order_point_batch(P, 1, np.random.default_rng(seed))[0]


def sample_chain_point(P: Poset, seed: int) -> np.ndarray:
    """One exactly-uniform point of C(P) via the measure-preserving transfer."""
    return transfer(P, sample_order_point(P, seed))


def order_point_batch(P: Poset, samples: int, rng: np.random.Generator) -> np.ndarray:
    """(samples, n) uniform O(P) points from uniform lex ranks drawn with rng."""
    total = count_extensions(P)
    ranks = rng.integers(0, total, size=samples)
    # both read the same rows; at N <= samples, walking each rank once is fewer walks
    if total <= samples:
        orders = orders_by_rank(P, np.arange(total))[ranks]
    else:
        orders = orders_by_rank(P, ranks)
    return _order_points(orders, rng)


def chain_point_batch(P: Poset, samples: int, rng: np.random.Generator) -> np.ndarray:
    return transfer_batch(P, order_point_batch(P, samples, rng))


def chain_polytope_volume_mc(P: Poset, samples: int, seed: int) -> tuple[float, float]:
    """Hit-or-miss volume of C(P) in the unit cube: (estimate, stderr).  The rows
    come from one stream in chunks of at most 100,000 rows and 2**20 chain sums."""
    if samples < 1:
        raise DomainError(f"need at least 1 sample, got {samples}")
    A = chain_matrix(P)
    rng = np.random.default_rng(seed)
    rows = min(100_000, 2**20 // len(A))  # >= 719: at most 1458 chains (n <= 20)
    hits = 0
    for start in range(0, samples, rows):
        u = rng.random((min(rows, samples - start), P.n))
        hits += int(np.asfortranarray(u @ A.T <= 1.0).all(axis=1).sum())
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


# ---------------------------------------------------------------------------
# Entropy program
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropySolution:
    """One `entropy` solve.  kkt_residual is the certified duality gap in
    floats, clamped at 0, so it carries rounding of about 1e-14; bracket is
    the exact certificate, lo <= e^(-n H*) <= hi of `entropy_bracket`."""
    H: float
    z_star: np.ndarray
    kkt_residual: float
    newton_steps: int
    bracket: tuple[Fraction, Fraction]


def _objective(z: np.ndarray) -> float:
    return -float(np.log(z).sum() / len(z)) + 0.0  # .mean()'s sum and division; +0.0 for -0.0


def _dual_value(w: np.ndarray, lam: np.ndarray) -> float:
    """Lagrange dual g(lam) = (1/n) sum ln(n w_i) + 1 - sum lam of the entropy
    program at lam >= 0, w = A^T lam: the inner minimum is z_i = 1 / (n w_i)."""
    return float(np.log(len(w) * w).sum() / len(w) + 1.0 - lam.sum()) if w.min() > 0 else -math.inf


def entropy_bracket(A: np.ndarray, z: np.ndarray, lam: np.ndarray) -> tuple[Fraction, Fraction]:
    """Rationals lo <= e^(-n H*) <= hi over the chain matrix A, from z > 0 and
    lam >= 0 floored to multiples of 2^-40 as int64: z / mx (mx its largest
    chain sum) lies in the chain polytope, so lo = prod z_i / mx^n, and lam / T
    sums to 1 (T = sum lam), so the Lagrange dual gives hi = T^n / prod n w_i,
    w = A^T lam, or hi = 1 (H* >= 0) when some w_i is 0.  The int64 sums stay
    below 2^51 (T <= 1458 * 2^40, at most 1458 chains at n <= 20); the
    products are Python ints."""
    n = A.shape[1]
    A = A.astype(np.int64)
    z, lam = (np.floor(v * 2.0**40).astype(np.int64) for v in (z, lam))
    w = (lam @ A).tolist()
    hi = Fraction(int(lam.sum()) ** n, math.prod(n * v for v in w)) if min(w) > 0 else Fraction(1)
    return Fraction(math.prod(z.tolist()), int((A @ z).max()) ** n), hi


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha <= 1 with x + alpha dx >= 0: -x/dx over dx < 0 is -(x/dx) in floats."""
    ratios = np.divide(x, dx, out=np.full(len(x), -np.inf), where=dx < 0)
    return min(1.0, -float(ratios.max()))


def entropy(P: Poset, tol: float = 1e-8) -> EntropySolution:
    """Minimize -(1/n) sum ln z_i over the chain polytope.

    Feasible-start primal-dual interior point (Mehrotra predictor-corrector)
    on the maximal-chain inequalities A z <= 1 with multipliers lam > 0.
    The slacks s = 1 - A z are recomputed from z after every step, so each
    iterate is exactly feasible.  Each iteration solves with one n x n matrix
    M = diag(w/z) + A^T diag(lam/s) A, w = A^T lam from the last dual value,
    twice: for the affine step, whose right-hand side is exactly 1/(n z), and
    for the corrector with centering (mu_aff/mu)^3.  M's diagonal linearizes
    n z w = 1, the primal-dual form of the stationarity condition.  The loop
    stops at the first iterate whose duality gap, certified by explicit
    multipliers, is at most tol; a final step divides each z_i by the
    largest chain sum through i when that stays feasible in floats and
    lowers the gap.

    The returned kkt_residual is that certified gap, a float clamped at 0,
    anywhere in [0, tol].  A tol below its rounding, about 1e-14, is met by
    rounding: `entropy(P, tol=1e-300)` returns kkt_residual 0.0, and only
    bracket certifies exactly.  newton_steps counts primal-dual iterations;
    bracket is `entropy_bracket` at the returned point and the final
    multipliers.  NonConvergence is
    raised if the gap cannot be brought to tol within MAX_NEWTON iterations.
    """
    if not 0 < tol < math.inf:  # NaN would pass every gap test, inf would take no step
        raise ValueError("tol must be positive and finite")
    A = chain_matrix(P)
    m, n = A.shape
    # Strictly feasible start: every chain sum is at most longest/(longest+1).
    # x stacks z and s, as d stacks dz and ds, for one ratio test over both.
    x = np.full(n + m, 1.0 / (A.sum(axis=1).max() + 1.0))
    x[n:] = 1.0 - A @ x[:n]
    lam = np.full(m, 1.0 / m)
    gap = _objective(x[:n]) - _dual_value(w := A.T @ lam, lam)
    steps = 0
    while gap > tol and steps < MAX_NEWTON:
        steps += 1
        z, s = x[:n], x[n:]
        M = (A.T * (lam / s)) @ A
        M.reshape(-1)[:: n + 1] += w / z
        inv_nz = 1.0 / (n * z)

        def direction(rhs: np.ndarray, c: np.ndarray | float):
            # Newton step for n z w = 1 and lam s = c, with ds = -A dz.
            dz = np.linalg.solve(M, rhs)
            d = np.concatenate((dz, -(A @ dz)))
            return d, d[n:], (c - lam * d[n:]) / s - lam

        d, ds, dlam = direction(inv_nz, 0.0)  # A^T (0/s) is an exact zero
        mu = float(lam @ s) / m
        mu_aff = float((lam + _max_step(lam, dlam) * dlam) @ (s + _max_step(x, d) * ds)) / m
        c = (mu_aff / mu) ** 3 * mu - dlam * ds
        d, ds, dlam = direction(inv_nz - A.T @ (c / s), c)
        alpha = 0.99 * _max_step(x, d)
        # Rounding can leave a tiny slack at or below 0: halve the step.
        for _ in range(50):
            xn = x + alpha * d
            xn[n:] = 1.0 - A @ xn[:n]
            if xn.min() > 0:
                break
            alpha *= 0.5
        else:
            break
        x, lam = xn, lam + 0.99 * _max_step(lam, dlam) * dlam
        gap = _objective(x[:n]) - _dual_value(w := A.T @ lam, lam)

    z = x[:n]
    scaled = z / (A * (A @ z)[:, None]).max(axis=0)
    if ((A @ scaled) <= 1.0).all():
        scaled_gap = _objective(scaled) - _dual_value(A.T @ lam, lam)
        if scaled_gap < gap:
            z, gap = scaled, scaled_gap
    if gap > tol:
        raise NonConvergenceError(f"certified duality gap {gap:.3e} above tol {tol:.3e}")
    if (z < 1e-9).any():
        raise NonConvergenceError("optimal point degenerate: some z*[i] < 1e-9")
    z = z.copy()
    z.setflags(write=False)
    return EntropySolution(H=_objective(z), z_star=z, kkt_residual=max(gap, 0.0), newton_steps=steps,
                           bracket=entropy_bracket(A, z, lam))
