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
bound LB = n (ln n - H(P)) is the solution's `lb`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonConvergenceError,
    NotConsistentError,
    NotInChainPolytopeError,
)
from .linext import count_extensions, orders_by_rank
from .poset import Poset, maximal_chains

FEAS_TOL = 1e-12
MAX_NEWTON = 1000  # primal-dual iterations `entropy` may take


def chain_matrix(P: Poset) -> np.ndarray:
    """0/1 incidence matrix of maximal chains (rows) versus elements;
    `maximal_chains` refuses more than MAX_CHAINS rows."""
    chains = maximal_chains(P)
    A = np.zeros((len(chains), P.n))
    A[np.repeat(np.arange(len(chains)), [len(c) for c in chains]), np.concatenate(chains)] = 1.0
    return A


def _check_order_point(P: Poset, y: np.ndarray) -> None:
    if y.shape != (P.n,):
        raise NotConsistentError(f"point has shape {y.shape}, expected ({P.n},)")
    if (y < -FEAS_TOL).any() or (y > 1.0 + FEAS_TOL).any():
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


def _check_chain_point(P: Poset, z: np.ndarray) -> None:
    if z.shape != (P.n,):
        raise NotInChainPolytopeError(f"point has shape {z.shape}, expected ({P.n},)")
    if (z < -FEAS_TOL).any():
        raise NotInChainPolytopeError("point has a negative coordinate")
    sums = chain_matrix(P) @ z
    if (sums > 1.0 + FEAS_TOL).any():
        raise NotInChainPolytopeError("a chain sum exceeds 1")


def transfer_inverse(P: Poset, z) -> np.ndarray:
    """Inverse of transfer: accumulate predecessor maxima topologically."""
    z = np.asarray(z, dtype=float)
    _check_chain_point(P, z)
    return transfer_inverse_batch(P, z[None, :])[0]


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
    """A uniform point of the order simplex of each row of element sequences:
    the k-th element of a row receives that row's k-th smallest uniform."""
    u = rng.random(orders.shape)
    u.sort(axis=1)
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
    """Hit-or-miss volume of C(P) in the unit cube: (estimate, stderr)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    A = chain_matrix(P)
    rng = np.random.default_rng(seed)
    hits = 0
    left = samples
    while left > 0:
        chunk = min(left, 100_000)
        u = rng.random((chunk, P.n))
        hits += int(((u @ A.T) <= 1.0).all(axis=1).sum())
        left -= chunk
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


# ---------------------------------------------------------------------------
# Entropy program
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropySolution:
    H: float
    z_star: np.ndarray
    kkt_residual: float
    newton_steps: int

    @property
    def lb(self) -> float:
        """Classical comparison bound n(ln n - H(P)), clamped at 0: z = 1/n is
        feasible, so H(P) <= ln n and only rounding makes it negative."""
        n = len(self.z_star)
        return max(0.0, n * (math.log(n) - self.H))


def _objective(z: np.ndarray) -> float:
    return -float(np.log(z).mean()) + 0.0  # +0.0 normalizes -0.0


def _dual_value(A: np.ndarray, lam: np.ndarray) -> float:
    """Lagrange dual of the entropy program at multipliers lam >= 0.

    The inner minimization is solved by z_i = 1 / (n * w_i) with
    w = A^T lam, giving g(lam) = (1/n) sum ln(n w_i) + 1 - sum lam."""
    w = A.T @ lam
    if (w <= 0.0).any():
        return -math.inf
    n = A.shape[1]
    return float(np.log(n * w).mean() + 1.0 - lam.sum())


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha <= 1 with x + alpha dx >= 0."""
    neg = dx < 0
    return min(1.0, float((-x[neg] / dx[neg]).min())) if neg.any() else 1.0


def entropy(P: Poset, tol: float = 1e-8) -> EntropySolution:
    """Minimize -(1/n) sum ln z_i over the chain polytope.

    Feasible-start primal-dual interior point (Mehrotra predictor-corrector)
    on the maximal-chain inequalities A z <= 1 with multipliers lam > 0.
    The slacks s = 1 - A z are recomputed from z after every step, so each
    iterate is exactly feasible.  Each iteration solves the n x n system
    diag(w/z) + A^T diag(lam/s) A, with w = A^T lam, twice: for the affine
    step and for the corrector with centering (mu_aff/mu)^3.  Its diagonal
    linearizes n z w = 1, the primal-dual form of the stationarity
    condition.  A final step divides each z_i by the largest chain sum
    through i when that stays feasible in floats and lowers the gap.

    The returned kkt_residual is the duality gap certified by explicit
    multipliers; newton_steps counts primal-dual iterations.
    NonConvergence is raised if the gap cannot be brought below tol within
    MAX_NEWTON iterations.
    """
    if not tol > 0:  # also rejects NaN, which would pass every gap test
        raise ValueError("tol must be positive")
    n = P.n
    A = chain_matrix(P)
    m = A.shape[0]
    # Strictly feasible start: every chain sum is at most longest/(longest+1).
    z = np.full(n, 1.0 / (A.sum(axis=1).max() + 1.0))
    lam = np.full(m, 1.0 / m)
    s = 1.0 - A @ z
    best = (_objective(z) - _dual_value(A, lam), z, lam)
    steps = stalled = 0
    # Stop at the float64 noise floor, or once the certified gap is below
    # tol and has not improved for three iterations.
    while steps < MAX_NEWTON and best[0] > 1e-14 and (best[0] > tol or stalled < 3):
        steps += 1
        w = A.T @ lam
        M = np.diag(w / z) + (A.T * (lam / s)) @ A

        def direction(c: np.ndarray | float):
            # Newton step for n z w = 1 and lam s = c, with ds = -A dz.
            dz = np.linalg.solve(M, 1.0 / (n * z) - A.T @ (c / s))
            ds = -(A @ dz)
            return dz, ds, (c - lam * ds) / s - lam

        dz, ds, dlam = direction(0.0)
        mu = float(lam @ s) / m
        mu_aff = float((lam + _max_step(lam, dlam) * dlam)
                       @ (s + min(_max_step(z, dz), _max_step(s, ds)) * ds)) / m
        dz, ds, dlam = direction((mu_aff / mu) ** 3 * mu - dlam * ds)
        alpha = 0.99 * min(_max_step(z, dz), _max_step(s, ds))
        # Rounding can leave a tiny slack at or below 0: halve the step.
        for _ in range(50):
            zn = z + alpha * dz
            sn = 1.0 - A @ zn
            if (zn > 0).all() and (sn > 0).all():
                break
            alpha *= 0.5
        else:
            break
        z, s = zn, sn
        lam = lam + 0.99 * _max_step(lam, dlam) * dlam
        gap = _objective(z) - _dual_value(A, lam)
        if gap < best[0]:
            best = (gap, z, lam)
            stalled = 0
        else:
            stalled += 1

    gap, z, lam = best
    scaled = z / (A * (A @ z)[:, None]).max(axis=0)
    if ((A @ scaled) <= 1.0).all():
        scaled_gap = _objective(scaled) - _dual_value(A, lam)
        if scaled_gap < gap:
            z, gap = scaled, scaled_gap
    if gap > tol:
        raise NonConvergenceError(f"certified duality gap {gap:.3e} above tol {tol:.3e}")
    if (z < 1e-9).any():
        raise NonConvergenceError("optimal point degenerate: some z*[i] < 1e-9")
    z = z.copy()
    z.setflags(write=False)
    return EntropySolution(H=_objective(z), z_star=z, kkt_residual=max(gap, 0.0), newton_steps=steps)


def lb(P: Poset, tol: float = 1e-8) -> float:
    """`EntropySolution.lb` of P's entropy program."""
    return entropy(P, tol=tol).lb
