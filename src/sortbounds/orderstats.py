"""Order statistics of sorted uniform samples.

Provides exact harmonic numbers, the gap density

    f_{n,k}(s) = n * C(n-1, k) * s**k * (1-s)**(n-k-1),    0 <= k < n,

its closed-form integrals, and Monte-Carlo checks of the gap law for the
gap z_{i+d} - z_i of n sorted uniforms: `gap_distribution_check` (it is
f_{n,d-1}-distributed regardless of i), `gap_distribution_family` (the same
KS test for every gap of one draw) and `exp_ln_gap_check` (the harmonic law
E[ln(z_{i+d} - z_i)] = H_{d-1} - H_n behind QLB).  All three read a gap off
the sorted rows through the one helper `_gap`.

Each quantity has its one implementation here: `harmonic_table` holds every
harmonic number over one common denominator (`harmonic` and
`quantum.tech_constant` read it), `quad` is the one quadrature and
`density_cdf` the one binomial tail.  `quad` is a fixed numpy rule, so the
module depends on no part of scipy, and on no poset layer: it imports
nothing from the package but its errors, and a caller reads an element's gap
off an extension with `quantum.d_vector`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureFailureError


@lru_cache(maxsize=64)
def harmonic_table(m: int) -> tuple[int, tuple[int, ...]]:
    """(L, (L H_0, ..., L H_m)) over the common denominator L = lcm(1..m):
    every harmonic number up to H_m as an exact integer numerator, H_0 = 0."""
    if m < 0:
        raise DomainError(f"harmonic number index must be >= 0, got {m}")
    L = math.lcm(*range(1, m + 1))
    return L, tuple(itertools.accumulate(L // k if k else 0 for k in range(m + 1)))


def harmonic(q: int) -> Fraction:
    """Exact harmonic number H_q = sum_{i<=q} 1/i, read off harmonic_table(q)."""
    L, LH = harmonic_table(q)
    return Fraction(LH[q], L)


def _check_nk(n: int, k: int) -> None:
    if not 0 <= k < n:
        raise DomainError(f"need 0 <= k < n, got n={n}, k={k}")


def _unit_points(x) -> np.ndarray:
    """x as a float array; raises DomainError for any point outside [0, 1] or NaN."""
    x = np.asarray(x, dtype=float)
    outside = ~((x >= 0.0) & (x <= 1.0))
    if outside.any():
        raise DomainError(f"x must lie in [0, 1], got {x[outside].flat[0]}")
    return x


def density_f(n: int, k: int, s) -> np.ndarray:
    """Density of the (k+1)-st gap shape: n*C(n-1,k)*s^k*(1-s)^(n-k-1), at
    every point of s."""
    _check_nk(n, k)
    s = _unit_points(s)
    return n * math.comb(n - 1, k) * s**k * (1.0 - s) ** (n - k - 1)


def density_cdf(n: int, k: int, x) -> np.ndarray:
    """CDF of density_f: the binomial tail sum_{l>k} C(n,l) x^l (1-x)^(n-l),
    at every point of x; raises DomainError, as density_f does, for any x
    outside [0, 1] or NaN."""
    _check_nk(n, k)
    x = _unit_points(x)
    # x^(k+1) sum_j C(n, k+1+j) x^j y^(m-j), y = 1 - x, m = n-k-1, nested in y;
    # each term and x^(k+1) go through the one buffer `term`
    y = 1.0 - x
    xp = np.ones_like(x)
    term = np.empty_like(x)
    acc = np.full_like(x, math.comb(n, k + 1))
    for l in range(k + 2, n + 1):
        acc *= y
        xp *= x
        acc += np.multiply(xp, math.comb(n, l), out=term)
    acc *= np.power(x, k + 1, out=term)
    return acc


QUAD_PANELS = 52   # halvings toward a of `quad`'s panels
QUAD_ERROR = 1e-8  # largest |20-node sum - 10-node sum| that `quad` accepts


@lru_cache(maxsize=1)
def _graded_rule() -> tuple[np.ndarray, np.ndarray]:
    """(nodes u, weights W) of the graded Gauss-Legendre rule on [0, 1]:
    W[0] @ f(u) is the 10-node sum and W[1] @ f(u) the 20-node sum over the
    panels [2^-(j+1), 2^-j] for j < QUAD_PANELS and [0, 2^-QUAD_PANELS]."""
    edges = np.append(2.0 ** -np.arange(QUAD_PANELS + 1), 0.0)
    lo, width = edges[1:], edges[:-1] - edges[1:]
    nodes, weights = [], []
    for order in (10, 20):
        x, w = np.polynomial.legendre.leggauss(order)
        nodes.append((lo[:, None] + width[:, None] * (x + 1.0) / 2.0).ravel())
        weights.append((width[:, None] * w / 2.0).ravel())
    u = np.concatenate(nodes)
    W = np.zeros((2, len(u)))
    W[0, :len(nodes[0])], W[1, len(nodes[0]):] = weights
    u.flags.writeable = W.flags.writeable = False  # shared by every call
    return u, W


def quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integral of f over [a, b] by a graded Gauss-Legendre rule.

    [a, b] is split into panels that halve toward a, [a + h 2^-(j+1),
    a + h 2^-j] for j < QUAD_PANELS and [a, a + h 2^-QUAD_PANELS], h = b - a,
    and both the 10- and the 20-node rule run on every panel; f is called
    once, on the array of all their nodes.  The 20-node sum is returned, and
    its gap to the 10-node sum is the error estimate: above QUAD_ERROR, or
    not finite, it raises QuadratureFailureError.  The rule is exact to
    rounding for polynomials of degree <= 19, such as the gap densities, and
    the grading resolves an integrable singularity at a (ln t at a = 0, as
    in E[ln z]); f must be smooth everywhere else on [a, b].
    """
    if a >= b:
        return 0.0
    u, W = _graded_rule()
    h = b - a
    lo, hi = h * (W @ f(a + h * u))
    if not abs(hi - lo) <= QUAD_ERROR:
        raise QuadratureFailureError(
            f"quadrature error estimate {abs(hi - lo):.2e} above {QUAD_ERROR:.0e}")
    return float(hi)


@dataclass(frozen=True)
class ClosedFormResiduals:
    """Absolute gaps |quadrature - closed form| for the three gap integrals."""

    i_residual: float | None  # None when k = 0 (integral undefined)
    j_residual: float
    h_residual: float


def _integral_I(n: int, k: int, s: float) -> float:
    return k * math.comb(n, k) * quad(
        lambda t: t ** (n - k) * (1.0 - t - s) ** (k - 1), 0.0, 1.0 - s
    )


def _closed_I(n: int, k: int, s: float) -> float:
    return (1.0 - s) ** n


def _integral_J(n: int, k: int, s: float) -> float:
    return n * math.comb(n - 1, k) * quad(
        lambda t: t**k * (1.0 - t) ** (n - k - 1), 0.0, 1.0 - s
    )


@lru_cache(maxsize=4096)
def _integral_H(n: int, k: int) -> float:
    """E[ln z] under density_f, by one quadrature over [0, 1]: the graded
    rule resolves the logarithmic singularity at 0."""
    return n * math.comb(n - 1, k) * quad(
        lambda t: t**k * (1.0 - t) ** (n - k - 1) * np.log(t), 0.0, 1.0
    )


def _closed_H(n: int, k: int) -> float:
    return float(harmonic(k) - harmonic(n))


def closed_form_checks(n: int, k: int, s: float) -> ClosedFormResiduals:
    """Quadrature-vs-closed-form residuals for the three gap integrals at s.

    The first integral needs 1 <= k <= n and its residual is None for k = 0;
    the expectation-of-log integral does not depend on s.  The closed form
    of the second is the binomial tail density_cdf(n, k, 1 - s).
    """
    _check_nk(n, k)
    _unit_points(s)
    i_res = None
    if k >= 1:
        i_res = abs(_integral_I(n, k, s) - _closed_I(n, k, s))
    j_res = abs(_integral_J(n, k, s) - float(density_cdf(n, k, 1.0 - s)))
    h_res = abs(_integral_H(n, k) - _closed_H(n, k))
    return ClosedFormResiduals(i_res, j_res, h_res)


# ---------------------------------------------------------------------------
# Monte-Carlo distribution checks
# ---------------------------------------------------------------------------

def sorted_uniforms(n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """(samples, n) array of ascending uniforms per row, sorted as int64 bits: the
    draws lie in [0, 1), with no NaN or -0.0, and there a double orders as its bits."""
    u = rng.random((samples, n))
    u.view(np.int64).sort(axis=1)
    return u


def ks_statistic(data: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov distance of data against a CDF."""
    x = np.sort(np.asarray(data, dtype=float))
    m = len(x)
    if m == 0:
        raise DomainError("KS distance needs at least one data point")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / m))))


def ks_critical(samples: int, alpha: float = 0.001) -> float:
    """Asymptotic one-sample KS critical value at significance 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"significance level must lie in (0, 1), got {alpha}")
    if samples < 10**4:
        raise DomainError(f"asymptotic critical value needs >= 1e4 samples, got {samples}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(samples)


def _gap(z: np.ndarray, i: int, d: int) -> np.ndarray:
    """The gap z_{i+d} - z_i in each row of sorted uniforms z.

    i and d are 1-based with 0 <= i < i + d <= n; at i = 0 the gap is
    measured from the fixed lower boundary z_0 = 0, so it is z_d itself.
    """
    return z[:, i + d - 1] - (z[:, i - 1] if i >= 1 else 0.0)


def _gaps(n: int, i: int, d: int, samples: int, seed: int) -> np.ndarray:
    """The gap `_gap(z, i, d)` in each of `samples` rows z of n sorted
    uniforms drawn from default_rng(seed)."""
    if not 0 <= i < i + d <= n:
        raise DomainError(f"need 0 <= i < i+d <= n, got n={n}, i={i}, d={d}")
    if samples < 1:
        raise DomainError(f"need at least 1 sample, got {samples}")
    return _gap(sorted_uniforms(n, samples, np.random.default_rng(seed)), i, d)


def gap_distribution_check(n: int, i: int, d: int, samples: int, seed: int) -> float:
    """KS distance of the sorted-uniform gap z_{i+d} - z_i (see `_gap`)
    against f_{n,d-1}, whose CDF is the binomial tail density_cdf."""
    return ks_statistic(_gaps(n, i, d, samples, seed), lambda x: density_cdf(n, d - 1, x))


def gap_distribution_family(n: int, samples: int, seed: int) -> dict[tuple[int, int], float]:
    """{(i, d): KS distance of z_{i+d} - z_i against f_{n,d-1}} for every
    1 <= i < i + d <= n, all read off one draw of `samples` rows of n sorted
    uniforms from default_rng(seed).  The distances share the draw, so they
    are dependent: judge them together at a family-wise rate (Bonferroni)."""
    if samples < 1:
        raise DomainError(f"need at least 1 sample, got {samples}")
    z = sorted_uniforms(n, samples, np.random.default_rng(seed))
    return {(i, d): ks_statistic(_gap(z, i, d), lambda x: density_cdf(n, d - 1, x))
            for i in range(1, n) for d in range(1, n - i + 1)}


def exp_ln_gap_check(n: int, i: int, d: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo check of the harmonic gap law E[ln(z_{i+d} - z_i)] =
    H_{d-1} - H_n, with i and d as in `_gap`: (|MC mean - target|, standard
    error of the MC mean) from at least 2 samples.  An element of rank r and
    predecessor gap d (`quantum.d_vector`) in an extension is the case i = r - d.
    """
    if samples < 2:
        raise DomainError(f"need at least 2 samples for a standard error, got {samples}")
    vals = np.log(_gaps(n, i, d, samples, seed))
    target = float(harmonic(d - 1) - harmonic(n))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return abs(mean - target), stderr
