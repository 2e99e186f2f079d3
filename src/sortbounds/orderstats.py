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
`density_cdf` the one binomial tail.  The module depends on no poset layer:
it imports nothing from the package but its errors, and a caller reads an
element's gap off an extension with `quantum.d_vector`.
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


def _check_nk(n: int, k: int, s: float = 0.0) -> None:
    if not 0 <= k < n:
        raise DomainError(f"need 0 <= k < n, got n={n}, k={k}")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s}")


def density_f(n: int, k: int, s: float) -> float:
    """Density of the (k+1)-st gap shape: n*C(n-1,k)*s^k*(1-s)^(n-k-1)."""
    _check_nk(n, k, s)
    return n * math.comb(n - 1, k) * s**k * (1.0 - s) ** (n - k - 1)


def density_cdf(n: int, k: int, x) -> np.ndarray | float:
    """CDF of density_f: the binomial tail sum_{l>k} C(n,l) x^l (1-x)^(n-l);
    raises DomainError, as density_f does, for any x outside [0, 1] or NaN."""
    _check_nk(n, k)
    x = np.asarray(x, dtype=float)
    outside = ~((x >= 0.0) & (x <= 1.0))
    if outside.any():
        raise DomainError(f"x must lie in [0, 1], got {x[outside].flat[0]}")
    # x^(k+1) sum_j C(n, k+1+j) x^j y^(m-j), y = 1 - x, m = n-k-1, nested in y
    y = 1.0 - x
    xp = np.ones_like(x)
    acc = np.full_like(x, math.comb(n, k + 1))
    for l in range(k + 2, n + 1):
        acc *= y
        xp *= x
        acc += math.comb(n, l) * xp
    acc *= x ** (k + 1)
    return acc


QUAD_TOL = 1e-12  # absolute and relative target of every gap-integral quadrature


def quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of f over [a, b] at QUAD_TOL; raises
    QuadratureFailureError when the error estimate exceeds 1e-8."""
    if a >= b:
        return 0.0
    # imported at the first quadrature: scipy.integrate brings scipy.optimize
    # and scipy.special, about 0.25 s that `analyze` would pay for nothing
    from scipy import integrate

    val, err = integrate.quad(f, a, b, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    if err > 1e-8:
        raise QuadratureFailureError(f"quadrature error estimate {err:.2e} too large")
    return val


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


_LOG_EPS = 1e-6  # split point isolating the ln t endpoint singularity


@lru_cache(maxsize=4096)
def _integral_H(n: int, k: int) -> float:
    """E[ln z] under density_f, by quadrature with the t = exp(-u) substitution
    on (0, eps) to remove the logarithmic singularity at 0."""
    body = quad(lambda t: t**k * (1.0 - t) ** (n - k - 1) * math.log(t), _LOG_EPS, 1.0)
    tail = quad(lambda u: -u * math.exp(-(k + 1) * u) * (1.0 - math.exp(-u)) ** (n - k - 1),
                -math.log(_LOG_EPS), np.inf)
    return n * math.comb(n - 1, k) * (body + tail)


def _closed_H(n: int, k: int) -> float:
    return float(harmonic(k) - harmonic(n))


def closed_form_checks(n: int, k: int, s: float) -> ClosedFormResiduals:
    """Quadrature-vs-closed-form residuals for the three gap integrals at s.

    The first integral needs 1 <= k <= n and its residual is None for k = 0;
    the expectation-of-log integral does not depend on s.  The closed form
    of the second is the binomial tail density_cdf(n, k, 1 - s).
    """
    _check_nk(n, k, s)
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
