"""Order statistics of sorted uniform samples.

Provides exact harmonic numbers, the gap density

    f_{n,k}(s) = n * C(n-1, k) * s**k * (1-s)**(n-k-1),    0 <= k < n,

its closed-form integrals, and Monte-Carlo checks that the gap z_{i+d} - z_i
of sorted uniforms is f_{n,d-1}-distributed regardless of i.

Each quantity has its one implementation here: `harmonic_table` holds every
harmonic number over one common denominator (`harmonic`,
`quantum.qlb_fraction` and `quantum.tech_constant` all read it), `quad` is
the one quadrature and `density_cdf` the one binomial tail.
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
from .linext import LinearExtension, is_extension
from .polytopes import transfer_batch
from .poset import Poset


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
    """CDF of density_f: the binomial tail sum_{l>k} C(n,l) x^l (1-x)^(n-l)."""
    _check_nk(n, k)
    x = np.asarray(x, dtype=float)
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
    """(samples, n) array of ascending uniforms per row."""
    u = rng.random((samples, n))
    u.sort(axis=1)
    return u


def ks_statistic(data: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov distance of data against a CDF."""
    x = np.sort(np.asarray(data, dtype=float))
    m = len(x)
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / m))))


def ks_critical(samples: int, alpha: float = 0.001) -> float:
    """Asymptotic one-sample KS critical value at significance alpha."""
    if samples < 10**4:
        raise DomainError(f"asymptotic critical value needs >= 1e4 samples, got {samples}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(samples)


def gap_distribution_check(n: int, i: int, d: int, samples: int, seed: int) -> float:
    """KS distance of the sorted-uniform gap z_{i+d} - z_i against f_{n,d-1}.

    i and d are 1-based with 1 <= i < i + d <= n; i = 0 is also accepted and
    measures from the fixed lower boundary (z_0 = 0), where the gap is the
    d-th order statistic itself, with the same law.  The reference CDF is
    the binomial tail of density_cdf.
    """
    if not (0 <= i and 1 <= d and i + d <= n):
        raise DomainError(f"need 0 <= i < i+d <= n, got n={n}, i={i}, d={d}")
    rng = np.random.default_rng(seed)
    z = sorted_uniforms(n, samples, rng)
    lower = z[:, i - 1] if i >= 1 else 0.0
    gaps = z[:, i + d - 1] - lower
    return ks_statistic(gaps, lambda x: density_cdf(n, d - 1, x))


def exp_ln_gap_check(
    P: Poset, ext: LinearExtension, i: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo check of E[ln d_i(y)] = H_{d_i - 1} - H_n over one simplex.

    y ranges uniformly over the order simplex of the total order ext; the
    predecessor gap d_i(y) is then a sorted-uniform gap with lag d_i(ext).
    Returns (|MC mean - target|, standard error of the MC mean).
    """
    if not is_extension(P, ext):
        raise DomainError("ext is not a linear extension of P")
    n = P.n
    r = ext.rank[i]
    r_prev = r - int(transfer_batch(P, np.array([ext.rank]))[0, i])
    rng = np.random.default_rng(seed)
    z = sorted_uniforms(n, samples, rng)
    lower = z[:, r_prev - 1] if r_prev >= 1 else 0.0
    vals = np.log(z[:, r - 1] - lower)
    target = float(harmonic(r - r_prev - 1) - harmonic(n))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return abs(mean - target), stderr
