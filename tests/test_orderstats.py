import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from sortbounds import (
    DomainError,
    LinearExtension,
    antichain_poset,
    chain_poset,
    closed_form_checks,
    d_vector,
    density_cdf,
    density_f,
    exp_ln_gap_check,
    gap_distribution_check,
    gap_distribution_family,
    harmonic,
    harmonic_table,
    ks_critical,
    ks_statistic,
)
from sortbounds.orderstats import sorted_uniforms

from conftest import seed_exp_ln_gap_check


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)


def test_harmonic_difference_exact():
    for q in (1, 2, 17, 100, 999, 5000, 10_000):
        assert harmonic(q) - harmonic(q - 1) == Fraction(1, q)
    # spot check a full independent summation
    assert harmonic(200) == sum((Fraction(1, i) for i in range(1, 201)), Fraction(0))


def test_harmonic_rejects_negative():
    with pytest.raises(DomainError):
        harmonic(-1)


def test_harmonic_table_exact():
    H = list(itertools.accumulate((Fraction(1, i) for i in range(1, 61)), initial=Fraction(0)))
    for m in range(61):
        L, LH = harmonic_table(m)
        assert L == math.lcm(*range(1, m + 1))
        assert [Fraction(h, L) for h in LH] == H[: m + 1]
    with pytest.raises(DomainError, match="must be >= 0"):
        harmonic_table(-1)


def test_density_examples():
    for s in (0.0, 0.3, 1.0):
        assert density_f(1, 0, s) == 1.0
    assert density_f(2, 1, 0.3) == pytest.approx(0.6)
    with pytest.raises(DomainError):
        density_f(3, 3, 0.5)
    with pytest.raises(DomainError):
        density_f(3, 1, 1.5)


def test_density_integrates_to_one():
    for n in (1, 2, 5, 12, 30):
        for k in range(0, n, max(1, n // 4)):
            val, _ = integrate.quad(lambda s: density_f(n, k, s), 0, 1,
                                    epsabs=1e-12, epsrel=1e-12, limit=200)
            assert abs(val - 1.0) <= 1e-10, (n, k)


def test_density_cdf_matches_quadrature():
    for n, k, x in [(5, 2, 0.4), (8, 0, 0.7), (6, 5, 0.2)]:
        num, _ = integrate.quad(lambda s: density_f(n, k, s), 0, x,
                                epsabs=1e-12, epsrel=1e-12)
        assert density_cdf(n, k, x) == pytest.approx(num, abs=1e-10)
    assert density_cdf(5, 2, 0.0) == 0.0
    assert density_cdf(5, 2, 1.0) == pytest.approx(1.0)


def binomial_tail(n, k, x):
    """Oracle: the CDF term by term, sum_{l>k} C(n,l) x^l (1-x)^(n-l)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for l in range(k + 1, n + 1):
        out += math.comb(n, l) * x**l * (1.0 - x) ** (n - l)
    return out


def test_density_cdf_matches_binomial_tail():
    grid = np.concatenate([np.linspace(0.0, 1.0, 1001), np.random.default_rng(0).random(1000)])
    for n in range(1, 13):
        for k in range(n):
            np.testing.assert_allclose(density_cdf(n, k, grid), binomial_tail(n, k, grid),
                                       rtol=0.0, atol=1e-14, err_msg=f"n={n}, k={k}")
    assert density_cdf(5, 2, 0.0) == 0.0
    scalar = density_cdf(5, 2, 0.3)
    assert type(scalar) is np.ndarray and scalar.shape == () and scalar.dtype == np.float64


def test_density_cdf_refuses_points_outside_the_unit_interval():
    # as density_f does, NaN included
    for x in (-0.5, 1.5, np.nan, [-0.5, 1.5, 2.0], [0.2, np.nan]):
        with pytest.raises(DomainError):
            density_cdf(5, 2, x)
    with pytest.raises(DomainError):
        density_f(5, 2, np.nan)
    assert density_cdf(5, 2, [0.0, 1.0]).tolist() == [0.0, 1.0]


def test_closed_form_examples():
    r = closed_form_checks(5, 3, 0.25)
    assert r.i_residual <= 1e-8
    # survival at s = 0 is total probability
    for n, k in [(4, 0), (6, 3), (9, 8)]:
        J = n * math.comb(n - 1, k) * integrate.quad(
            lambda t: t**k * (1 - t) ** (n - k - 1), 0, 1)[0]
        assert J == pytest.approx(1.0, abs=1e-10)
        assert closed_form_checks(n, k, 0.0).j_residual <= 1e-8
    # expectation of log at (10, 3) is -(1/4 + ... + 1/10)
    r = closed_form_checks(10, 3, 0.5)
    assert r.h_residual <= 1e-8
    assert float(harmonic(3) - harmonic(10)) == pytest.approx(
        -sum(1 / i for i in range(4, 11))
    )


def test_closed_form_grid_small():
    for n in range(2, 11):
        for k in range(n):
            for s in (0.0, 0.5, 1.0):
                r = closed_form_checks(n, k, s)
                assert r.j_residual <= 1e-8, (n, k, s)
                assert r.h_residual <= 1e-8, (n, k, s)
                if k >= 1:
                    assert r.i_residual <= 1e-8, (n, k, s)


def test_closed_form_domain():
    with pytest.raises(DomainError):
        closed_form_checks(4, 4, 0.5)
    with pytest.raises(DomainError):
        closed_form_checks(4, 1, 1.2)
    assert closed_form_checks(4, 0, 0.5).i_residual is None


def test_ks_statistic_against_known():
    # uniform data against the uniform CDF has tiny distance
    rng = np.random.default_rng(0)
    data = rng.random(50_000)
    assert ks_statistic(data, lambda x: x) <= ks_critical(50_000, 0.001)
    # and against a wrong CDF the distance is large
    assert ks_statistic(data, lambda x: x**2) > 0.1


def test_ks_statistic_refuses_empty_data():
    with pytest.raises(DomainError, match="at least one"):
        ks_statistic(np.array([]), lambda x: x)


@pytest.mark.parametrize("samples", [0, -1])
def test_gap_checks_refuse_sample_counts_below_one(samples):
    with pytest.raises(DomainError, match="at least 1 sample"):
        gap_distribution_check(4, 1, 1, samples, 0)
    with pytest.raises(DomainError, match="at least 2 samples"):
        exp_ln_gap_check(4, 1, 1, samples, 0)
    with pytest.raises(DomainError, match="at least 1 sample"):
        gap_distribution_family(4, samples, 0)
    # one sample is enough for a KS distance
    assert 0.0 < gap_distribution_check(4, 1, 1, 1, 0) <= 1.0


def test_ks_critical_formula():
    assert ks_critical(10**5, 0.001) * math.sqrt(10**5) == pytest.approx(1.9495, abs=1e-3)
    with pytest.raises(DomainError):
        ks_critical(100)


def test_gap_distribution_single_uniform():
    # n = 1 with the lower boundary: the gap is the value itself, uniform
    ks = gap_distribution_check(1, 0, 1, 10**5, 3)
    assert ks <= ks_critical(10**5, 0.001)


def test_gap_distribution_examples():
    assert gap_distribution_check(5, 2, 2, 10**5, 42) <= ks_critical(10**5, 0.001)
    with pytest.raises(DomainError):
        gap_distribution_check(5, 3, 3, 10**4, 0)


def test_gap_distribution_independent_of_position():
    # the two-sample distance between gaps at different i stays below the
    # 0.001 two-sample critical value
    rng = np.random.default_rng(9)
    n, d, samples = 6, 2, 10**5
    z1 = sorted_uniforms(n, samples, rng)
    z2 = sorted_uniforms(n, samples, rng)
    g1 = np.sort(z1[:, 0 + d] - z1[:, 0])   # i = 1
    g2 = np.sort(z2[:, 2 + d] - z2[:, 2])   # i = 3
    grid = np.concatenate([g1, g2])
    c1 = np.searchsorted(g1, grid, side="right") / samples
    c2 = np.searchsorted(g2, grid, side="right") / samples
    dist = float(np.abs(c1 - c2).max())
    crit = math.sqrt(-0.5 * math.log(0.001 / 2)) * math.sqrt(2 / samples)
    assert dist <= crit


def test_exp_ln_gap_examples():
    # chain(3), identity: element 3 has gap 1 above z_2, target H_0 - H_3
    res, se = exp_ln_gap_check(3, 2, 1, 10**5, 5)
    assert res <= 4 * se
    # antichain(4), identity, top element: gap 4 from 0, target H_3 - H_4 = -1/4
    res, se = exp_ln_gap_check(4, 0, 4, 10**5, 6)
    assert res <= 4 * se
    # 2-chain, top element: exact integral 2 int int ln(y2 - y1) = -3/2
    res, se = exp_ln_gap_check(2, 1, 1, 10**5, 7)
    assert res <= 4 * se
    exact = 2 * integrate.dblquad(
        lambda y2, y1: math.log(y2 - y1), 0, 1, lambda y1: y1, lambda y1: 1
    )[0]
    assert exact == pytest.approx(-1.5, abs=1e-9)
    assert float(harmonic(0) - harmonic(2)) == -1.5


@pytest.mark.parametrize("P, rank, i", [
    (chain_poset(3), (1, 2, 3), 2),
    (antichain_poset(4), (1, 2, 3, 4), 3),
    (chain_poset(2), (1, 2), 1),
])
def test_exp_ln_gap_matches_seed_on_suite_cases(P, rank, i):
    ext = LinearExtension(rank)
    d = d_vector(P, ext)[i]
    for seed in (0, 5, 2**31 - 1):
        assert (exp_ln_gap_check(P.n, rank[i] - d, d, 10**4, seed)
                == seed_exp_ln_gap_check(P, ext, i, 10**4, seed))


@pytest.mark.parametrize("n, i, d", [(3, -1, 1), (3, 0, 0), (3, 2, 2), (3, 3, 1)])
def test_exp_ln_gap_rejects_bad_gap(n, i, d):
    with pytest.raises(DomainError):
        exp_ln_gap_check(n, i, d, 10**4, 0)
    with pytest.raises(DomainError):
        gap_distribution_check(n, i, d, 10**4, 0)


def test_exp_ln_gap_needs_two_samples():
    with pytest.raises(DomainError):
        exp_ln_gap_check(3, 0, 1, 1, 0)
    res, se = exp_ln_gap_check(3, 0, 1, 2, 0)
    assert math.isfinite(res) and math.isfinite(se)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, float("nan"), float("inf")])
def test_ks_critical_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(DomainError):
        ks_critical(10**4, alpha)
    with pytest.raises(DomainError):
        ks_critical(10**4, alpha=alpha)


@pytest.mark.parametrize("samples", [1, 7, 10**4])
def test_sorted_uniforms_match_the_float_sort(samples):
    # the int64 sort of the bits gives np.sort's array bit for bit
    for n in range(1, 21):
        z = sorted_uniforms(n, samples, np.random.default_rng(n))
        want = np.sort(np.random.default_rng(n).random((samples, n)), axis=1)
        np.testing.assert_array_equal(z.view(np.int64), want.view(np.int64))


class _StubGenerator:
    """Stands in for a Generator: `random(shape)` returns rows drawn from a
    few values in [0, 1), with exact zeros, subnormals and repeats."""

    VALUES = np.array([0.0, 5e-324, 2.0**-1022, 0.25, 0.5, 0.5, 1.0 - 2.0**-53])

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        return self.rng.choice(self.VALUES, size=shape)


@pytest.mark.parametrize("n", [2, 3, 6, 20])
def test_sorted_uniforms_sort_zeros_and_ties_as_floats(n):
    z = sorted_uniforms(n, 500, _StubGenerator(n))
    want = np.sort(_StubGenerator(n).random((500, n)), axis=1)
    assert (want == 0.0).any() and (np.diff(want, axis=1) == 0.0).any()
    np.testing.assert_array_equal(z.view(np.int64), want.view(np.int64))


# each gap check's values at a few (n, i, d, seed) with 10^4 samples, so that
# any change to the sorted-uniform draws shows
GAP_PINS = {
    (2, 0, 2, 0): (0.010764863420025084, (0.009721047583280795, 0.004937110771930485)),
    (3, 1, 1, 7): (0.008037701941005282, (0.011559703835197777, 0.011580923798374389)),
    (5, 2, 3, 2024): (0.008656781357862076, (0.002587734014624865, 0.004572426923130457)),
    (6, 0, 1, 11): (0.009979015654788814, (0.004112358837365271, 0.012325405828903064)),
    (6, 4, 2, 3): (0.011715121540155193, (0.009123493917791992, 0.007092581264821587)),
}


@pytest.mark.parametrize("key", sorted(GAP_PINS))
def test_seeded_gap_checks_are_pinned(key):
    ks, expln = GAP_PINS[key]
    assert gap_distribution_check(*key[:3], 10**4, key[3]) == ks
    # exp_ln_gap_check averages np.log, whose last bit may differ between SIMD builds
    assert exp_ln_gap_check(*key[:3], 10**4, key[3]) == pytest.approx(expln, rel=1e-13)


# a few of the family's distances at (n, seed) with 10^4 samples, so that any
# change to the shared draw or to the columns it reads shows
GAP_FAMILY_PINS = {
    (2, 0): {(1, 1): 0.01062810206868292},
    (4, 7): {(1, 1): 0.006011710706610662, (2, 2): 0.011098654887329917,
             (1, 3): 0.010826011383603007},
    (6, 2024): {(1, 5): 0.013678915956757631, (3, 2): 0.015216920476453955,
                (5, 1): 0.010734555335601081},
}


@pytest.mark.parametrize("n, seed", sorted(GAP_FAMILY_PINS))
def test_gap_distribution_family_reads_one_draw(n, seed):
    # every gap 1 <= i < i+d <= n, each tested on the columns of one draw
    z = sorted_uniforms(n, 10**4, np.random.default_rng(seed))
    want = {(i, d): ks_statistic(z[:, i + d - 1] - z[:, i - 1], lambda x: density_cdf(n, d - 1, x))
            for i in range(1, n) for d in range(1, n - i + 1)}
    assert len(want) == math.comb(n, 2)
    family = gap_distribution_family(n, 10**4, seed)
    assert family == want
    assert {gap: family[gap] for gap in GAP_FAMILY_PINS[n, seed]} == GAP_FAMILY_PINS[n, seed]
