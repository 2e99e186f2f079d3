import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sortbounds import (
    DomainError,
    LimitExceededError,
    NonConvergenceError,
    NotConsistentError,
    NotInChainPolytopeError,
    antichain_poset,
    build_poset,
    chain2_plus_point,
    chain_matrix,
    chain_polytope_volume_mc,
    chain_poset,
    count_extensions,
    diamond_poset,
    entropy,
    entropy_sp,
    fence_poset,
    lb,
    n_poset,
    orders_by_rank,
    parse_sp,
    qh_fraction,
    qh_mc,
    realize,
    sample_chain_point,
    sample_extension,
    sample_order_point,
    standard_family,
    transfer,
    transfer_inverse,
)
from sortbounds import polytopes
from sortbounds.orderstats import ks_critical, ks_statistic
from sortbounds.polytopes import (
    chain_point_batch,
    order_point_batch,
    transfer_batch,
    transfer_inverse_batch,
)

from conftest import seed_chain_polytope_volume_mc, seed_qh_mc


def test_transfer_examples(wedge):
    np.testing.assert_allclose(transfer(wedge, [0.5, 0.2, 0.7]), [0.3, 0.2, 0.7])
    y = np.array([0.4, 0.9, 0.1])
    np.testing.assert_allclose(transfer(antichain_poset(3), y), y)
    np.testing.assert_allclose(
        transfer(chain_poset(3), [0.1, 0.4, 0.9]), [0.1, 0.3, 0.5]
    )


def test_transfer_rejects_inconsistent(wedge):
    with pytest.raises(NotConsistentError):
        transfer(wedge, [0.2, 0.5, 0.7])  # violates 1 <= 0
    with pytest.raises(NotConsistentError):
        transfer(wedge, [0.5, 0.2, 1.4])


def test_transfer_inverse_examples(wedge):
    np.testing.assert_allclose(transfer_inverse(wedge, [0.5, 0.5, 1.0]), [1.0, 0.5, 1.0])
    np.testing.assert_allclose(transfer_inverse(wedge, [0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(
        transfer_inverse(wedge, transfer(wedge, [0.5, 0.2, 0.7])), [0.5, 0.2, 0.7]
    )


def test_transfer_inverse_rejects_outside(wedge):
    with pytest.raises(NotInChainPolytopeError):
        transfer_inverse(wedge, [0.9, 0.9, 0.5])  # chain sum 1.8 > 1
    with pytest.raises(NotInChainPolytopeError):
        transfer_inverse(wedge, [-0.1, 0.2, 0.5])


def test_transfer_and_inverse_reject_nan(wedge):
    # every feasibility check is written so that NaN fails it
    for y in ([np.nan, 0.5, 0.5], [0.5, np.nan, 0.5], [0.5, 0.2, np.nan]):
        with pytest.raises(NotConsistentError):
            transfer(wedge, y)
    for z in ([np.nan, 0.1, 0.1], [0.1, np.nan, 0.1], [0.1, 0.1, np.nan]):
        with pytest.raises(NotInChainPolytopeError):
            transfer_inverse(wedge, z)


def test_roundtrip_random_points(family8):
    rng = np.random.default_rng(99)
    for name, P in family8:
        Y = order_point_batch(P, 1000, rng)
        Z = transfer_batch(P, Y)
        assert np.abs(transfer_inverse_batch(P, Z) - Y).max() <= 1e-12, name
        # and the other composition order on chain points
        Z2 = chain_point_batch(P, 200, rng)
        assert np.abs(transfer_batch(P, transfer_inverse_batch(P, Z2)) - Z2).max() <= 1e-12, name


def test_transfer_feasibility_exact(family8):
    rng = np.random.default_rng(5)
    for name, P in family8:
        Z = transfer_batch(P, order_point_batch(P, 500, rng))
        assert (Z >= -1e-15).all(), name
        assert ((Z @ chain_matrix(P).T) <= 1.0 + 1e-12).all(), name


def test_entropy_wedge_exact_values(wedge):
    sol = entropy(wedge, tol=1e-9)
    assert sol.H == pytest.approx((2 / 3) * math.log(2), abs=1e-9)
    np.testing.assert_allclose(sol.z_star, [0.5, 0.5, 1.0], atol=1e-8)
    assert sol.kkt_residual <= 1e-9


def test_entropy_chain_and_antichain():
    for n in (2, 3, 5, 8):
        sol = entropy(chain_poset(n), tol=1e-9)
        assert sol.H == pytest.approx(math.log(n), abs=1e-9)
        np.testing.assert_allclose(sol.z_star, np.full(n, 1 / n), atol=1e-8)
    sol = entropy(antichain_poset(5), tol=1e-9)
    assert sol.H == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(sol.z_star, np.ones(5), atol=1e-8)


def test_entropy_rejects_bad_tol(wedge):
    with pytest.raises(ValueError):
        entropy(wedge, tol=0.0)
    # NaN fails every gap comparison, so it would return an uncertified
    # point if it were accepted; the check comes before the first step
    with pytest.raises(ValueError):
        entropy(fence_poset(6), tol=float("nan"))


def test_entropy_rejects_an_infinite_tol(wedge):
    # every gap is at most inf, so the starting point would be returned
    # with no step taken
    with pytest.raises(ValueError, match="finite"):
        entropy(wedge, tol=math.inf)


def test_ratio_test_without_a_decreasing_component_takes_the_full_step():
    x = np.array([1.0, 2.0, 3.0])
    # no component decreases: a zero, a negative zero and a positive one
    assert polytopes._max_step(x, np.array([0.0, -0.0, 5.0])) == 1.0
    assert polytopes._max_step(x, np.zeros(3)) == 1.0
    # otherwise the smallest -x_i/dx_i over dx_i < 0, capped at 1
    assert polytopes._max_step(x, np.array([-4.0, -0.0, 6.0])) == 0.25
    assert polytopes._max_step(x, np.array([-0.5, -1.0, 0.0])) == 1.0
    assert polytopes._max_step(x, np.array([-3.0, -7.0, -9.0])) == min(1 / 3, 2 / 7, 3 / 9)


def test_entropy_nonconvergence_with_no_step_budget(wedge, monkeypatch):
    monkeypatch.setattr(polytopes, "MAX_NEWTON", 0)
    with pytest.raises(NonConvergenceError):
        entropy(wedge, tol=1e-9)


def _grid_minimum(P, step):
    """Oracle: exhaustive objective scan over a grid inside the chain polytope."""
    A = chain_matrix(P)
    axis = np.arange(step, 1.0 + step / 2, step)
    best = math.inf
    cols = P.n - 1
    tail = np.array(list(itertools.product(axis, repeat=cols))) if cols else np.zeros((1, 0))
    for z0 in axis:
        pts = np.column_stack([np.full(len(tail), z0), tail])
        ok = (pts @ A.T <= 1.0 + 1e-12).all(axis=1)
        if ok.any():
            vals = -np.log(pts[ok]).mean(axis=1)
            best = min(best, float(vals.min()))
    return best


@pytest.mark.parametrize("build,step", [
    (lambda: chain_poset(2), 1e-3),
    (lambda: build_poset(3, [(2, 1)]), 5e-3),
    (lambda: antichain_poset(3), 5e-3),
    (lambda: chain_poset(3), 5e-3),
    (lambda: diamond_poset(), 0.02),
    (lambda: n_poset(1), 0.02),
])
def test_entropy_against_grid_oracle(build, step):
    P = build()
    sol = entropy(P, tol=1e-9)
    assert _grid_minimum(P, step) >= sol.H - 1e-3


@pytest.mark.filterwarnings("ignore:Values in x:RuntimeWarning")
def test_entropy_against_slsqp_oracle():
    # independent solver: projected NLP from a strictly feasible start
    from scipy.optimize import minimize
    from sortbounds import random_poset

    rng = np.random.default_rng(717)
    for _ in range(10):
        P = random_poset(int(rng.integers(2, 11)), rng, p=float(rng.uniform(0.15, 0.6)))
        A = chain_matrix(P)
        x0 = np.full(P.n, 1.0 / (A.sum(axis=1).max() + 1))
        got = minimize(
            lambda z: -np.log(z).mean(),
            x0,
            jac=lambda z: -1.0 / (P.n * z),
            constraints=[{"type": "ineq", "fun": lambda z: 1.0 - A @ z,
                          "jac": lambda z: -A}],
            bounds=[(1e-9, 1.0)] * P.n,
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-12},
        )
        assert got.success
        sol = entropy(P, tol=1e-9)
        assert sol.H == pytest.approx(got.fun, abs=1e-6)
        assert sol.H <= got.fun + 1e-9  # certified optimum is never worse


def test_entropy_larger_random_posets():
    from sortbounds import random_poset

    rng = np.random.default_rng(2718)
    for _ in range(8):
        P = random_poset(int(rng.integers(12, 17)), rng, p=float(rng.uniform(0.1, 0.4)))
        sol = entropy(P, tol=1e-9)
        assert sol.kkt_residual <= 1e-9
        assert (sol.z_star > 1e-9).all()
        A = chain_matrix(P)
        assert ((A @ sol.z_star) <= 1.0 + 1e-9).all()


def test_entropy_step_budget(family8):
    # a few primal-dual iterations per solve to a certified gap of 1e-12,
    # also on the 1458 maximal chains of the widest layered poset at n = 20;
    # the default tol of 1e-8 stops no later
    layered = realize(parse_sp("*".join(["antichain(3)"] * 6 + ["antichain(2)"])))
    assert chain_matrix(layered).shape == (1458, 20)
    for name, P in [*family8, ("layered", layered)]:
        sol = entropy(P, tol=1e-12)
        assert sol.newton_steps <= 30, name
        assert sol.kkt_residual <= 1e-12, name
        default = entropy(P)
        assert default.kkt_residual <= 1e-8, name
        assert default.newton_steps <= sol.newton_steps, name


def test_entropy_stops_at_its_certificate(family8):
    # the one stopping rule: the first iterate whose certified gap is at
    # most tol, so a smaller tol never takes fewer steps, and any two
    # results are within the sum of their gaps of each other (and 1e-14 of
    # rounding: a gap that rounds below 0 is reported as 0)
    from sortbounds import random_poset

    rng = np.random.default_rng(8128)
    randoms = [(f"random{k}", random_poset(20, rng, p=float(rng.uniform(0.1, 0.3))))
               for k in range(4)]
    for name, P in [*family8, *randoms]:
        tols = (1e-4, 1e-8, 1e-13)
        sols = [entropy(P, tol=tol) for tol in tols]
        ref = sols[-1]
        for tol, sol in zip(tols, sols):
            assert sol.kkt_residual <= tol, (name, tol)
            assert abs(sol.H - ref.H) <= sol.kkt_residual + ref.kkt_residual + 1e-14, (name, tol)
        steps = [sol.newton_steps for sol in sols]
        assert steps == sorted(steps), name


def test_entropy_finishing_step_is_exact_on_antichains():
    for n in (1, 2, 20):
        sol = entropy(antichain_poset(n))
        assert sol.H == 0.0 and (sol.z_star == 1.0).all()


def test_transfer_inverse_lists_no_chains(monkeypatch):
    # antichain(3)^6: 3**6 = 729 maximal chains, each summing to 6/7, none
    # of them listed
    P = realize(parse_sp("*".join(["antichain(3)"] * 6)))
    monkeypatch.setattr(polytopes, "maximal_chains", lambda P: pytest.fail("chains listed"))
    z = np.full(P.n, 1 / 7)
    y = transfer_inverse(P, z)
    assert y.max() == pytest.approx(6 / 7, abs=1e-15)
    np.testing.assert_allclose(transfer(P, y), z, atol=1e-15)
    with pytest.raises(NotInChainPolytopeError, match="chain sum"):
        transfer_inverse(P, np.full(P.n, 1 / 5))  # chain sums 6/5


def test_lb_examples(wedge):
    assert lb(chain_poset(4)) == pytest.approx(0.0, abs=1e-7)
    assert lb(chain_poset(20)) == 0.0  # exactly: the fold's n**n / R is 1
    assert lb(antichain_poset(4)) == pytest.approx(4 * math.log(4), abs=1e-7)
    assert lb(wedge) == pytest.approx(3 * (math.log(3) - (2 / 3) * math.log(2)), abs=1e-7)
    # 18 elements and 3**6 maximal chains, but no block: no count, no chain
    # list; the fold on the expression itself runs past the size cap
    P = realize(parse_sp("*".join(["antichain(3)"] * 6)))
    assert lb(P) == pytest.approx(18 * math.log(3), abs=1e-12)
    assert entropy_sp(parse_sp("*".join(["antichain(3)"] * 12))).lb == pytest.approx(
        36 * math.log(3), abs=1e-12)


def test_sample_order_point_respects_order():
    P = chain_poset(2)
    for seed in range(50):
        y = sample_order_point(P, seed)
        assert y[0] <= y[1]


def test_single_point_samplers_cap_n():
    # n = 21 is over the cap MAX_N = 20, so no poset reaches a sampler; at
    # the cap each draws
    with pytest.raises(LimitExceededError, match="n=21 exceeds the size cap 20"):
        antichain_poset(21)
    P = realize(parse_sp("chain(3) + chain(17)"))
    assert P.n == 20
    for sampler in (sample_order_point, sample_chain_point):
        assert sampler(P, 0).shape == (20,)
    assert sorted(sample_extension(P, 0).rank) == list(range(1, 21))
    assert orders_by_rank(P, [0]).shape == (1, 20)


def test_sample_order_point_uniform_marginals():
    P = antichain_poset(3)
    rng = np.random.default_rng(31)
    Y = order_point_batch(P, 20_000, rng)
    for i in range(3):
        assert ks_statistic(Y[:, i], lambda x: x) <= ks_critical(20_000, 0.001)


def test_sample_chain_point_triangle_mean():
    # C(chain2) is the triangle z1 + z2 <= 1; E[z1] = 1/3 by direct integration
    rng = np.random.default_rng(11)
    Z = chain_point_batch(chain_poset(2), 100_000, rng)
    se = Z[:, 0].std(ddof=1) / math.sqrt(len(Z))
    assert abs(Z[:, 0].mean() - 1 / 3) <= 4 * se


def test_sample_chain_point_wedge_log_mean(wedge):
    rng = np.random.default_rng(13)
    Z = chain_point_batch(wedge, 100_000, rng)
    vals = -np.log(Z).mean(axis=1)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 4 / 3) <= 4 * se


def test_order_point_gap_mean_matches_qh(wedge):
    # cross-module: E[-(1/n) sum ln d_i(y)] over O(P) equals the averaged
    # entropy computed on the chain polytope
    rng = np.random.default_rng(17)
    Y = order_point_batch(wedge, 100_000, rng)
    D = transfer_batch(wedge, Y)
    vals = -np.log(D).mean(axis=1)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - float(qh_fraction(wedge))) <= 4 * se


def test_sample_point_single_call_roundtrip(wedge):
    y = sample_order_point(wedge, 4)
    z = sample_chain_point(wedge, 4)
    np.testing.assert_allclose(transfer(wedge, y), z)


def test_volume_examples(wedge):
    est, se = chain_polytope_volume_mc(antichain_poset(3), 10_000, 0)
    assert est == 1.0 and se == 0.0
    est, se = chain_polytope_volume_mc(chain_poset(2), 100_000, 1)
    assert abs(est - 0.5) <= 4 * se
    est, se = chain_polytope_volume_mc(wedge, 100_000, 2)
    assert abs(est - 0.5) <= 4 * se


def test_volume_matches_extension_count(family8):
    for name, P in family8:
        if P.n > 8:
            continue
        est, se = chain_polytope_volume_mc(P, 200_000, 7)
        truth = count_extensions(P) / math.factorial(P.n)
        assert abs(est - truth) <= 4 * max(se, 1e-12) + 1e-9, name


# sha256 prefixes of the seeded sampler outputs, and qh_mc's values, so that
# any change to the draws shows; the batches of 64 read every rank of n2
# (N = 53 <= 64) and only the drawn ranks of fence8 (N = 1,385) and
# antichain10 (N = 10!)
SAMPLER_PINS = {
    ("n2", 0): ("5ea5a16e4a27ae85", "d7797e8192c967d3", "7848346f5fa4c234",
                (2.0623411163287417, 0.04336850926754781)),
    ("n2", 2024): ("1a60cf79ef4ea5f6", "ed374d5b94f90f7b", "22ed76071f859b58",
                   (2.0857279608080685, 0.03115414343436844)),
    ("antichain10", 0): ("4e00512af37a7791", "4e00512af37a7791", "68077162f82b5204",
                         (0.9350511900643428, 0.03607770467365709)),
    ("antichain10", 2024): ("75d68b146aa9cd4d", "75d68b146aa9cd4d", "dd40f51cb6940d2c",
                            (0.9922085551032521, 0.04030281666236703)),
    ("fence8", 0): ("07f5b122d8a3243d", "4101f741db3ae9fb", "76cdd5df002737c4",
                    (1.4920854395851633, 0.038599345539042304)),
    ("fence8", 2024): ("221e63fbd2bbe42f", "1fdab1862d6e5b50", "0875108c05afa87d",
                       (1.5683494847311712, 0.0380100908223356)),
}


@pytest.mark.parametrize("key", sorted(SAMPLER_PINS))
def test_seeded_samplers_are_pinned(key):
    name, seed = key
    P = {"n2": n_poset(2), "antichain10": antichain_poset(10), "fence8": fence_poset(8)}[name]

    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

    order_pt, chain_pt, batch, mc = SAMPLER_PINS[key]
    assert digest(sample_order_point(P, seed)) == order_pt
    np.testing.assert_array_equal(sample_order_point(P, seed),
                                  order_point_batch(P, 1, np.random.default_rng(seed))[0])
    assert digest(sample_chain_point(P, seed)) == chain_pt
    assert digest(order_point_batch(P, 64, np.random.default_rng(seed))) == batch
    # qh_mc averages np.log, whose last bit may differ between SIMD builds
    assert qh_mc(P, 64, seed) == pytest.approx(mc, rel=1e-13)


# chain_polytope_volume_mc's estimates, pinned exactly: the hits are counted in
# integers, and every case but fence8 spans more than one chunk of rows
VOLUME_PINS = {
    ("fence8", 10_000, 0): (0.0328, 0.0017811277326458088),
    ("chain2+point", 250_000, 3): (0.500064, 0.000999999991808),
    ("diamond", 250_000, 4): (0.082428, 0.0005500313620731094),
    ("antichain(4)*antichain(4)", 100_000, 5): (0.01435, 0.0003760861271038856),
}


@pytest.mark.parametrize("key", sorted(VOLUME_PINS))
def test_seeded_volumes_are_pinned(key):
    name, samples, seed = key
    P = {"fence8": fence_poset(8), "chain2+point": chain2_plus_point(),
         "diamond": diamond_poset()}.get(name) or realize(parse_sp(name))
    assert chain_polytope_volume_mc(P, samples, seed) == VOLUME_PINS[key]


def test_volume_chunks_cap_the_chain_sums():
    # antichain(3)^6: 729 chains on 18 elements; 10^5 rows of chain sums at
    # once would take 583 MB
    P = realize(parse_sp("*".join(["antichain(3)"] * 6)))
    assert len(chain_matrix(P)) == 729
    tracemalloc.start()
    try:
        est, se = chain_polytope_volume_mc(P, 100_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert (est, se) == (0.0, 0.0)  # the volume (3!)^6/18! is about 7e-12


@pytest.mark.parametrize("seed", range(4))
def test_mc_row_tests_match_the_row_wise_oracles(seed):
    for name, P in standard_family(max_n=8, seed=seed):
        assert chain_polytope_volume_mc(P, 5_000, seed) == seed_chain_polytope_volume_mc(
            P, 5_000, seed), name
        assert qh_mc(P, 2_000, seed) == seed_qh_mc(P, 2_000, seed), name


def test_mc_refuses_too_few_samples(wedge):
    for samples in (0, -1):
        with pytest.raises(DomainError, match="at least 1 sample"):
            chain_polytope_volume_mc(wedge, samples, 0)
    for samples in (1, 0):
        with pytest.raises(DomainError, match="at least 2 samples"):
            qh_mc(wedge, samples, 0)
    assert chain_polytope_volume_mc(wedge, 1, 0)[1] == 0.0
