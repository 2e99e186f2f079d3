"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-10 map to test_c01 .. test_c10.  Criterion 11 of the contract is
the explicit statement that asymptotic behaviour (growth rates in k and n,
universal query-complexity constants) is out of desk-scale reach and is
covered by the finite-instance suites here instead; it carries no test.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""
import math
from fractions import Fraction

import numpy as np

from sortbounds import (
    analyze,
    antichain_poset,
    chain_polytope_volume_mc,
    chain_poset,
    closed_form_checks,
    count_extensions,
    entropy,
    gap_distribution_check,
    harmonic,
    hilbert_norm,
    itlb,
    ks_critical,
    lb,
    n_poset,
    nk_bounds,
    parallel,
    qh_fraction,
    qh_mc,
    qlb_fraction,
    qlb_sp_fraction,
    random_poset,
    realize,
    series,
    standard_family,
)
from sortbounds.families import sp_pair_family
from sortbounds.polytopes import (
    order_point_batch,
    transfer_batch,
    transfer_inverse_batch,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_wedge_entropy(wedge):
    sol = entropy(wedge, tol=1e-9)
    h_err = abs(sol.H - (2 / 3) * math.log(2))
    z_err = float(np.abs(sol.z_star - np.array([0.5, 0.5, 1.0])).max())
    ok = h_err <= 1e-6 and z_err <= 1e-5
    report("criterion 1 (wedge entropy)",
           ok, f"|H - (2/3)ln2| = {h_err:.2e}, max z error = {z_err:.2e}")


def test_c02_identity_and_mc():
    rng = np.random.default_rng(20240603)
    checked = 0
    worst_dev = 0.0
    while checked < 50:
        n = int(rng.integers(2, 9))
        P = random_poset(n, rng, p=float(rng.uniform(0.1, 0.6)))
        assert qlb_fraction(P) == P.n * (harmonic(P.n) - qh_fraction(P))
        est, se = qh_mc(P, 10**5, int(rng.integers(2**31)))
        dev = abs(est - float(qh_fraction(P))) / max(se, 1e-300)
        worst_dev = max(worst_dev, dev)
        assert dev <= 4.0, (n, P.pairs(), dev)
        checked += 1
    report("criterion 2 (identity + MC)",
           True, f"50 posets: identity exact, worst MC deviation {worst_dev:.2f} stderr")


def test_c03_composition_identities():
    rng = np.random.default_rng(77)
    pairs = sp_pair_family(100, rng, max_total_n=10, max_extensions=20_000)
    for e1, e2 in pairs:
        q1, q2 = qlb_fraction(realize(e1)), qlb_fraction(realize(e2))
        n1, n2 = e1.size, e2.size
        n = n1 + n2
        ser = qlb_fraction(realize(series(e1, e2)))
        par = qlb_fraction(realize(parallel(e1, e2)))
        assert ser == q1 + q2
        assert par == q1 + q2 + n * harmonic(n) - n1 * harmonic(n1) - n2 * harmonic(n2)
        assert qh_fraction(realize(parallel(e1, e2))) == Fraction(n1, n) * qh_fraction(
            realize(e1)
        ) + Fraction(n2, n) * qh_fraction(realize(e2))
        assert qlb_sp_fraction(series(e1, e2)) == ser
        assert qlb_sp_fraction(parallel(e1, e2)) == par
    report("criterion 3 (composition identities)",
           True, f"{len(pairs)} expression pairs, all identities exact in rationals")


def _family12():
    fam = standard_family(max_n=8, seed=2024)
    fam.append(("N3", n_poset(3)))
    fam.append(("chain12", chain_poset(12)))
    fam.append(("antichain9", antichain_poset(9)))
    rng = np.random.default_rng(5150)
    for t in range(6):
        n = int(rng.integers(9, 13))
        fam.append((f"big{t}_n{n}", random_poset(n, rng, p=float(rng.uniform(0.15, 0.5)))))
    return fam


def test_c04_sandwich():
    worst = 1.0
    count = 0
    for name, P in _family12():
        it = itlb(P)
        if it <= 1e-12:
            continue
        l = lb(P)
        assert it <= l + 1e-6, (name, it, l)
        assert l <= 2 * it + 1e-6, (name, it, l)
        worst = max(worst, l / it)
        count += 1
    report("criterion 4 (entropy sandwich)",
           True, f"{count} posets with ITLB > 0, max LB/ITLB = {worst:.4f}")


def test_c05_adversary_certificates(family8):
    checked = 0
    for name, P in family8:
        if count_extensions(P) > 2000:
            continue
        rep = analyze(P)
        assert rep.gamma_norm >= rep.qlb * (1 - 1e-6), name
        assert rep.max_gamma_ij_norm <= 2 * math.pi + 1e-6, name
        ratio = rep.gamma_norm / rep.max_gamma_ij_norm if rep.max_gamma_ij_norm else 0.0
        assert ratio >= rep.qlb / (2 * math.pi) - 1e-6, name
        assert rep.lemma1_ok and rep.lemma2_ok and rep.lemma3_ok, name
        checked += 1
    report("criterion 5 (adversary certificates)",
           True, f"{checked} posets with <= 2000 extensions, all three norm bounds hold")


def test_c06_hilbert_norms():
    values = {m: hilbert_norm(m) for m in (10, 50, 200)}
    below_pi = all(v < math.pi for v in values.values())
    above = values[200] > 3.10
    detail = (", ".join(f"m={m}: {v:.6f}" for m, v in values.items())
              + f"; below pi: {below_pi}, m=200 above 3.10: {above}")
    # The 3.10 threshold fails: the 200x200 section of the 1/(k+l-1) matrix
    # has spectral norm 2.2742669874 (confirmed against a dense eigensolve),
    # and the approach to pi is logarithmically slow.
    report("criterion 6 (Hilbert norms)", below_pi and above, detail)


def test_c07_transfer_roundtrip_and_volume(family8):
    rng = np.random.default_rng(31337)
    fam = list(family8) + [
        ("N2b", n_poset(2)),
        ("rand9", random_poset(9, rng, p=0.3)),
        ("rand10", random_poset(10, rng, p=0.35)),
    ]
    worst_rt = 0.0
    for name, P in fam:
        if P.n > 10:
            continue
        Y = order_point_batch(P, 1000, rng)
        back = transfer_inverse_batch(P, transfer_batch(P, Y))
        worst_rt = max(worst_rt, float(np.abs(back - Y).max()))
        assert worst_rt <= 1e-12, name
    vol_checked = 0
    for name, P in fam:
        if P.n > 8:
            continue
        est, se = chain_polytope_volume_mc(P, 10**6, int(rng.integers(2**31)))
        truth = count_extensions(P) / math.factorial(P.n)
        assert abs(est - truth) <= 4 * max(se, 1e-12) + 1e-9, (name, est, truth)
        vol_checked += 1
    report("criterion 7 (transfer map + volume)",
           True,
           f"round-trip error {worst_rt:.2e} on 1000 points/poset; "
           f"{vol_checked} volumes within 4 stderr at 1e6 samples")


def test_c08_order_statistics():
    worst = 0.0
    for n in range(1, 31):
        for k in range(0, n):
            for s in [t / 10 for t in range(11)]:
                r = closed_form_checks(n, k, s)
                worst = max(worst, r.j_residual, r.h_residual, r.i_residual or 0.0)
                assert worst <= 1e-8, (n, k, s)
    rng = np.random.default_rng(60601)
    crit = ks_critical(10**5, alpha=0.001)
    ks_count = 0
    worst_ks = 0.0
    for n in range(2, 9):
        for i in range(1, n):
            for d in range(1, n - i + 1):
                ks = gap_distribution_check(n, i, d, 10**5, int(rng.integers(2**31)))
                worst_ks = max(worst_ks, ks)
                assert ks <= crit, (n, i, d, ks)
                ks_count += 1
    report("criterion 8 (order statistics)",
           True,
           f"closed forms: worst residual {worst:.2e} over n <= 30; "
           f"{ks_count} gap KS tests, worst {worst_ks:.4f} < {crit:.4f}")


def test_c09_n_blowup_bounds(tech500):
    for k in (1, 2):
        b = nk_bounds(k)
        it = itlb(n_poset(k))
        assert b.itlb_lo < it < b.itlb_hi, k
        assert float(qlb_fraction(n_poset(k))) >= b.qlb_lo - 1e-9, k
    for k in range(1, 26):
        b = nk_bounds(k)
        assert b.qlb_lo >= tech500.c_min * math.log(math.comb(2 * k, k)) - 1e-9, k
    report("criterion 9 (N blowup bounds)",
           True,
           "k in {1,2}: exact counts strictly inside both brackets; "
           f"k <= 25: harmonic bound dominates c_min ln C(2k,k), c_min = {tech500.c_min:.6f}")


def test_c10_stirling_floor(tech500):
    assert tech500.c_min > 0
    rng = np.random.default_rng(424242)
    pairs = sp_pair_family(40, rng, max_total_n=10, max_extensions=10_000)
    exprs = [e for p in pairs for e in p] + [series(*p) for p in pairs] + [
        parallel(*p) for p in pairs
    ]
    checked = 0
    worst = math.inf
    for e in exprs:
        P = realize(e)
        if count_extensions(P) > 10**4:
            continue
        it = itlb(P)
        if it <= 1e-12:
            continue
        ratio = float(qlb_fraction(P)) / it
        worst = min(worst, ratio)
        assert ratio >= tech500.c_min - 1e-9, (str(e), ratio)
        checked += 1
    report("criterion 10 (harmonic/information floor)",
           True,
           f"c_min = {tech500.c_min:.9f} > 0 at argmin {tech500.argmin}; "
           f"{checked} SP posets with min QLB/ITLB = {worst:.4f}")
