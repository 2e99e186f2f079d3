"""Exhaustive sweeps over `conftest.census`: every poset with n <= 6, one
per isomorphism class, so no small counterexample can hide."""
import dataclasses
import math
from fractions import Fraction

import numpy as np

from sortbounds import (
    analyze,
    certify_sandwich,
    count_extensions,
    count_extensions_sp,
    count_induced_N,
    entropy_sp,
    extension_orders,
    qlb_fraction,
    qlb_sp_fraction,
    recognize_sp,
    sp_decomposition,
)

from conftest import brute_force_induced_N, brute_force_qlb, census, matrix_sp_decomposition


def test_census_counts_every_poset_once():
    # OEIS A000112, the posets on n unlabelled elements
    counts = [sum(P.n == n for P in census(6)) for n in range(1, 7)]
    assert counts == [1, 2, 5, 16, 63, 318]


def test_series_parallel_layer_on_every_small_poset():
    for P in census(6):
        expr = sp_decomposition(P)[0]
        assert count_induced_N(P) == brute_force_induced_N(P)
        assert (recognize_sp(P) is None) == (count_induced_N(P) > 0)
        assert sp_decomposition(P) == matrix_sp_decomposition(P)
        assert count_extensions_sp(expr) == count_extensions(P)
        assert qlb_sp_fraction(expr) == qlb_fraction(P) == brute_force_qlb(P.n, P.pairs())


def test_position_counts_are_log_concave_on_every_small_poset():
    # Stanley (1981): the extensions with element x at position k are
    # log-concave in k, with no internal zero
    for P in census(6):
        orders = extension_orders(P)
        counts = np.zeros((P.n, P.n), dtype=np.int64)
        np.add.at(counts, (orders, np.arange(P.n)), 1)  # counts[x, k]
        for row in counts.tolist():
            support = [k for k, c in enumerate(row) if c]
            assert support == list(range(support[0], support[-1] + 1))
            assert all(row[k] ** 2 >= row[k - 1] * row[k + 1] for k in range(1, P.n - 1))


def test_qlb_at_least_itlb_on_every_small_poset():
    # QLB >= ITLB is e^QLB >= N: every Taylor partial sum of e^QLB lies below
    # it when QLB > 0, so one that passes N proves QLB > ITLB exactly; a
    # chain has QLB = ITLB = 0
    for P in census(6):
        q, num = qlb_fraction(P), count_extensions(P)
        if num == 1:
            assert q == 0
            continue
        assert q > 0
        partial, term, k = Fraction(1), Fraction(1), 0
        while partial <= num:
            k += 1
            term *= q / k
            partial += term
            assert k <= 100, P.pairs()


def test_geometric_comparison_on_every_small_poset():
    # ROADMAP item 16, step 4: for a minimal x with 0 < pi_x < 1, where
    # pi_x = c_1 / N and c_k counts the extensions with x at position k,
    # g_x = sum_{k>=2} c_k / ((k - 1) N) >= -pi_x ln pi_x, that is
    # e^(g_x / pi_x) >= 1 / pi_x, decided by Taylor partial sums as above.
    # Each rest P - D of a census poset is a census class too, so this
    # covers the step for every ideal of every poset with n <= 6.
    cases = 0
    for P in census(6):
        orders = extension_orders(P)
        counts = np.zeros((P.n, P.n + 1), dtype=np.int64)
        np.add.at(counts, (orders, np.arange(1, P.n + 1)), 1)  # counts[x, k], k >= 1
        for x in np.flatnonzero(~P.rel.any(axis=0)).tolist():
            c = counts[x].tolist()
            if c[1] == len(orders):
                continue
            t = sum(Fraction(c[k], k - 1) for k in range(2, P.n + 1)) / c[1]
            partial, term, k = Fraction(1), Fraction(1), 0
            while partial < Fraction(len(orders), c[1]):
                k += 1
                term *= t / k
                partial += term
                assert k <= 100, (P.pairs(), x)
            cases += 1
    assert cases == 827


def test_exact_sandwich_agrees_with_float_on_every_small_poset():
    on_a_side = 0
    for P in census(6):
        num, fold = count_extensions(P), entropy_sp(sp_decomposition(P)[0])
        exact = certify_sandwich(num, fold.top, fold.leaves)
        assert exact
        # ln N <= LB <= 2 ln N in floats, where both margins decide it
        margins = (fold.lb - math.log(num), 2 * math.log(num) - fold.lb)
        if min(abs(m) for m in margins) > 1e-9:
            assert exact == (min(margins) > 0)
            continue
        # exactly on a side, as antichain(2) with LB = 2 ITLB: no leaf's
        # entropy enters the exact rule there
        assert min(margins) == 0.0 and not fold.leaves
        on_a_side += 1
    assert on_a_side == 32


def test_analyze_certifies_every_small_poset():
    # n <= 6 keeps every count under MATRIX_CAP, so no report field is null
    for P in census(6):
        rep = analyze(P)
        assert None not in dataclasses.astuple(rep), rep
        assert (rep.lemma1_ok, rep.lemma2_ok, rep.lemma3_ok, rep.sandwich_ok) == (True,) * 4, rep
