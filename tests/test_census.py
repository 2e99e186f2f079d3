"""Exhaustive sweeps over `conftest.census`: every poset with n <= 6, one
per isomorphism class, so no small counterexample can hide."""
import math

from sortbounds import (
    certify_sandwich,
    count_extensions,
    count_extensions_sp,
    count_induced_N,
    entropy_sp,
    qlb_fraction,
    qlb_sp_fraction,
    recognize_sp,
    sp_decomposition,
)

from conftest import brute_force_induced_N, census, matrix_sp_decomposition


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
        assert qlb_sp_fraction(expr) == qlb_fraction(P)


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
