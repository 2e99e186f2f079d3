import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from sortbounds import (
    LimitExceededError,
    LinearExtension,
    antichain_poset,
    build_poset,
    chain_poset,
    count_extensions,
    count_extensions_sp,
    extension_orders,
    extends,
    is_extension,
    itlb,
    maximal_chains,
    n_poset,
    parse_sp,
    random_poset,
    random_sp_expr,
    realize,
    sample_extension,
)
from sortbounds import linext
from sortbounds.polytopes import order_point_batch

from conftest import brute_force_extensions, enumerate_extensions, recursive_extension_orders


def test_count_examples(wedge):
    assert count_extensions(wedge) == 3
    assert count_extensions(antichain_poset(6)) == math.factorial(6)
    assert count_extensions(chain_poset(9)) == 1
    assert count_extensions(n_poset(1)) == 5
    assert count_extensions(n_poset(2)) == 53


def test_count_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        P = random_poset(n, rng, p=float(rng.uniform(0.1, 0.7)))
        assert count_extensions(P) == len(brute_force_extensions(n, P.pairs()))


def test_enumeration_matches_brute_force_order():
    # itertools.permutations filters stay in lex order, so the whole listing
    # must agree element by element
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        P = random_poset(n, rng, p=0.4)
        got = [e.order for e in enumerate_extensions(P)]
        assert got == brute_force_extensions(n, P.pairs())


def test_count_cap():
    with pytest.raises(LimitExceededError):
        count_extensions(antichain_poset(25))
    assert count_extensions_sp(parse_sp("antichain(21)")) == math.factorial(21)


def test_itlb_examples(wedge):
    assert itlb(chain_poset(5)) == 0.0
    assert itlb(antichain_poset(3)) == pytest.approx(math.log(6), abs=1e-12)
    assert itlb(n_poset(1)) == pytest.approx(math.log(5), abs=1e-12)
    assert itlb(wedge) == pytest.approx(math.log(3), abs=1e-12)


def test_ln_big_precision():
    from sortbounds.linext import ln_count as _ln_big

    # counts too wide for float conversion still get 1e-12 accuracy
    x = (2**5000) * 3
    assert _ln_big(x) == pytest.approx(5000 * math.log(2) + math.log(3), rel=1e-13)
    assert _ln_big(math.factorial(300)) == pytest.approx(math.lgamma(301), rel=1e-13)
    assert _ln_big(1) == 0.0


def test_enumeration_lex_order(wedge):
    orders = [e.order for e in enumerate_extensions(wedge)]
    assert orders == [(1, 0, 2), (1, 2, 0), (2, 1, 0)]
    assert orders == sorted(orders)
    assert [e.order for e in enumerate_extensions(chain_poset(3))] == [(0, 1, 2)]
    assert len(list(enumerate_extensions(antichain_poset(2)))) == 2


def test_enumeration_matches_count(family8):
    for name, P in family8:
        if count_extensions(P) > 10_000:
            continue
        exts = list(enumerate_extensions(P))
        assert len(exts) == count_extensions(P), name
        assert len({e.rank for e in exts}) == len(exts), name
        assert all(is_extension(P, e) for e in exts), name


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(linext, "ENUM_CAP", 100)
    gen = enumerate_extensions(antichain_poset(10))
    with pytest.raises(LimitExceededError, match="exceed the enumeration cap 100"):
        next(gen)


def test_enumeration_cap_enforced_after_caching(monkeypatch):
    P = antichain_poset(4)
    assert len(list(enumerate_extensions(P))) == 24
    monkeypatch.setattr(linext, "ENUM_CAP", 5)
    with pytest.raises(LimitExceededError):
        list(enumerate_extensions(P))


def test_walks_run_under_a_lowered_recursion_limit():
    # counting, enumeration and the chain walk are loops: a recursion limit
    # a few frames above the caller leaves them the same results
    want_count = count_extensions(n_poset(5))
    twenty = realize(parse_sp("N(1) * chain(16)"))
    want_orders = recursive_extension_orders(twenty)
    long_chain = chain_poset(20)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 25)
    try:
        got_count = count_extensions(n_poset(5))
        got_orders = extension_orders(twenty)
        chains = maximal_chains(long_chain)
    finally:
        sys.setrecursionlimit(limit)
    assert got_count == want_count
    np.testing.assert_array_equal(got_orders, want_orders)
    assert chains == [tuple(range(20))]


@pytest.mark.parametrize("text", ["N(1)+antichain(6)", "antichain(9)"])
def test_extension_orders_peak_memory(text):
    # past the int64 ranks, the rows are read in blocks of 2**16 ranks: the
    # traced peak stays within 3x the returned int16 orders (756,000 and
    # 362,880 rows)
    P = realize(parse_sp(text))
    count_extensions(P)
    tracemalloc.start()
    try:
        orders = extension_orders(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * orders.nbytes


def test_sample_deterministic(wedge):
    assert sample_extension(wedge, 123) == sample_extension(wedge, 123)
    assert sample_extension(chain_poset(4), 9).order == (0, 1, 2, 3)


def test_sample_is_extension():
    rng = np.random.default_rng(8)
    for _ in range(20):
        P = random_poset(int(rng.integers(1, 9)), rng, p=0.3)
        assert is_extension(P, sample_extension(P, int(rng.integers(2**31))))


def test_sample_cap():
    with pytest.raises(LimitExceededError):
        sample_extension(antichain_poset(25), 0)


def _drawn_orders(P, samples, seed):
    """The extensions behind one seeded `order_point_batch`, read off each
    row by argsort, and how often each was drawn, in lex order."""
    orders = np.argsort(order_point_batch(P, samples, np.random.default_rng(seed)), axis=1)
    return np.unique(orders, axis=0, return_counts=True)


def _chisquare_uniformity(P, samples, seed):
    drawn, counts = _drawn_orders(P, samples, seed)
    np.testing.assert_array_equal(drawn, extension_orders(P))  # every extension, nothing else
    expected = samples / len(counts)
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, float(chi2.ppf(1 - 0.001, df=len(counts) - 1))


@pytest.mark.parametrize("build,n_exp", [
    (lambda: build_poset(3, [(2, 1)]), 3),
    (lambda: antichain_poset(3), 6),
    (lambda: n_poset(1), 5),
    (lambda: realize(parse_sp(". * (.+.+.) * (. + (. * .))")), 18),
])
def test_sampler_uniformity_chisquare(build, n_exp):
    P = build()
    assert count_extensions(P) == n_exp
    stat, crit = _chisquare_uniformity(P, 10**5, 2024)
    assert stat <= crit


def test_sampler_uniformity_across_family(family8):
    import zlib

    for name, P in family8:
        if not 2 <= count_extensions(P) <= 100:
            continue
        stat, crit = _chisquare_uniformity(P, 10**5, zlib.crc32(name.encode()))
        assert stat <= crit, name


def test_sampler_frequencies_small(wedge):
    # the two spec-level frequency checks at +-0.01
    samples = 10**5
    for P, seed, n_exp in ((wedge, 7, 3), (antichain_poset(2), 8, 2)):
        _, counts = _drawn_orders(P, samples, seed)
        assert len(counts) == n_exp
        assert np.abs(counts / samples - 1 / n_exp).max() <= 0.01


def test_count_monotone_under_extension():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 8))
        P = random_poset(n, rng, p=0.25)
        Q = random_poset(n, rng, p=0.55)
        if extends(Q, P):
            checked += 1
            assert count_extensions(Q) <= count_extensions(P)
    assert checked > 10


def test_count_sp_examples():
    for k in (1, 2, 3, 5):
        assert count_extensions_sp(parse_sp(f"chain({k}) + chain({k})")) == math.comb(2 * k, k)
    assert count_extensions_sp(parse_sp(". * .")) == 1
    e = parse_sp(". * (.+.+.) * (. + (. * .))")
    assert count_extensions_sp(e) == count_extensions(realize(e))


def test_count_sp_matches_dp_random():
    rng = np.random.default_rng(23)
    for _ in range(40):
        e = random_sp_expr(rng, int(rng.integers(1, 13)))
        if count_extensions_sp(e) <= 10**6:
            assert count_extensions_sp(e) == count_extensions(realize(e))


def test_count_sp_n_block_leaf():
    # N(2) is one N block, counted by the up-set DP
    assert count_extensions_sp(parse_sp("N(2)")) == 53


def test_linear_extension_validation():
    with pytest.raises(ValueError):
        LinearExtension((1, 1, 2))
    ext = LinearExtension.from_order((2, 0, 1))
    assert ext.rank == (2, 3, 1)
    assert ext.order == (2, 0, 1)
