import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from sortbounds import (
    Block,
    DomainError,
    EntropySolution,
    LimitExceededError,
    LinearExtension,
    NotAnExtensionError,
    Poset,
    antichain_poset,
    build_adversary,
    build_poset,
    certify_sandwich,
    chain_poset,
    count_extensions,
    count_extensions_sp,
    d_vector,
    entropy_sp,
    extension_orders,
    fence_poset,
    harmonic,
    hilbert_norm,
    itlb,
    lb,
    n_poset,
    nk_bounds,
    norm_bracket,
    parallel,
    parse_sp,
    qh_fraction,
    qh_mc,
    qlb_fraction,
    qlb_sp_fraction,
    random_poset,
    random_sp_expr,
    realize,
    series,
    sp_decomposition,
    standard_family,
    tech_constant,
    uniform_rayleigh,
)
from sortbounds import quantum
from sortbounds.polytopes import transfer_batch
from sortbounds.quantum import (
    TECH_MAX_N,
    TWO_PI,
    _maximal_types,
    _window_matrix,
    _window_types,
    analyze,
    max_gamma_ij_norm,
)

from conftest import (
    all_types_max_gamma_ij_norm,
    brute_force_qlb,
    enumerate_extensions,
    enumeration_qlb,
    gamma_ij,
    index_of,
    nonzero_entries,
    per_mask_max_gamma_ij_norm,
)


def test_d_vector_examples(wedge):
    ext = LinearExtension.from_order((1, 2, 0))  # element order (2, 3, 1) 1-based
    assert d_vector(wedge, ext) == (2, 1, 2)
    chain5 = chain_poset(5)
    assert d_vector(chain5, LinearExtension((1, 2, 3, 4, 5))) == (1, 1, 1, 1, 1)
    ext = LinearExtension.from_order((2, 0, 1))
    assert d_vector(antichain_poset(3), ext) == ext.rank


def test_d_vector_rejects_non_extension(wedge):
    with pytest.raises(NotAnExtensionError):
        d_vector(wedge, LinearExtension((1, 2, 3)))  # puts 1 below 2


def test_d_vector_is_integer_transfer(wedge):
    # the gap vector is the transfer map evaluated at ranks/n, scaled back
    from sortbounds import transfer

    for ext_order in [(1, 0, 2), (1, 2, 0), (2, 1, 0)]:
        ext = LinearExtension.from_order(ext_order)
        scaled = transfer(wedge, np.asarray(ext.rank) / wedge.n) * wedge.n
        assert tuple(np.rint(scaled).astype(int)) == d_vector(wedge, ext)


def test_qlb_examples(wedge):
    assert qlb_fraction(chain_poset(6)) == 0
    assert qlb_fraction(antichain_poset(2)) == 1
    assert qlb_fraction(wedge) == Fraction(3, 2)
    assert qlb_fraction(antichain_poset(3)) == Fraction(5, 2)
    assert qlb_fraction(n_poset(1)) == Fraction(11, 5)
    assert qlb_fraction(n_poset(2)) == Fraction(785, 159)


def test_qlb_matches_brute_force():
    rng = np.random.default_rng(2)
    from sortbounds import random_poset

    for _ in range(15):
        n = int(rng.integers(1, 7))
        P = random_poset(n, rng, p=float(rng.uniform(0.1, 0.6)))
        assert qlb_fraction(P) == brute_force_qlb(n, P.pairs())


def test_qlb_matches_enumeration_at_n20():
    # N(5): 20 elements, 124,130 extensions, 96 ideals; and an 18-element
    # block with 100,710 extensions
    block = random_poset(18, np.random.default_rng(11), p=0.3)
    assert isinstance(sp_decomposition(block)[0], Block)
    assert count_extensions(block) == 100_710
    for P in (n_poset(5), block):
        assert qlb_fraction(P) == enumeration_qlb(P)


@pytest.mark.parametrize("text", [
    "chain(5)+chain(5)+chain(5)+chain(5)",          # 1,296 ideals
    "chain(4)+chain(4)+chain(4)+chain(4)+chain(4)",  # 3,125 ideals
    "N(1)+N(1)+chain(5)+chain(5)",                   # 2,304 ideals
])
def test_qlb_exact_at_large_counts(text, monkeypatch):
    # the DP's int64 sums stay exact far past the enumeration cap
    monkeypatch.setattr(quantum, "ENUM_CAP", math.factorial(20))
    e = parse_sp(text)
    P = realize(e)
    assert count_extensions(P) > 10**10
    assert qlb_fraction(P) == qlb_sp_fraction(e)


def test_sp_folds_run_past_the_size_cap():
    # 12 antichain(3) factors in series have 3**12 maximal chains on 36
    # elements, past the size cap that `realize` holds, but no block: the
    # folds list no chain, and H = ln 12 (R = 12**36),
    # LB = ln(36**36 / 12**36) = 36 ln 3, QLB = 12 (3 H_3 - 3) = 30
    expr = parse_sp("*".join(["antichain(3)"] * 12))
    num = count_extensions_sp(expr)
    assert num == 6**12
    fold = entropy_sp(expr)
    assert fold.H == pytest.approx(math.log(12), abs=1e-12)
    assert fold.lb == pytest.approx(36 * math.log(3), abs=1e-12)
    assert fold.leaves == []
    assert qlb_sp_fraction(expr) == 30
    assert certify_sandwich(num, fold.top, fold.leaves) is True
    with pytest.raises(LimitExceededError, match="n=36 exceeds the size cap 20"):
        analyze(realize(expr))


def test_only_the_adversary_enumerates(monkeypatch):
    calls = []

    def counted(P, *args, **kwargs):
        calls.append(P.n)
        return extension_orders(P, *args, **kwargs)

    monkeypatch.setattr(quantum, "extension_orders", counted)
    qlb_fraction(n_poset(5))
    assert calls == []
    analyze(realize(parse_sp("N(2)+chain(2)+chain(2)")))  # past the matrix cap
    assert calls == []
    rep = analyze(n_poset(2))  # not SP, 159 extensions: the adversary is built
    assert rep.gamma_norm is not None and calls == [8]


def test_qh_examples(wedge):
    assert qh_fraction(build_poset(1, [])) == 1
    assert qh_fraction(antichain_poset(4)) == 1
    assert qh_fraction(wedge) == Fraction(4, 3)


def test_qlb_qh_identity_exact(family8):
    for name, P in family8:
        if count_extensions(P) > 10_000:
            continue
        assert qlb_fraction(P) == P.n * (harmonic(P.n) - qh_fraction(P)), name


@pytest.mark.parametrize("build,target", [
    (lambda: antichain_poset(3), 1.0),
    (lambda: build_poset(3, [(2, 1)]), 4 / 3),
    (lambda: chain_poset(2), 3 / 2),
])
def test_qh_mc_matches_exact(build, target):
    P = build()
    est, se = qh_mc(P, 100_000, 17)
    assert abs(est - target) <= 4 * se
    assert float(qh_fraction(P)) == pytest.approx(target, abs=1e-12)


def test_qlb_sp_examples(wedge):
    assert qlb_sp_fraction(parse_sp(". * . * .")) == 0
    assert qlb_sp_fraction(parse_sp("(. * .) + .")) == Fraction(3, 2)
    assert qlb_sp_fraction(parse_sp("(. * .) + .")) == qlb_fraction(wedge)
    for k in (1, 2, 4):
        expected = 2 * k * harmonic(2 * k) - 2 * k * harmonic(k)
        assert qlb_sp_fraction(parse_sp(f"chain({k}) + chain({k})")) == expected


def test_qlb_sp_n_block_leaf():
    # N(1) is one N block, enumerated
    assert qlb_sp_fraction(parse_sp("N(1)")) == Fraction(11, 5)
    assert float(qlb_sp_fraction(parse_sp("N(1)"))) == 2.2


def test_composition_identities_random():
    rng = np.random.default_rng(4)
    done = 0
    while done < 30:
        total = int(rng.integers(2, 10))
        n1 = int(rng.integers(1, total))
        e1, e2 = random_sp_expr(rng, n1), random_sp_expr(rng, total - n1)
        from sortbounds import count_extensions_sp

        if count_extensions_sp(parallel(e1, e2)) > 5000:
            continue
        done += 1
        q1, q2 = qlb_fraction(realize(e1)), qlb_fraction(realize(e2))
        assert qlb_fraction(realize(series(e1, e2))) == q1 + q2
        n = total
        n2 = n - n1
        merged = qlb_fraction(realize(parallel(e1, e2)))
        assert merged == q1 + q2 + n * harmonic(n) - n1 * harmonic(n1) - n2 * harmonic(n2)
        assert qh_fraction(realize(parallel(e1, e2))) == Fraction(n1, n) * qh_fraction(
            realize(e1)
        ) + Fraction(n2, n) * qh_fraction(realize(e2))
        assert qlb_sp_fraction(series(e1, e2)) == q1 + q2
        assert qlb_sp_fraction(parallel(e1, e2)) == merged


def _all_posets_rowmasks(n):
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for assign in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = [0] * n
        for (a, b), c in zip(pairs, assign):
            if c == 1:
                rows[a] |= 1 << b
            elif c == 2:
                rows[b] |= 1 << a
        ok = True
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1 and rows[k] & ~rows[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(rows))
    return out


def test_qlb_monotone_under_extension_exhaustive():
    # every pair Q extending P on the same ground set, all posets with n <= 5
    for n in range(2, 6):
        posets = _all_posets_rowmasks(n)
        exact = []
        flat = np.empty(len(posets), dtype=np.int64)
        for t, rows in enumerate(posets):
            rel = np.array([[(rows[i] >> j) & 1 for j in range(n)] for i in range(n)], bool)
            exact.append(qlb_fraction(Poset(rel)))
            flat[t] = sum(rows[i] << (i * n) for i in range(n))
        approx = np.array([float(q) for q in exact])
        for qi, qmask in enumerate(flat):
            smaller = np.nonzero((flat & ~qmask) == 0)[0]  # Q extends these
            candidates = smaller[approx[smaller] < approx[qi] + 1e-9]
            for pi in candidates:
                assert exact[pi] >= exact[qi]


def test_nk_bounds_values():
    b = nk_bounds(1)
    assert b.itlb_lo == pytest.approx(math.log(2))
    assert b.itlb_hi == pytest.approx(math.log(6))
    assert b.qlb_lo == pytest.approx(2.0)
    with pytest.raises(DomainError):
        nk_bounds(0)


def test_nk_brackets_by_exact_counting():
    for k in (1, 2):
        b = nk_bounds(k)
        it = itlb(n_poset(k))
        assert b.itlb_lo < it < b.itlb_hi
        assert float(qlb_fraction(n_poset(k))) >= b.qlb_lo - 1e-9


def test_tech_constant_small_values():
    tc = tech_constant(3)
    table = {(int(a), int(b)): r for a, b, r in tc.table}
    assert list(table) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    assert table[(1, 1)] == pytest.approx(1 / math.log(2), abs=1e-12)
    # (1, n-1) rows simplify to H_{n-1} / ln n
    for n in (3, 4):
        expected = float(harmonic(n - 1)) / math.log(n)
        assert table[(1, n - 1)] == pytest.approx(expected, abs=1e-12)
    # the minimum is the table's first smallest row, and the cached table is read-only
    a, b, r = tc.table[np.argmin(tc.table[:, 2])]
    assert (int(a), int(b)) == tc.argmin and r == tc.c_min
    assert tech_constant(3) is tc and not tc.table.flags.writeable
    for max_n in (1, TECH_MAX_N + 1):
        with pytest.raises(DomainError):
            tech_constant(max_n)


def test_tech_constant_table_matches_direct_binomials():
    # the scan carries C(n1 + n2, n1) along each row; the direct formula
    # rebuilds it per pair, so the logs and every ratio must be the same floats
    max_n = 60
    den = math.lcm(*range(1, 2 * max_n + 1))
    acc = [q * sum(den // j for j in range(1, q + 1)) for q in range(2 * max_n + 1)]
    rows = []
    for n1, n2 in itertools.combinations_with_replacement(range(1, max_n + 1), 2):
        merge = float(((acc[n1 + n2] - acc[n1] - acc[n2]) << 64) // den) / 2**64
        rows.append((n1, n2, merge / math.log(math.comb(n1 + n2, n1))))
    assert np.array_equal(tech_constant(max_n).table, np.array(rows))


def test_tech_constant_500(tech500):
    assert tech500.c_min > 0
    assert tech500.c_min_numerator > 0
    # minimum of a set containing 1/ln 2 cannot exceed it
    assert tech500.c_min <= 1 / math.log(2) + 1e-12
    n1, n2 = tech500.argmin
    merge = (n1 + n2) * harmonic(n1 + n2) - n1 * harmonic(n1) - n2 * harmonic(n2)
    assert tech500.c_min_numerator == merge
    assert tech500.c_min == pytest.approx(
        float(merge) / math.log(math.comb(n1 + n2, n1)), rel=1e-12
    )


def test_adversary_chain_is_zero():
    g = build_adversary(chain_poset(5))
    assert g.dim == 1 and len(g.vals) == 0
    assert norm_bracket(g)[0] == 0.0


def test_adversary_antichain2():
    g = build_adversary(antichain_poset(2))
    assert g.to_dense().tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert norm_bracket(g)[0] == pytest.approx(1.0, abs=1e-9)


def test_adversary_wedge_entries(wedge):
    g = build_adversary(wedge)
    # lex extension order: (2,1,3), (2,3,1), (3,2,1) in 1-based element orders
    expected = {
        (0, 1): 1.0, (1, 0): 1.0,
        (1, 2): 1.0, (2, 1): 1.0,
        (0, 2): 0.5, (2, 0): 0.5,
    }
    assert nonzero_entries(g) == expected
    assert index_of(g, LinearExtension.from_order((1, 0, 2))) == 0


def _brute_adversary(P):
    """Oracle: try every (k, d) down-move and keep those whose image is an
    extension, with no use of the gap-vector shortcut."""
    orders = [e.order for e in enumerate_extensions(P)]
    index = {o: t for t, o in enumerate(orders)}
    M = np.zeros((len(orders), len(orders)))
    n = P.n
    for s, order in enumerate(orders):
        for k in range(1, n):            # target rank of the moved element
            for d in range(1, n - k + 1):
                pos = k + d - 1          # 0-based source position
                moved = order[: k - 1] + (order[pos],) + order[k - 1 : pos] + order[pos + 1 :]
                t = index.get(moved)
                if t is not None:
                    M[s, t] = M[t, s] = 1.0 / d
    return M


def test_adversary_matches_exhaustive_move_search(family8):
    # validates that a d-step down-move stays an extension exactly when the
    # step is below the gap value
    rng = np.random.default_rng(6)
    from sortbounds import random_poset

    posets = [P for _, P in family8 if count_extensions(P) <= 300]
    posets += [random_poset(int(rng.integers(2, 7)), rng, p=0.35) for _ in range(10)]
    for P in posets:
        got = build_adversary(P).to_dense()
        np.testing.assert_array_equal(got, _brute_adversary(P))


def test_adversary_entries_are_inverse_integers(family8):
    for name, P in family8:
        if count_extensions(P) > 1000:
            continue
        g = build_adversary(P)
        dense = g.to_dense()
        assert (dense == dense.T).all(), name
        assert (np.diag(dense) == 0).all(), name
        for v in g.vals:
            d = 1.0 / v
            assert abs(d - round(d)) < 1e-12 and 1 <= round(d) <= P.n - 1, name


def test_adversary_cap():
    with pytest.raises(LimitExceededError, match="5040 extensions exceed the matrix cap 4000"):
        build_adversary(antichain_poset(7))


def test_gamma_ij_masks(wedge):
    g = build_adversary(wedge)
    with pytest.raises(DomainError):
        gamma_ij(g, wedge, 1, 1)
    gc = build_adversary(chain_poset(4))
    assert len(gamma_ij(gc, chain_poset(4), 0, 2).vals) == 0
    a2 = antichain_poset(2)
    ga = build_adversary(a2)
    assert (gamma_ij(ga, a2, 0, 1).to_dense() == ga.to_dense()).all()
    # extensions 0 and 1 order elements (0, 2) differently from 2; the
    # (1, 2) pair agrees, so its entry is masked away
    masked = nonzero_entries(gamma_ij(g, wedge, 0, 2))
    assert masked == {(0, 1): 1.0, (1, 0): 1.0, (0, 2): 0.5, (2, 0): 0.5}


def test_spectral_norm_oracle_dense(family8):
    rng = np.random.default_rng(20)
    for name, P in family8:
        if count_extensions(P) > 400:
            continue
        g = build_adversary(P)
        if g.dim < 2:
            continue
        exact = float(np.abs(np.linalg.eigvalsh(g.to_dense())).max())
        assert norm_bracket(g)[0] == pytest.approx(exact, rel=1e-7, abs=1e-9), name
        for (i, j) in [(0, 1), (0, P.n - 1)]:
            if i == j:
                continue
            m = gamma_ij(g, P, i, j)
            exact = float(np.abs(np.linalg.eigvalsh(m.to_dense())).max()) if len(m.vals) else 0.0
            assert norm_bracket(m)[0] == pytest.approx(exact, rel=1e-7, abs=1e-9), name


def test_spectral_norm_zero_matrix():
    assert norm_bracket(np.zeros((3, 3)))[0] == 0.0


def test_norm_bracket_rejects_non_perron_input():
    # the Collatz-Wielandt upper side holds only for nonnegative symmetric input
    for bad in ([[0.0, -1.0], [-1.0, 0.0]],
                [[0.0, 1.0], [2.0, 0.0]],
                [[0.0, np.nan], [np.nan, 0.0]],
                [[1.0, 0.0, 0.0]]):
        with pytest.raises(DomainError):
            norm_bracket(np.array(bad))
    g = build_adversary(antichain_poset(3))
    flipped = quantum.AdversaryMatrix(g.rows, g.cols, -g.steps, g.ranks)
    with pytest.raises(DomainError):
        norm_bracket(flipped)
    assert norm_bracket(np.zeros((3, 3))) == (0.0, 0.0)


def test_norm_bracket_rejects_complex_and_non_2d_input():
    # the Hermitian [[1, i], [-i, 1]] has norm 2; cast to float it would read 1
    hermitian = np.array([[1.0, 1j], [-1j, 1.0]])
    for bad in (hermitian, sparse.csr_matrix(hermitian), np.ones((2, 2, 2)), np.array([5.0])):
        with pytest.raises(DomainError):
            norm_bracket(bad)


def test_norm_bracket_reads_a_canonical_form():
    # symmetry is decided on the arrays of A and its transpose, which agree
    # only once both are canonical: sorted in each row, duplicates summed
    dense = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 2.0, 0.0]])
    # row 0 lists columns 2, 1, 1 and row 1 lists 2, 0: unsorted, with 1.0 = 0.75 + 0.25
    messy = sparse.csr_matrix((np.array([0.5, 0.75, 0.25, 2.0, 1.0, 0.5, 2.0]),
                               np.array([2, 1, 1, 2, 0, 0, 1]), np.array([0, 3, 5, 7])),
                              shape=(3, 3))
    assert not messy.has_sorted_indices
    assert norm_bracket(messy) == norm_bracket(dense)
    skew = sparse.csr_matrix(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 3.0, 0.0]]))
    assert skew.has_canonical_format
    with pytest.raises(DomainError):
        norm_bracket(skew)
    # 1.0 - 1.5 in (0, 1) and (1, 0): symmetric, and negative once summed
    negative = sparse.csr_matrix((np.array([1.0, -1.5, 1.0, -1.5]), np.array([1, 1, 0, 0]),
                                  np.array([0, 2, 4])), shape=(2, 2))
    with pytest.raises(DomainError):
        norm_bracket(negative)


def test_norm_bracket_leaves_its_input_as_it_was():
    # csr_matrix(M) of a float CSR shares M's arrays, so the bracket must
    # canonicalize a copy: row 0 lists columns 2, 1, 1 (1.0 = 0.75 + 0.25,
    # unsorted) and row 2 an explicit zero at column 2
    M = sparse.csr_matrix((np.array([0.5, 0.75, 0.25, 2.0, 1.0, 0.5, 2.0, 0.0]),
                           np.array([2, 1, 1, 2, 0, 0, 1, 2]), np.array([0, 3, 5, 8])),
                          shape=(3, 3))
    before = [a.copy() for a in (M.indptr, M.indices, M.data)]
    nnz = M.nnz
    expected = norm_bracket(M.toarray())
    assert norm_bracket(M) == expected
    assert M.nnz == nnz == 8
    for got, want in zip((M.indptr, M.indices, M.data), before):
        assert np.array_equal(got, want)


def test_norm_bracket_gives_equal_blocks_equal_brackets():
    from scipy.linalg import block_diag

    B = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    C = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1 / 3], [0.0, 1 / 3, 0.0]])
    expected = tuple(map(max, zip(norm_bracket(B), norm_bracket(C))))  # C's, the larger
    assert norm_bracket(block_diag(B, B, C, B)) == norm_bracket(block_diag(B, C)) == expected
    # on the masks of a Gamma with repeated components, the batched solve
    # equals one solve per component, to the last bit
    from scipy.sparse.csgraph import connected_components

    P = realize(parse_sp("N(1)+."))
    gamma = build_adversary(P)
    repeats = 0
    for i, j in itertools.combinations(range(P.n), 2):
        dense = gamma_ij(gamma, P, i, j).to_dense()
        ncomp, labels = connected_components(dense, directed=False)
        blocks = [dense[np.ix_(labels == c, labels == c)] for c in range(ncomp)
                  if (labels == c).sum() > 1]
        repeats += len(blocks) - len({b.tobytes() for b in blocks})
        singles = [(0.0, 0.0)] + [norm_bracket(b) for b in blocks]
        assert norm_bracket(dense) == tuple(map(max, zip(*singles)))
    assert repeats > 0


def test_analyzed_poset_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    gc.disable()
    try:
        for text in ("N(1)+chain(2)", "chain(2)*antichain(3)+chain(2)"):
            P = realize(parse_sp(text))
            analyze(P)
            ref = weakref.ref(P)
            del P
            assert ref() is None, text
    finally:
        gc.enable()


def test_lemmas_judged_on_the_safe_side(monkeypatch):
    P = antichain_poset(3)  # QLB = 2.5
    # the upper side straddles 2 pi: lemma 2 fails, though the lower side
    # alone would pass it
    monkeypatch.setattr(quantum, "norm_bracket", lambda M: (TWO_PI, TWO_PI + 2e-6))
    rep = analyze(P)
    assert rep.max_gamma_ij_norm == TWO_PI + 2e-6
    assert rep.lemma1_ok and rep.lemma2_ok is False
    monkeypatch.undo()
    # lemma 1 reads Gamma's own weights: halved, 1'Gamma 1 / N = 3 falls to
    # 1.5, below QLB, and lemma 1 fails
    build = quantum.build_adversary

    def halved(P, **kw):
        gamma = build(P, **kw)
        return dataclasses.replace(gamma, steps=gamma.steps * 2)

    monkeypatch.setattr(quantum, "build_adversary", halved)
    rep = analyze(P)
    assert uniform_rayleigh(quantum.build_adversary(P)) == Fraction(3, 2)
    assert rep.lemma1_ok is False


def test_lemma1_holds_exactly_where_the_lower_bracket_falls_short():
    # 1'Gamma 1 / N equals QLB on both, while the float lower side of ||Gamma||
    # lies below it
    for text in (". * (. + .) * " + ". * " * 13 + "(. + .) * . * .", "*".join(["(.+.)"] * 10)):
        P = realize(parse_sp(text))
        rep = analyze(P)
        assert rep.gamma_norm < rep.qlb and rep.lemma1_ok, text
        assert uniform_rayleigh(build_adversary(P)) == qlb_fraction(P), text


def test_total_weight_identity():
    # 1'Gamma 1 = 2 N QLB - S, S the adjacent incomparable pairs over all extensions
    members = [(name, P) for name, P in standard_family(max_n=8, seed=3)
               if count_extensions(P) <= 4000]
    assert len(members) == 22
    for name, P in members:
        orders = extension_orders(P)
        S = int((~P.rel[orders[:, :-1], orders[:, 1:]]).sum())
        N = len(orders)
        assert uniform_rayleigh(build_adversary(P)) * N == 2 * N * qlb_fraction(P) - S, name


def test_lemmas_2_and_3_have_no_slack(monkeypatch):
    P = antichain_poset(3)  # QLB = 2.5
    # a masked norm 5e-7 above TWO_PI, the double below 2 pi: lemma 2 fails
    monkeypatch.setattr(quantum, "norm_bracket", lambda M: (TWO_PI, TWO_PI + 5e-7))
    rep = analyze(P)
    assert rep.max_gamma_ij_norm == TWO_PI + 5e-7
    assert rep.lemma1_ok and rep.lemma2_ok is False and rep.lemma3_ok
    # a ratio ||Gamma|| / max ||Gamma^{ij}|| 5e-7 below QLB / TWO_PI: lemma 3 fails
    lo = 2.5 / TWO_PI - 5e-7
    monkeypatch.setattr(quantum, "norm_bracket", lambda M: (lo, 1.0))
    rep = analyze(P)
    assert rep.gamma_norm / rep.max_gamma_ij_norm == lo
    assert rep.lemma2_ok and rep.lemma3_ok is False


@pytest.mark.parametrize("seed", range(5))
def test_analyze_reports_the_library_qh_and_lb(seed):
    # one derivation per number: QH is the exact fraction rounded once, and
    # LB is `lb`, both read off the same fold as the report
    for name, P in standard_family(max_n=8, seed=seed):
        rep = analyze(P)
        assert rep.qh == float(qh_fraction(P)), name
        assert rep.lb == lb(P), name


def test_window_matrix_is_built_once_and_read_only():
    W, states = _window_matrix(5)
    assert _window_matrix(5)[0] is W
    assert not W.flags.writeable and not states.flags.writeable
    assert W.shape == (len(states),) * 2 == (6 * 6 + 6,) * 2


def test_hilbert_norm_matches_dense_eigensolve():
    from scipy.linalg import eigvalsh, hilbert

    for m in (10, 50, 200):
        assert hilbert_norm(m) == pytest.approx(float(eigvalsh(hilbert(m))[-1]), rel=1e-8)
    assert hilbert_norm(200) == pytest.approx(2.2742669874, abs=1e-8)


@pytest.mark.parametrize("m", [1.5, 2.0, "3", None, 0, -1])
def test_hilbert_norm_rejects_non_integer_or_small_size(m):
    with pytest.raises(DomainError):
        hilbert_norm(m)


def test_hilbert_norm_takes_numpy_ints():
    assert hilbert_norm(np.int64(10)) == hilbert_norm(10)
    assert hilbert_norm(np.int32(1)) == hilbert_norm(1)


def test_analyze_adversary_examples(wedge):
    rep = analyze(antichain_poset(2))
    assert rep.gamma_norm == pytest.approx(1.0, abs=1e-8)
    assert rep.qlb == pytest.approx(1.0)
    assert rep.max_gamma_ij_norm == pytest.approx(1.0, abs=1e-8)
    assert not rep.any_failed()

    rep = analyze(antichain_poset(3))
    assert rep.qlb == pytest.approx(2.5)
    assert rep.gamma_norm >= 2.5 - 1e-9

    rep = analyze(wedge)
    assert rep.lemma1_ok and rep.lemma2_ok and rep.lemma3_ok and rep.sandwich_ok
    assert rep.num_extensions == 3

    rep = analyze(antichain_poset(7))  # 5,040 extensions, past the matrix cap
    assert rep.qlb is not None and rep.gamma_norm is None and rep.lemma1_ok is None


def test_uniform_rayleigh_dominates_qlb(family8):
    for name, P in family8:
        if count_extensions(P) > 2000:
            continue
        g = build_adversary(P)
        r = uniform_rayleigh(g)
        assert isinstance(r, Fraction) and r >= qlb_fraction(P), name
        # cross-check the quotient against an explicit vector product
        v = np.full(g.dim, 1.0 / math.sqrt(g.dim))
        assert float(r) == pytest.approx(float(v @ g.to_csr() @ v), abs=1e-9)


def test_masked_norms_below_two_pi(family8):
    for name, P in family8:
        if count_extensions(P) > 2000:
            continue
        g = build_adversary(P)
        assert max_gamma_ij_norm(g, P) <= TWO_PI + 1e-6, name


def test_max_gamma_ij_norm_matches_per_mask_oracle(family8, monkeypatch):
    bracket, calls = quantum.norm_bracket, []
    monkeypatch.setattr(quantum, "norm_bracket", lambda M: calls.append(M) or bracket(M))
    cases = [(name, P) for name, P in family8 if count_extensions(P) <= 4000]
    # n = 20: the slots reach 18, the top of their 5-bit fields, and W_18 is used
    cases.append(("chain(3)+chain(17)", realize(parse_sp("chain(3)+chain(17)"))))
    for name, P in cases:
        gamma = build_adversary(P)
        calls.clear()
        got = max_gamma_ij_norm(gamma, P)
        incomparable = not (P.rel | P.rel.T | np.eye(P.n, dtype=bool)).all()
        assert len(calls) == incomparable, name  # one bracket per Gamma, none for a chain
        assert got == all_types_max_gamma_ij_norm(gamma, P), name
        assert got == pytest.approx(per_mask_max_gamma_ij_norm(gamma, P), rel=1e-12, abs=0), name


@pytest.mark.parametrize("P", [fence_poset(8), realize(parse_sp("chain(2)+chain(2)+chain(2)+chain(2)")),
                               realize(parse_sp("chain(3)+chain(17)"))],
                         ids=["fence8", "c2x4", "chain(3)+chain(17)"])
def test_dropped_window_types_are_principal_submatrices(P):
    # each window type left out of the bracket has a kept type and a shift c
    # such that its W_{n-2} block, moved by -c, is a principal submatrix of
    # the kept type's block: a wrong containment rule fails here even where
    # the maximum happens to agree
    gamma = build_adversary(P)
    types = _window_types(gamma, P)
    # the largest predecessor rank that `_window_types` reads as the rank
    # less its gap, against a max over an (N, n, n) mask
    r = gamma.ranks
    np.testing.assert_array_equal(r - transfer_batch(P, r),
                                  np.where(P.rel.T, r[:, None, :], 0).max(axis=2))
    kept = _maximal_types(types)
    assert 0 < len(kept) < len(types)
    m = P.n - 2
    W, states = _window_matrix(m)
    index = np.full((m + 1, m + 1, 2), -1)
    index[tuple(states.T)] = np.arange(len(states))
    x, y, o = states.T
    shifts = np.arange(-m, m + 1)[:, None]
    dropped = set(map(tuple, types.tolist())) - set(map(tuple, kept.tolist()))
    for a_i, b_i, a_j, b_j in dropped:
        mine = np.nonzero((a_i <= x) & (x <= b_i) & (a_j <= y) & (y <= b_j))[0]
        xs, ys = x[mine] - shifts, y[mine] - shifts
        fits = [shifts[((u_ai <= xs) & (xs <= u_bi) & (u_aj <= ys) & (ys <= u_bj)).all(axis=1), 0]
                for u_ai, u_bi, u_aj, u_bj in kept.tolist()]
        moved = [index[x[mine] - c, y[mine] - c, o[mine]] for c in np.concatenate(fits).tolist()]
        assert any((k >= 0).all() and np.array_equal(W[np.ix_(k, k)], W[np.ix_(mine, mine)])
                   for k in moved), (a_i, b_i, a_j, b_j)


def test_adversary_peak_memory():
    # the move targets come from the source rows' keys plus one flipped-pair
    # term per passed element, with no (moves, n) array: the traced peak of
    # the build stays within 5x its returned arrays, and the masked norms of
    # the maximal window types stay under 15.9 MB (16-18 MB when every type
    # was bracketed)
    P = realize(parse_sp("chain(3)+chain(17)"))
    max_gamma_ij_norm(build_adversary(P), P)  # builds the lattice and imports csgraph
    tracemalloc.start()
    try:
        gamma = build_adversary(P)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        max_gamma_ij_norm(gamma, P)
        masked_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (gamma.rows, gamma.cols, gamma.steps, gamma.ranks))
    assert build_peak <= 5 * returned
    assert masked_peak <= 15.9e6


def test_masks_are_window_type_blocks():
    # each rho-block of each Gamma^{ij} is the principal submatrix of W_{n-2} on
    # the states inside its window, with no entry between blocks: a wrong W
    # fails here even where the maximum norm happens to agree
    for P in (realize(parse_sp("N(1)+.")), antichain_poset(4)):
        gamma = build_adversary(P)
        W, states = _window_matrix(P.n - 2)
        index = {s: k for k, s in enumerate(map(tuple, states.tolist()))}
        r = gamma.ranks
        windows = set()
        for i, j in itertools.combinations(range(P.n), 2):
            if P.rel[i, j] or P.rel[j, i]:
                continue
            dense = gamma_ij(gamma, P, i, j).to_dense()
            others = [e for e in range(P.n) if e not in (i, j)]
            groups = {}
            for s in range(gamma.dim):
                groups.setdefault(tuple(sorted(others, key=lambda e: r[s, e])), []).append(s)
            covered = np.zeros(dense.shape, dtype=bool)
            for rho, rows in groups.items():
                place = {e: k + 1 for k, e in enumerate(rho)}
                lo_i, lo_j = (max((place[p] for p in P.predecessors(e)), default=0) for e in (i, j))
                hi_i, hi_j = (min((place[q] - 1 for q in np.nonzero(P.rel[e])[0].tolist()),
                                  default=P.n - 2) for e in (i, j))
                shift = min(lo_i, lo_j)
                window = (lo_i - shift, hi_i - shift, lo_j - shift, hi_j - shift)
                windows.add(window)
                inside = [k for k, (x, y, _) in enumerate(states.tolist())
                          if window[0] <= x <= window[1] and window[2] <= y <= window[3]]
                at = [index[(r[s, i] - 1 - (r[s, j] < r[s, i]) - shift,
                             r[s, j] - 1 - (r[s, i] < r[s, j]) - shift,
                             int(r[s, j] < r[s, i]))] for s in rows]
                assert sorted(at) == inside, (P, i, j, rho)
                np.testing.assert_array_equal(dense[np.ix_(rows, rows)], W[np.ix_(at, at)])
                covered[np.ix_(rows, rows)] = True
            assert not dense[~covered].any(), (P, i, j)
        assert windows == set(map(tuple, _window_types(gamma, P).tolist())), P


def _leaf(lo, hi, n=2):
    # certify_sandwich reads a leaf's bracket only
    return EntropySolution(H=0.0, z_star=np.full(n, 0.5), kkt_residual=0.0, newton_steps=0,
                           bracket=(Fraction(lo), Fraction(hi)))


def test_certify_sandwich_without_a_leaf_is_the_exact_comparison():
    tiny = Fraction(1, 10**40)
    for num in (1, 2, 7, 5040, 10**12, 2432902008176640000):
        for top in (Fraction(num), Fraction(num**2), (num + num**2) / Fraction(2),
                    num - tiny, num**2 + tiny, Fraction(1, 3), Fraction(num**3 + 1)):
            assert certify_sandwich(num, top, []) is (num <= top <= num * num), (num, top)
    assert certify_sandwich(10, Fraction(10), []) and certify_sandwich(10, Fraction(100), [])


def test_certify_sandwich_decides_false_just_past_either_side():
    # num = 10 and top = 1000: the sides are 10 <= 1000 lo and 1000 hi <= 100
    tiny = Fraction(1, 10**40)
    edge = [_leaf(Fraction(1, 20), Fraction(1, 5)), _leaf(Fraction(1, 5), Fraction(1, 2))]
    assert certify_sandwich(10, Fraction(1000), edge)
    assert certify_sandwich(10, Fraction(1000), [_leaf(Fraction(1, 100), Fraction(1, 10))])
    # hi puts LB just past 2 ITLB, lo puts it just below ITLB
    assert not certify_sandwich(10, Fraction(1000), [_leaf(Fraction(1, 100), Fraction(1, 10) + tiny)])
    assert not certify_sandwich(10, Fraction(1000), [_leaf(Fraction(1, 100) - tiny, Fraction(1, 10))])
    assert not certify_sandwich(10, Fraction(1000), [edge[0], _leaf(Fraction(1, 5), Fraction(1, 2) + tiny)])
    assert not certify_sandwich(10, Fraction(1000), [_leaf(Fraction(1, 20) - tiny, Fraction(1, 5)), edge[1]])
