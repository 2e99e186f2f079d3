import inspect
import sys
from functools import cached_property

import numpy as np
import pytest

from sortbounds import (
    Block,
    Parallel,
    ParseError,
    Poset,
    Series,
    Singleton,
    count_extensions_sp,
    count_induced_N,
    entropy,
    harmonic,
    itlb,
    n_poset,
    parse_sp,
    qlb_fraction,
    qlb_sp_fraction,
    random_poset,
    random_sp_expr,
    realize,
    recognize_sp,
    relabel,
    sp_decomposition,
)
from sortbounds.poset import MAX_N
from sortbounds.spexpr import MAX_NESTING, nodes

from conftest import matrix_sp_decomposition


def test_parse_seven_element_example():
    e = parse_sp(". * (.+.+.) * (. + (. * .))")
    assert e == Series((
        Singleton(),
        Parallel((Singleton(), Singleton(), Singleton())),
        Parallel((Singleton(), Series((Singleton(), Singleton())))),
    ))
    assert e.size == 7


def test_parse_sugar():
    assert parse_sp("chain(3)") == Series((Singleton(),) * 3)
    assert parse_sp("antichain(4)") == Parallel((Singleton(),) * 4)
    assert parse_sp("chain(1)") == Singleton()
    # an N(k) is a Block of n_poset(k) that prints as it was written
    assert parse_sp("N(2)") == Block(n_poset(2))
    assert str(parse_sp("N(2)")) == "N(2)"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_sp(". + * .")
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_sp("(. + .")
    with pytest.raises(ParseError):
        parse_sp(". .")
    with pytest.raises(ParseError):
        parse_sp("foo(2)")
    with pytest.raises(ValueError):
        parse_sp("chain(0)")
    with pytest.raises(ParseError):
        parse_sp("chain(10001)")
    with pytest.raises(ParseError) as err:
        parse_sp(". + chain(10000)")
    assert err.value.pos == 4


def test_parse_whitespace_insensitive():
    assert parse_sp(" .*. ") == parse_sp(".  *\t.")


def test_operator_precedence_and_flattening():
    # series binds tighter and nodes flatten to one n-ary level
    e = parse_sp(". * . + . * . * .")
    assert e == Parallel((Series((Singleton(),) * 2), Series((Singleton(),) * 3)))
    assert parse_sp("(. * .) * .") == parse_sp(". * . * .")


def test_str_parse_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        e = random_sp_expr(rng, int(rng.integers(1, 12)))
        assert parse_sp(str(e)) == e


def test_realize_basics():
    assert realize(parse_sp(". + .")).pairs() == []
    assert realize(parse_sp(". * .")).pairs() == [(0, 1)]
    assert realize(parse_sp("N(1)")).pairs() == [(0, 1), (2, 1), (2, 3)]


def test_realize_n_block_pair_count():
    for k in range(1, 6):
        P = n_poset(k)
        assert P.n == 4 * k
        assert len(P.pairs()) == 3 * k * k + 4 * (k * (k - 1) // 2)
        assert realize(parse_sp(f"N({k})")) == P
        # N(k) is indecomposable: its decomposition is the parsed Block
        assert sp_decomposition(P)[0] == parse_sp(f"N({k})")


def test_recognize_antichain():
    e = recognize_sp(realize(parse_sp(". + . + .")))
    assert e == Parallel((Singleton(),) * 3)


def test_recognize_n_poset_fails():
    assert recognize_sp(n_poset(1)) is None


def test_recognize_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        e = random_sp_expr(rng, int(rng.integers(1, 11)))
        P = realize(e)
        expr2, leaves = sp_decomposition(P)
        assert recognize_sp(P) == expr2
        perm = np.asarray(leaves)
        assert (realize(expr2).rel == P.rel[np.ix_(perm, perm)]).all()


def test_decompose_deepest_parsed_expression():
    # MAX_NESTING parenthesis levels, each a parallel over a series, with an
    # antichain in the innermost series: 2 MAX_NESTING + 3 composition nodes
    # deep and 204 elements, so folded but never realized
    text = "antichain(2) * . + ."
    for _ in range(MAX_NESTING):
        text = f"({text}) * . + ."
    with pytest.raises(ParseError):
        parse_sp(f"({text}) * . + .")
    e = parse_sp(text)

    def spine_sizes(node):
        # the size of every node on the path down the largest children
        sizes = [node.size]
        while not isinstance(node, Singleton):
            node = max(node.children, key=lambda c: c.size)
            sizes.append(node.size)
        return sizes

    folds = (spine_sizes, count_extensions_sp, qlb_sp_fraction)
    want = [fold(e) for fold in folds]
    assert len(want[0]) == 2 * MAX_NESTING + 4 and want[0][0] == e.size == 204
    assert want[1] > 0 and want[2] > 0
    # sizes are read off the nodes and the folds sum over `nodes`: a recursion
    # limit a few frames above the caller, far below the tree's depth, leaves
    # them the same values
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 25)
    try:
        got = [fold(e) for fold in folds]
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_decompose_deepest_poset():
    # alternating series/parallel levels over an antichain of 2: at n = 20,
    # n - 1 = 19 composition nodes deep, as deep as a decomposition can be,
    # so `_split` recurses at most 19 times and needs no depth guard
    e = Parallel((Singleton(), Singleton()))
    for _ in range(9):
        e = Parallel((Series((e, Singleton())), Singleton()))
    P = realize(e)
    assert P.n == MAX_N
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 2 * MAX_N)
    try:
        expr2, leaves = sp_decomposition(P)
    finally:
        sys.setrecursionlimit(limit)
    assert expr2 == e
    node, depth = expr2, 0
    while not isinstance(node, Singleton):
        node, depth = node.children[0], depth + 1
    assert depth == MAX_N - 1
    perm = np.asarray(leaves)
    assert (realize(expr2).rel == P.rel[np.ix_(perm, perm)]).all()


def test_folds_share_one_n_leaf(monkeypatch):
    # an N(k) leaf holds its poset from the parse on, so the count and the
    # QLB fold read its one ideal lattice
    want = qlb_fraction(n_poset(2)) + 9 * harmonic(9) - 8 * harmonic(8) - harmonic(1)
    built = []
    fill = Poset.lattice.func

    def counted(self):
        built.append(self)
        return fill(self)

    lattice = cached_property(counted)
    lattice.__set_name__(Poset, "lattice")
    monkeypatch.setattr(Poset, "lattice", lattice)
    e = parse_sp("N(2)+.")
    leaf = next(node for node in nodes(e) if isinstance(node, Block))
    assert count_extensions_sp(e) == 53 * 9
    assert qlb_sp_fraction(e) == want
    assert len(built) == 1 and built[0] is leaf.poset


def test_split_matches_matrix_oracle():
    # random posets and realized SP expressions, as built and relabeled
    rng = np.random.default_rng(11)
    cases = [random_poset(int(rng.integers(1, 21)), rng, p=float(rng.uniform(0.02, 0.7)))
             for _ in range(300)]
    for _ in range(150):
        P = realize(random_sp_expr(rng, int(rng.integers(1, 21))))
        cases += [P, relabel(P, rng.permutation(P.n).tolist())]
    for P in cases:
        assert sp_decomposition(P) == matrix_sp_decomposition(P)


@pytest.mark.parametrize("text", ["chain(20)", "antichain(20)", "N(5)",
                                  "chain(2)*(antichain(6)+N(2))*N(1)"])
def test_split_matches_matrix_oracle_at_the_cap(text):
    P = realize(parse_sp(text))
    Q = relabel(P, np.random.default_rng(5).permutation(P.n).tolist())
    for R in (P, Q):
        assert sp_decomposition(R) == matrix_sp_decomposition(R)


def test_recognize_iff_n_free():
    rng = np.random.default_rng(42)
    agree = 0
    trials = 10_000
    for _ in range(trials):
        P = random_poset(int(rng.integers(1, 10)), rng, p=float(rng.uniform(0.05, 0.7)))
        if bool(recognize_sp(P)) == (count_induced_N(P) == 0):
            agree += 1
    assert agree == trials


def test_n_block_relabeling_invariance():
    # every computed quantity is isomorphism-invariant, so the numbering
    # inside the blowup does not matter
    rng = np.random.default_rng(3)
    P = n_poset(2)
    perm = rng.permutation(P.n).tolist()
    Q = relabel(P, perm)
    assert itlb(P) == pytest.approx(itlb(Q), abs=1e-12)
    assert qlb_fraction(P) == qlb_fraction(Q)
    assert entropy(P, tol=1e-9).H == pytest.approx(entropy(Q, tol=1e-9).H, abs=1e-8)
