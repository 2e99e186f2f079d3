import numpy as np
import pytest

from sortbounds import (
    NBlock,
    Parallel,
    ParseError,
    Series,
    Singleton,
    count_extensions_sp,
    count_induced_N,
    entropy,
    expr_size,
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
from sortbounds.spexpr import MAX_DEPTH, MAX_NESTING


def test_parse_seven_element_example():
    e = parse_sp(". * (.+.+.) * (. + (. * .))")
    assert e == Series((
        Singleton(),
        Parallel((Singleton(), Singleton(), Singleton())),
        Parallel((Singleton(), Series((Singleton(), Singleton())))),
    ))
    assert expr_size(e) == 7


def test_parse_sugar():
    assert parse_sp("chain(3)") == Series((Singleton(),) * 3)
    assert parse_sp("antichain(4)") == Parallel((Singleton(),) * 4)
    assert parse_sp("chain(1)") == Singleton()
    assert parse_sp("N(2)") == NBlock(2)


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
    for k in (1, 2, 3, 4):
        P = realize(NBlock(k))
        assert P.n == 4 * k
        assert len(P.pairs()) == 3 * k * k + 4 * (k * (k - 1) // 2)


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
    # antichain in the innermost series: MAX_DEPTH composition nodes deep
    text = "antichain(2) * . + ."
    for _ in range(MAX_NESTING):
        text = f"({text}) * . + ."
    with pytest.raises(ParseError):
        parse_sp(f"({text}) * . + .")
    P = realize(parse_sp(text))
    expr2, leaves = sp_decomposition(P)
    perm = np.asarray(leaves)
    assert (realize(expr2).rel == P.rel[np.ix_(perm, perm)]).all()
    depth, node = 0, expr2
    while not isinstance(node, Singleton):
        depth += 1
        node = max(node.children, key=expr_size)
    assert depth == MAX_DEPTH
    assert count_extensions_sp(expr2) > 0 and qlb_sp_fraction(expr2) > 0


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
