import itertools
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from sortbounds import (
    CycleError,
    DomainError,
    LimitExceededError,
    Poset,
    SizeMismatchError,
    analyze,
    antichain_poset,
    build_poset,
    chain_matrix,
    chain_poset,
    count_induced_N,
    entropy,
    extends,
    maximal_chains,
    n_poset,
    poset_from_text,
    poset_to_text,
    random_poset,
    random_sp_expr,
    relabel,
    sample_extension,
    standard_family,
)
from sortbounds.polytopes import order_point_batch
from sortbounds.poset import _IS_PATH, _QUAD_PAIRS, MAX_N, _quad_index
from sortbounds.spexpr import parse_sp, realize

from conftest import census, recursive_maximal_chains, warshall_closure


def test_build_single_pair(wedge):
    assert wedge.pairs() == [(1, 0)]
    assert wedge.n == 3


def test_build_antichain_empty_relation():
    P = build_poset(4, [])
    assert P.pairs() == []


def test_build_takes_transitive_closure():
    P = build_poset(3, [(1, 2), (2, 3)])
    assert (0, 2) in P.pairs()


def test_build_cycle_raises():
    with pytest.raises(CycleError):
        build_poset(2, [(1, 2), (2, 1)])
    with pytest.raises(CycleError):
        build_poset(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(CycleError):
        build_poset(2, [(1, 1)])


@pytest.mark.parametrize("pairs", [
    [(1, 1)], [(2, 2), (1, 3)], [(1, 2), (2, 1)], [(1, 2), (2, 3), (3, 1)],
    [(1, 2), (2, 3), (3, 4), (4, 2)], [(1, 2), (2, 1), (3, 4), (4, 3)],
])
def test_every_cycle_raises_cycle_error(pairs):
    # through build_poset (which closes the pairs) and straight into Poset,
    # closed or not: one check, in Poset, and its message names the cycle
    rel = np.zeros((4, 4), dtype=bool)
    for i, j in pairs:
        rel[i - 1, j - 1] = True
    closed = warshall_closure(rel)
    for build in (lambda: build_poset(4, pairs), lambda: Poset(rel), lambda: Poset(closed)):
        with pytest.raises(CycleError, match="cycle"):
            build()


def test_build_out_of_range_raises():
    with pytest.raises(IndexError):
        build_poset(3, [(0, 1)])
    with pytest.raises(IndexError):
        build_poset(3, [(1, 4)])


def test_unclosed_relation_is_closed_and_covers():
    rel = np.zeros((3, 3), dtype=bool)
    rel[0, 1] = rel[1, 2] = True
    assert Poset(rel) == chain_poset(3)
    np.testing.assert_array_equal(chain_poset(5).covers, np.eye(5, k=1, dtype=bool))


@pytest.mark.parametrize("rel", [np.zeros((0, 0), dtype=bool), [], np.zeros(3, dtype=bool),
                                 np.zeros((2, 3), dtype=bool)])
def test_empty_or_non_square_relation_rejected(rel):
    with pytest.raises(ValueError, match="non-empty square matrix"):
        Poset(rel)


@pytest.mark.parametrize("n, p", [(1, 0.5), (9, 0.3), (20, 0.1)])
def test_bitmasks_match_relation(n, p):
    P = random_poset(n, np.random.default_rng(n), p=p)
    for e in range(n):
        assert P.pred_masks[e] == sum(1 << i for i in range(n) if P.rel[i, e])
        assert P.succ_masks[e] == sum(1 << j for j in range(n) if P.rel[e, j])


@pytest.mark.parametrize("p", [-1.0, -1e-9, 1.5, float("nan"), float("inf")])
def test_random_poset_rejects_p_outside_unit_interval(p):
    with pytest.raises(DomainError):
        random_poset(4, np.random.default_rng(0), p=p)


@pytest.mark.parametrize("n", [0, -1])
def test_random_sp_expr_refuses_an_empty_expression(n):
    with pytest.raises(DomainError, match="n >= 1"):
        random_sp_expr(np.random.default_rng(0), n)


@pytest.mark.parametrize("max_n", [3, 1, 0])
def test_standard_family_refuses_a_size_below_its_random_members(max_n):
    with pytest.raises(DomainError, match="max_n >= 4"):
        standard_family(max_n=max_n)
    # the smallest accepted size still builds, with its four random members
    assert sum(name.startswith("random") for name, _ in standard_family(max_n=4)) == 4


def test_random_poset_takes_p_at_the_ends():
    assert random_poset(5, np.random.default_rng(0), p=0.0).rel.sum() == 0
    assert random_poset(5, np.random.default_rng(0), p=1.0).rel.sum() == 10


def test_closure_idempotent(wedge):
    rebuilt = build_poset(wedge.n, [(i + 1, j + 1) for i, j in wedge.pairs()])
    assert rebuilt == wedge


def test_maximal_chains_examples(wedge):
    assert sorted(maximal_chains(wedge)) == [(1, 0), (2,)]
    assert maximal_chains(chain_poset(3)) == [(0, 1, 2)]
    assert sorted(maximal_chains(antichain_poset(3))) == [(0,), (1,), (2,)]


def test_maximal_chains_are_chains_and_unique():
    rng = np.random.default_rng(3)
    for _ in range(20):
        P = random_poset(int(rng.integers(1, 9)), rng, p=0.4)
        chains = maximal_chains(P)
        assert len(set(chains)) == len(chains)
        for c in chains:
            for a, b in zip(c, c[1:]):
                assert P.less(a, b)


def test_maximal_chains_match_recursion(family8):
    for name, P in family8:
        assert maximal_chains(P) == recursive_maximal_chains(P), name


def test_refusal_allocates_nothing():
    # the one size check runs before any n x n relation (or pair list) is
    # allocated
    rel, expr, rng = np.zeros((21, 21)), parse_sp("chain(800)"), np.random.default_rng(0)
    for n, build in ((21, lambda: Poset(rel)), (10**9, lambda: build_poset(10**9, [])),
                     (800, lambda: realize(expr)), (10**9, lambda: chain_poset(10**9)),
                     (10**4, lambda: random_poset(10**4, rng)),
                     (4 * 10**4, lambda: n_poset(10**4))):
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceededError, match=f"^n={n} exceeds the size cap 20$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, n


def moon_moser(n):
    """Most maximal cliques of an n-vertex graph (Moon and Moser, 1965), so
    most maximal chains of an n-element poset: 1458 at n = 20."""
    q, r = divmod(n, 3)
    return 1 if n == 1 else (3**q, 4 * 3 ** (q - 1), 2 * 3**q)[r]


def test_maximal_chains_meet_the_moon_moser_bound():
    # a maximal chain is a maximal clique of the comparability graph
    for P in census(6):
        assert len(maximal_chains(P)) <= moon_moser(P.n)


def test_layered_poset_reaches_the_moon_moser_bound():
    # layers of 3, with one of 4 as 2 * 2 or one of 2 left over, each below
    # the next: at n = MAX_N the most chains any poset can have
    assert moon_moser(MAX_N) == 1458
    for n in range(1, MAX_N + 1):
        q, r = divmod(n, 3)
        layers = [1] if n == 1 else [3] * (q - (r == 1)) + [[], [2, 2], [2]][r]
        P = realize(parse_sp("*".join(f"antichain({k})" for k in layers)))
        assert P.n == n
        assert len(maximal_chains(P)) == moon_moser(n), n


def test_closure_of_a_long_chain_matches_warshall():
    # the longest chain the cap admits: its closure needs the most squarings
    rel = np.eye(MAX_N, k=1, dtype=bool)
    want = warshall_closure(rel)
    np.testing.assert_array_equal(chain_poset(MAX_N).rel, want)
    np.testing.assert_array_equal(want, np.triu(np.ones((MAX_N, MAX_N), dtype=bool), 1))


def test_extends_basic():
    chain3 = chain_poset(3)
    anti3 = antichain_poset(3)
    assert extends(chain3, anti3)
    assert not extends(anti3, chain3)
    with pytest.raises(SizeMismatchError):
        extends(chain3, antichain_poset(4))


def test_extends_blownup_series_of_parallels():
    # (A+B)*(C+D) on the N_k ground labels extends N_k once the b and c
    # chains trade places (N_k puts b on top of both a and c).
    for k in (1, 2):
        nk = n_poset(k)
        Q = realize(parse_sp(f"(chain({k}) + chain({k})) * (chain({k}) + chain({k}))"))
        swap = list(range(0, k)) + list(range(2 * k, 3 * k)) \
            + list(range(k, 2 * k)) + list(range(3 * k, 4 * k))
        perm = [0] * (4 * k)
        for new, old in enumerate(swap):
            perm[old] = new
        Q_on_nk_labels = relabel(Q, perm)
        assert extends(Q_on_nk_labels, nk)


def test_chain_containment_under_extension():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        P = random_poset(n, rng, p=0.2)
        Q = random_poset(n, rng, p=0.5)
        if not extends(Q, P):
            continue
        q_chains = [set(c) for c in maximal_chains(Q)]
        for c in maximal_chains(P):
            assert any(set(c) <= qc for qc in q_chains)


def test_count_induced_N():
    assert count_induced_N(n_poset(1)) == 1
    assert count_induced_N(n_poset(2)) == 16
    assert count_induced_N(n_poset(3)) == 81
    assert count_induced_N(n_poset(4)) == 4**4
    assert count_induced_N(n_poset(5)) == 5**4
    assert count_induced_N(chain_poset(6)) == 0
    assert count_induced_N(antichain_poset(6)) == 0
    assert count_induced_N(realize(parse_sp(". * (.+.+.) * (. + (. * .))"))) == 0


def test_path_codes_are_the_labellings_of_N():
    # the 12 codes of comparability-graph paths are those of the 24
    # labellings of {a<b, c<b, c<d}, a path and its reverse sharing one
    labelled = {sum(1 << t for t, (p, q) in enumerate(_QUAD_PAIRS)
                    if {(perm[p], perm[q]), (perm[q], perm[p])} & {(0, 1), (2, 1), (2, 3)})
                for perm in itertools.permutations(range(4))}
    assert set(np.flatnonzero(_IS_PATH).tolist()) == labelled
    assert len(labelled) == 12
    assert _quad_index(7).shape == (35, 6)


def test_quad_index_is_every_4_subset_in_lex_order():
    for n in range(4, 12):
        quads = np.array(list(itertools.combinations(range(n), 4)))
        p, q = np.array(_QUAD_PAIRS).T
        np.testing.assert_array_equal(_quad_index(n), quads[:, p] * n + quads[:, q])


def test_relabel_roundtrip():
    rng = np.random.default_rng(5)
    P = random_poset(6, rng, p=0.4)
    perm = rng.permutation(6).tolist()
    Q = relabel(P, perm)
    inverse = [0] * 6
    for old, new in enumerate(perm):
        inverse[new] = old
    assert relabel(Q, inverse) == P


def test_text_format_roundtrip(wedge):
    text = poset_to_text(wedge)
    assert text.splitlines()[0] == "3"
    assert poset_from_text(text) == wedge


def test_text_format_comments_and_reduction():
    text = "# a comment\n\n4\n1 2\n2 3\n# another\n1 3\n"
    P = poset_from_text(text)
    assert P == build_poset(4, [(1, 2), (2, 3)])
    # writer emits the reduction, dropping the implied (1, 3)
    assert poset_to_text(P) == "4\n1 2\n2 3\n"


def test_text_format_errors():
    with pytest.raises(ValueError):
        poset_from_text("# only comments\n")
    with pytest.raises(ValueError):
        poset_from_text("3\n1 2 3\n")
    with pytest.raises(CycleError):
        poset_from_text("2\n1 2\n2 1\n")
    with pytest.raises(ValueError, match="line 3"):
        poset_from_text("2\n1 2\n1 5\n")
    with pytest.raises(ValueError, match="line 2"):
        poset_from_text("2\n1 x\n")


def test_file_roundtrip(tmp_path):
    from sortbounds import read_poset, write_poset

    P = build_poset(5, [(1, 3), (2, 3), (3, 4)])
    path = tmp_path / "p.poset"
    write_poset(P, path)
    assert read_poset(path) == P


def test_caches_are_declared_properties():
    # the pipeline may fill cached properties only; nothing else is attached
    P = n_poset(1)
    analyze(P)
    sample_extension(P, 0)
    order_point_batch(P, 10, np.random.default_rng(0))
    entropy(P)
    chain_matrix(P)
    declared = {k for k, v in vars(Poset).items() if isinstance(v, cached_property)}
    assert "lattice" in vars(P)
    assert set(vars(P)) <= {"n", "rel"} | declared
