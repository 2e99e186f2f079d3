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
    relabel,
    sample_extension,
)
from sortbounds.polytopes import order_point_batch
from sortbounds.poset import count_maximal_chains
from sortbounds.spexpr import parse_sp, realize

from conftest import recursive_maximal_chains, warshall_closure


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


@pytest.mark.parametrize("n, p", [(1, 0.5), (9, 0.3), (64, 0.1), (65, 0.05), (150, 0.02)])
def test_bitmasks_match_relation(n, p):
    P = random_poset(n, np.random.default_rng(n), p=p)
    for e in range(n):
        assert P.pred_masks[e] == sum(1 << i for i in range(n) if P.rel[i, e])
        assert P.succ_masks[e] == sum(1 << j for j in range(n) if P.rel[e, j])


@pytest.mark.parametrize("p", [-1.0, -1e-9, 1.5, float("nan"), float("inf")])
def test_random_poset_rejects_p_outside_unit_interval(p):
    with pytest.raises(DomainError):
        random_poset(4, np.random.default_rng(0), p=p)


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


def test_count_maximal_chains(family8, monkeypatch):
    for name, P in family8:
        assert count_maximal_chains(P) == len(maximal_chains(P)), name
    layered = realize(parse_sp("*".join(["antichain(3)"] * 6 + ["antichain(2)"])))
    assert count_maximal_chains(layered) == len(maximal_chains(layered)) == 1458
    # far past int64: counted exactly, refused before any walk
    wide = realize(parse_sp("*".join(["antichain(3)"] * 45)))
    assert count_maximal_chains(wide) == 3**45
    with pytest.raises(LimitExceededError, match="maximal chains"):
        maximal_chains(wide)
    import sortbounds.poset as poset
    monkeypatch.setattr(poset, "MAX_CHAINS", 1458)
    assert len(maximal_chains(layered)) == 1458
    monkeypatch.setattr(poset, "MAX_CHAINS", 1457)
    with pytest.raises(LimitExceededError):
        maximal_chains(layered)


def test_closure_of_a_long_chain_matches_warshall():
    rel = np.eye(1500, k=1, dtype=bool)
    want = warshall_closure(rel)
    np.testing.assert_array_equal(chain_poset(1500).rel, want)
    np.testing.assert_array_equal(want, np.triu(np.ones((1500, 1500), dtype=bool), 1))


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
    assert count_induced_N(chain_poset(6)) == 0
    assert count_induced_N(antichain_poset(6)) == 0
    assert count_induced_N(realize(parse_sp(". * (.+.+.) * (. + (. * .))"))) == 0


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
