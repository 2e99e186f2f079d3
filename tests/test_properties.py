"""Property tests: the fast paths against the brute-force oracles."""
import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import block_diag

from sortbounds import (
    DomainError,
    LimitExceededError,
    Singleton,
    SortboundsError,
    build_adversary,
    build_poset,
    certify_sandwich,
    chain_matrix,
    count_extensions,
    count_extensions_sp,
    count_induced_N,
    d_vector,
    entropy,
    entropy_sp,
    exp_ln_gap_check,
    extension_orders,
    fence_poset,
    norm_bracket,
    orders_by_rank,
    parallel,
    parse_sp,
    poset_from_text,
    qlb_fraction,
    qlb_sp_fraction,
    random_poset,
    random_sp_expr,
    realize,
    recognize_sp,
    sample_extension,
    series,
    sp_decomposition,
    transfer,
)
from sortbounds import polytopes, quantum
from sortbounds.polytopes import _order_points, entropy_bracket, order_point_batch
from sortbounds.poset import transitive_closure
from sortbounds.quantum import DENSE_MAX, _window_types, max_gamma_ij_norm
from sortbounds.spexpr import Block, nodes

from conftest import (
    all_types_max_gamma_ij_norm,
    barrier_entropy,
    brute_force_extensions,
    brute_force_induced_N,
    brute_force_qlb,
    census,
    dict_upset_counts,
    gamma_ij,
    lattice_counts,
    loop_adversary,
    loop_window_types,
    maximal_types_block_diagonal,
    pair_loop_random_poset,
    per_mask_max_gamma_ij_norm,
    recursive_extension_orders,
    seed_entropy,
    seed_exp_ln_gap_check,
    seed_norm_bracket,
    warshall_closure,
)


@st.composite
def posets(draw, max_n=7):
    """(P, 0-based pairs): a random pair set oriented along a hidden order."""
    n = draw(st.integers(1, max_n))
    labels = draw(st.permutations(range(n)))
    candidates = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n)]
    pairs = sorted(draw(st.sets(st.sampled_from(candidates)))) if candidates else []
    return build_poset(n, [(a + 1, b + 1) for a, b in pairs]), pairs


sp_exprs = st.recursive(
    st.just(Singleton()),
    lambda kids: st.builds(
        lambda cs, in_series: series(*cs) if in_series else parallel(*cs),
        st.lists(kids, min_size=2, max_size=3),
        st.booleans(),
    ),
    max_leaves=7,
).filter(lambda e: e.size <= 7)


def _suffix_counts(n, orders):
    """Oracle table: up-set bitmask -> number of distinct orders of it that
    end some extension, which is the extension count of that up-set."""
    suffixes = {}
    for order in orders:
        for k in range(n + 1):
            tail = order[n - k:]
            mask = sum(1 << e for e in tail)
            suffixes.setdefault(mask, set()).add(tail)
    return {mask: len(tails) for mask, tails in suffixes.items()}


@given(posets())
def test_upset_table_matches_brute_force(case):
    P, pairs = case
    orders = brute_force_extensions(P.n, pairs)
    assert count_extensions(P) == len(orders)
    upsets = {
        m for m in range(1 << P.n)
        if all(m >> b & 1 for a, b in pairs if m >> a & 1)
    }
    # the table holds ideals: up-set U is the complement of ideal D
    full = (1 << P.n) - 1
    table = {full ^ m: c for m, c in lattice_counts(P).items()}
    assert set(table) == upsets
    assert table == _suffix_counts(P.n, orders)


def _assert_lattice(P):
    """`P.lattice` against the dict-loop oracle, and its edge invariants:
    each edge places one element whose predecessors are all placed, every
    such element has an edge, and a node lists its edges by element."""
    full = (1 << P.n) - 1
    assert lattice_counts(P) == {full ^ u: c for u, c in dict_upset_counts(P).items()}
    lattice = P.lattice
    assert len(lattice) == P.n + 1
    preds = [sum(1 << i for i in P.predecessors(e)) for e in range(P.n)]
    for size, layer in enumerate(lattice):
        masks = layer.masks.tolist()
        assert masks == sorted(set(masks)) and all(m.bit_count() == size for m in masks)
        if size == P.n:
            assert layer.start.tolist() == [0] and len(layer.elem) == len(layer.dst) == 0
            continue
        up = lattice[size + 1].masks.tolist()
        start, elem, dst = layer.start.tolist(), layer.elem.tolist(), layer.dst.tolist()
        assert start[0] == 0 and start[-1] == len(elem) == len(dst)
        for j, D in enumerate(masks):
            placed = elem[start[j] : start[j + 1]]
            assert placed == [e for e in range(P.n)
                              if not D >> e & 1 and preds[e] & D == preds[e]]
            assert [up[d] for d in dst[start[j] : start[j + 1]]] == [D | 1 << e for e in placed]


@given(posets())
def test_lattice_matches_dict_oracle(case):
    P, _ = case
    _assert_lattice(P)
    assert P.lattice[0].masks.dtype == P.lattice[0].counts.dtype == np.int64


@pytest.mark.parametrize("text", ["chain(21)", "N(6)"])
def test_lattice_refuses_past_max_n(text):
    # past MAX_N = 20 no poset is built, so no table is either: `realize`
    # refuses chain(21), and the parser, which builds each N(k) leaf, N(6)
    if text == "N(6)":
        with pytest.raises(LimitExceededError, match="^n=24 exceeds the size cap 20$"):
            parse_sp(text)
        return
    e = parse_sp(text)
    with pytest.raises(LimitExceededError, match=f"^n={e.size} exceeds the size cap 20$"):
        realize(e)


def test_lattice_has_one_dtype_per_array():
    # masks, counts, start, elem, dst: one dtype each at every n <= MAX_N
    for P in [*census(6), fence_poset(20)]:
        for layer in P.lattice:
            assert [a.dtype for a in layer] == [np.int64, np.int64, np.int32, np.uint8, np.int32]


def _assert_same_orders(P):
    got, want = extension_orders(P), recursive_extension_orders(P)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@given(posets())
def test_extension_orders_are_brute_force_in_lex_order(case):
    P, pairs = case
    assert [tuple(o) for o in extension_orders(P).tolist()] == brute_force_extensions(P.n, pairs)
    _assert_same_orders(P)


@pytest.mark.parametrize("text", ["N(5)", "N(2)+chain(2)+chain(2)"])
def test_extension_orders_match_recursion_at_n20(text):
    _assert_same_orders(realize(parse_sp(text)))


@given(posets(), st.lists(st.floats(0, 1, exclude_max=True), max_size=12), st.integers(0, 2**32))
def test_orders_by_rank_indexes_the_lex_list(case, fractions, seed):
    P, _ = case
    want = recursive_extension_orders(P)
    N = len(want)
    # unsorted, repeated ranks, with both ends
    ranks = np.array([0, N - 1, *(int(f * N) for f in fractions), N - 1, 0])
    got = orders_by_rank(P, ranks)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want[ranks])
    # a rank outside 0..N-1, a fraction or a 2-d array is refused
    for bad in ([-1], [N], [1.5], [[0]]):
        with pytest.raises(DomainError):
            orders_by_rank(P, bad)
    # the batch sampler reads the same rows whether it enumerates (N <= samples)
    # or walks only the drawn ranks
    for samples in (max(N - 1, 1), N, N + 1):
        rng = np.random.default_rng(seed)
        rows = want[rng.integers(0, N, size=samples)]
        np.testing.assert_array_equal(order_point_batch(P, samples, np.random.default_rng(seed)),
                                      _order_points(rows, rng))


@given(posets(), st.integers(0, 2**32))
def test_sample_order_is_an_extension(case, seed):
    P, pairs = case
    assert sample_extension(P, seed).order in brute_force_extensions(P.n, pairs)


@settings(max_examples=40)
@given(posets())
def test_qlb_fraction_matches_brute_force(case):
    P, pairs = case
    assert qlb_fraction(P) == brute_force_qlb(P.n, pairs)


@given(posets(), st.integers(0, 2**32))
def test_d_vector_is_transfer_at_ranks(case, seed):
    # the gap vector is the transfer map evaluated at ranks/n, scaled back
    P, _ = case
    ext = sample_extension(P, seed)
    scaled = transfer(P, np.asarray(ext.rank) / P.n) * P.n
    assert tuple(np.rint(scaled).astype(int).tolist()) == d_vector(P, ext)


@given(posets(), st.integers(0, 2**32), st.integers(0, 6), st.integers(2, 200))
def test_exp_ln_gap_check_matches_seed(case, seed, i, samples):
    # the (n, i, d) form at element i's gap d read off d_vector takes the same
    # draws and arithmetic as the per-extension form it replaced
    P, _ = case
    i %= P.n
    ext = sample_extension(P, seed)
    d = d_vector(P, ext)[i]
    assert (exp_ln_gap_check(P.n, ext.rank[i] - d, d, samples, seed)
            == seed_exp_ln_gap_check(P, ext, i, samples, seed))


@settings(max_examples=40)
@given(sp_exprs)
def test_sp_recurrences_match_enumeration(e):
    P = realize(e)
    pairs = P.pairs()
    assert count_extensions_sp(e) == len(brute_force_extensions(P.n, pairs))
    assert qlb_sp_fraction(e) == brute_force_qlb(P.n, pairs)


@given(posets())
def test_decomposition_folds_match_brute_force(case):
    # any poset, SP or not: the folds evaluate the Block leaves directly
    P, pairs = case
    e, leaves = sp_decomposition(P)
    perm = np.asarray(leaves)
    np.testing.assert_array_equal(realize(e).rel, P.rel[np.ix_(perm, perm)])
    assert count_extensions_sp(e) == len(brute_force_extensions(P.n, pairs))
    assert qlb_sp_fraction(e) == brute_force_qlb(P.n, pairs)
    assert (not recognize_sp(P)) == (count_induced_N(P) > 0)


@given(sp_exprs)
@example(parse_sp("N(2) * (. + chain(3))"))
def test_every_node_carries_its_size(e):
    # a node's size is fixed when it is built; it is its realized poset's n
    for node in nodes(e):
        assert node.size == realize(node).n
    # and it stays out of equality, hashing and repr
    back = parse_sp(str(e))
    assert back == e and hash(back) == hash(e) and back.size == e.size
    assert "size" not in repr(e)


@given(posets(max_n=8))
def test_decomposition_nodes_carry_their_sizes(case):
    P, _ = case
    e = sp_decomposition(P)[0]
    assert e.size == P.n
    for node in nodes(e):
        assert node.size == realize(node).n
        if isinstance(node, Block):
            assert node.size == node.poset.n


@given(posets(max_n=9))
def test_count_induced_N_is_brute_force(case):
    P, _ = case
    assert count_induced_N(P) == brute_force_induced_N(P)


def test_count_induced_N_is_brute_force_at_n12():
    rng = np.random.default_rng(12)
    cases = [fence_poset(12), realize(parse_sp("N(3)")), realize(parse_sp("N(1) + N(2)"))]
    cases += [random_poset(12, rng, p=p) for p in (0.1, 0.2, 0.3, 0.5)]
    for P in cases:
        assert count_induced_N(P) == brute_force_induced_N(P)


def test_random_poset_stream_is_the_pair_loop():
    # every seeded family of `verify` draws through this stream
    for seed in range(500):
        n, p = 1 + seed % 11, 0.05 + 0.9 * (seed % 13) / 12
        ours, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(random_poset(n, ours, p=p).rel,
                                      pair_loop_random_poset(n, loop, p=p).rel)
        assert ours.random() == loop.random()


def _assert_brackets_norm(M):
    lo, hi = norm_bracket(M)
    dense = M.to_dense() if hasattr(M, "to_dense") else M
    exact = float(np.abs(np.linalg.eigvalsh(dense)).max()) if len(dense) else 0.0
    assert lo <= exact <= hi
    assert hi - lo <= 1e-10 * hi


@st.composite
def nonnegative_symmetric(draw):
    """A random nonnegative symmetric matrix: plain, block-diagonal,
    bipartite, or with zeroed rows; small, or past DENSE_MAX so that large
    components reach the sparse eigensolver."""
    n = draw(st.integers(1, 12) | st.integers(DENSE_MAX + 1, DENSE_MAX + 40))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    A = rng.choice([0.25, 1 / 3, 0.5, 1.0, 2.0], size=(n, n)) * (rng.random((n, n)) < density)
    A = np.triu(A) + np.triu(A, 1).T
    kind = draw(st.sampled_from(["plain", "blocks", "bipartite", "zero_rows"]))
    cut = draw(st.integers(0, n))
    if kind == "blocks":
        A[:cut, cut:] = A[cut:, :cut] = 0.0
    elif kind == "bipartite":
        A[:cut, :cut] = A[cut:, cut:] = 0.0
    elif kind == "zero_rows":
        A[:cut] = A[:, :cut] = 0.0
    return A


@given(nonnegative_symmetric())
def test_norm_bracket_contains_dense_norm(A):
    _assert_brackets_norm(A)


@settings(max_examples=40)
@given(posets())
@example((realize(parse_sp("chain(2)+chain(2)+.+.")), []))  # dim 180 > DENSE_MAX
def test_norm_bracket_on_adversary_matrices(case):
    P, _ = case
    assume(count_extensions(P) <= 400)
    gamma = build_adversary(P)
    _assert_brackets_norm(gamma)
    for i in range(P.n):
        for j in range(i + 1, P.n):
            _assert_brackets_norm(gamma_ij(gamma, P, i, j))


@settings(max_examples=40)
@given(posets(max_n=9))
def test_max_gamma_ij_norm_matches_per_mask_oracle(case):
    P, _ = case
    assume(count_extensions(P) <= 400)
    gamma = build_adversary(P)
    got = max_gamma_ij_norm(gamma, P)
    assert got == all_types_max_gamma_ij_norm(gamma, P)
    assert got == pytest.approx(per_mask_max_gamma_ij_norm(gamma, P), rel=1e-12, abs=0)


def test_norm_bracket_is_the_seed_bracket_on_the_reference_matrices():
    # every Gamma that `analyze` brackets on the reference inputs, and
    # hilbert_norm's sections; each Gamma's masked norm is the seed bracket's
    # upper side on the block diagonal of its maximal masks, to the bit
    gammas = [(name, P, build_adversary(P)) for name, report, P in _reference_reports()
              if report["gamma_norm"] is not None]
    assert len(gammas) == 73
    for name, P, gamma in gammas:
        assert norm_bracket(gamma) == seed_norm_bracket(gamma), name
        diagonal = maximal_types_block_diagonal(gamma, P)
        assert max_gamma_ij_norm(gamma, P) == seed_norm_bracket(diagonal)[1], name
    for m in (10, 50, 200):
        hilbert = 1.0 / np.add.outer(np.arange(m), np.arange(m) + 1.0)
        assert norm_bracket(hilbert) == seed_norm_bracket(hilbert), m


@st.composite
def mixed_block_diagonals(draw):
    """A nonnegative symmetric matrix of several components, each a weighted
    path with random chords: some of at most DENSE_MAX vertices and some
    past it, sizes repeated, isolated vertices among them, and the vertices
    shuffled so that components interleave and their labels come in any
    order."""
    small = st.integers(1, 6)
    large = st.integers(DENSE_MAX + 1, DENSE_MAX + 12)
    sizes = draw(st.lists(small | large, min_size=1, max_size=6))
    sizes += draw(st.lists(st.sampled_from(sizes), max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    weights = np.array([0.25, 1 / 3, 0.5, 1.0, 2.0])
    blocks = []
    for s in sizes:
        B = np.diag(rng.choice(weights, s - 1), 1) if s > 1 else np.zeros((1, 1))
        B += np.triu(rng.choice(weights, (s, s)) * (rng.random((s, s)) < 3 / s), 2)
        blocks.append(B + B.T)
    A = block_diag(*blocks)
    order = rng.permutation(len(A)) if draw(st.booleans()) else np.arange(len(A))
    return sparse.csr_matrix(A[np.ix_(order, order)])


@settings(max_examples=60)
@given(mixed_block_diagonals())
def test_norm_bracket_is_the_seed_bracket_on_mixed_block_diagonals(A):
    assert norm_bracket(A) == seed_norm_bracket(A)


@settings(max_examples=60)
@given(posets())
def test_window_types_match_the_loop_oracle(case):
    P, _ = case
    assume(count_extensions(P) <= 400)
    gamma = build_adversary(P)
    got, want = _window_types(gamma, P), loop_window_types(gamma, P)
    assert np.issubdtype(got.dtype, np.integer)
    np.testing.assert_array_equal(got, want)


def _assert_same_triplets(P):
    gamma = build_adversary(P)
    for got, want in zip((gamma.rows, gamma.cols, gamma.vals), loop_adversary(P)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@given(posets())
def test_build_adversary_matches_loop(case):
    P, _ = case
    assume(count_extensions(P) <= 400)
    _assert_same_triplets(P)


def _natural_posets(max_n):
    """Every naturally labelled poset with at most max_n elements, once:
    the closures of every set of label pairs a < b, deduplicated."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            P = build_poset(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
            if P.rel.tobytes() not in seen:
                seen.add(P.rel.tobytes())
                yield P


def test_build_adversary_matches_loop_on_every_small_poset():
    # every poset has a natural labelling, so the 1 + 2 + 7 + 40 + 357
    # relations (OEIS A006455) cover every poset with n <= 5 up to isomorphism
    posets = list(_natural_posets(5))
    assert len(posets) == 407
    for P in posets:
        _assert_same_triplets(P)


@pytest.mark.parametrize("text", ["chain(17)+chain(3)", "chain(18)+antichain(2)"])
def test_build_adversary_matches_loop_at_n20(text):
    # n = 20 under the matrix cap: the keys reach 0.90 and 0.997 of 20!,
    # and the running sum of flipped-pair terms passes 2**63, so its int64
    # wraparound is exercised
    P = realize(parse_sp(text))
    assert P.n == 20
    _assert_same_triplets(P)


@given(posets(max_n=10))
def test_entropy_matches_barrier_oracle(case):
    P, _ = case
    sol, want = entropy(P, tol=1e-12), barrier_entropy(P).H
    assert abs(sol.H - want) <= 1e-12
    assert sol.kkt_residual <= 1e-12
    # the default tol stops no later, within its own certified gap
    default = entropy(P)
    assert default.kkt_residual <= 1e-8
    assert default.newton_steps <= sol.newton_steps
    assert abs(default.H - want) <= default.kkt_residual + 1e-12
    # strictly inside the orthant, and on the feasible side of every chain
    # constraint with no tolerance
    for z in (sol.z_star, default.z_star):
        assert (z > 0).all()
        assert ((chain_matrix(P) @ z) <= 1.0).all()


def _ln(q):
    return math.log(q.numerator) - math.log(q.denominator)


@given(posets(max_n=10), st.floats(0.25, 4.0), st.integers(0, 2**32))
def test_entropy_bracket_encloses_the_entropy(case, scale, seed):
    # a tight solve puts -n H* in [-n H, -n H + n kkt]; lo <= e^(-n H*) <= hi
    # must hold for the solve's own bracket and for perturbed inputs: z
    # scaled (out of the polytope when scale > 1), lam of any sum, lam with
    # zeros (1e-11 of float rounding in the logs)
    P, _ = case
    sol, A = entropy(P, tol=1e-12), chain_matrix(P)
    rng = np.random.default_rng(seed)
    lam = scale * rng.random(len(A))
    low, high = -P.n * sol.H, -P.n * sol.H + P.n * sol.kkt_residual
    brackets = [sol.bracket,
                entropy_bracket(A, scale * sol.z_star, lam),
                entropy_bracket(A, sol.z_star, np.where(rng.random(len(A)) < 0.5, 0.0, lam)),
                entropy_bracket(A, rng.random(P.n) + 1e-3, np.zeros(len(A)))]
    for lo, hi in brackets:
        assert 0 < lo <= hi
        assert _ln(lo) <= high + 1e-11 and _ln(hi) >= low - 1e-11
    # the solve's own bracket is tight, so it decides what the float LB does
    assert _ln(sol.bracket[0]) >= low - 1e-6 and _ln(sol.bracket[1]) <= high + 1e-6
    assert entropy_bracket(A, sol.z_star, np.zeros(len(A)))[1] == 1  # H* >= 0


def _reference_reports():
    """(name, recorded report, poset) of each report input of bench/reference.json."""
    ref = pathlib.Path(__file__).resolve().parent.parent / "bench" / "reference.json"
    inputs = json.loads(ref.read_text(encoding="ascii"))["inputs"]
    return [(name, entry["report"],
             poset_from_text(entry["text"]) if entry["fmt"] == "poset"
             else realize(parse_sp(entry["text"])))
            for name, entry in inputs.items() if "report" in entry]


def _assert_seed_iterates(P, name=None, tol=1e-8):
    # the iterates are a prefix of the seed loop's, bit for bit: cut at the
    # same step count, the seed loop's best is its last iterate, the first
    # whose gap is at most tol
    got = entropy(P, tol=tol)
    want = seed_entropy(P, tol, max_newton=got.newton_steps)
    assert got.kkt_residual <= tol, name
    assert (got.H, got.kkt_residual, got.newton_steps) == (want.H, want.kkt_residual,
                                                           want.newton_steps), name
    assert got.z_star.tobytes() == want.z_star.tobytes(), name


@given(posets(max_n=14))
def test_entropy_takes_the_seed_loops_iterates(case):
    _assert_seed_iterates(case[0])


def test_entropy_takes_the_seed_loops_iterates_on_the_corpus(family8):
    # every Block and N(k) leaf that `analyze` solves on the reference
    # inputs, the standard family, and the 1458 chains of the widest layered
    # poset at n = 20, from a loose tol to a tight one
    leaves = [(name, node.poset) for name, _, P in _reference_reports()
              for node in nodes(sp_decomposition(P)[0]) if isinstance(node, Block)]
    assert len(leaves) == 94
    layered = realize(parse_sp("*".join(["antichain(3)"] * 6 + ["antichain(2)"])))
    for name, P in [*family8, ("layered", layered), *leaves]:
        for tol in (1e-4, 1e-8, 1e-9, 1e-12):
            _assert_seed_iterates(P, name, tol)


def _assert_fold_matches_solve(P, e):
    fold = entropy_sp(e)
    sol = entropy(P)
    assert abs(fold.H - sol.H) <= sol.kkt_residual + 1e-12
    assert certify_sandwich(count_extensions(P), fold.top, fold.leaves)


@given(posets(max_n=9))
def test_entropy_fold_matches_whole_poset_solve(case):
    P, _ = case
    _assert_fold_matches_solve(P, sp_decomposition(P)[0])


@given(st.integers(1, 9), st.integers(0, 2**32))
def test_entropy_fold_matches_solve_on_random_sp_exprs(n, seed):
    e = random_sp_expr(np.random.default_rng(seed), n)
    _assert_fold_matches_solve(realize(e), e)


def test_analyze_lists_no_chain_without_a_block(monkeypatch):
    # the 35 reference inputs whose decomposition has no Block: H, LB and the
    # sandwich come from the exact fold, with no chain listed
    listed = []
    real = polytopes.maximal_chains
    monkeypatch.setattr(polytopes, "maximal_chains", lambda P: listed.append(P.n) or real(P))
    blockless = 0
    for _, report, P in _reference_reports():
        if recognize_sp(P) is None:
            continue
        blockless += 1
        assert quantum.analyze(P).sandwich_ok is report["sandwich_ok"]
    assert blockless == 35
    assert listed == []


@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_transitive_closure_matches_warshall(rows):
    # any relation, cycles and loops included: both compute reachability
    rel = np.array(rows, dtype=bool)
    before = rel.copy()
    np.testing.assert_array_equal(transitive_closure(rel), warshall_closure(rel))
    np.testing.assert_array_equal(rel, before)


_EXPR_TOKENS = [".", "+", "*", "(", ")", " ", "chain", "antichain", "N", "foo", "0", "3", "99999"]
_POSET_TOKENS = ["\n", " ", "#", "-", "x", "0", "1", "2", "3", "12", "99999"]


_ANY_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=40)


@given(st.lists(st.sampled_from(_EXPR_TOKENS), max_size=25).map("".join) | _ANY_TEXT)
def test_parse_sp_raises_only_package_errors(text):
    try:
        parse_sp(text)
    except (SortboundsError, ValueError):
        pass


@given(st.lists(st.sampled_from(_POSET_TOKENS), max_size=25).map("".join) | _ANY_TEXT)
def test_poset_reader_raises_only_package_errors(text):
    try:
        poset_from_text(text)  # n is checked before the relation is built
    except (SortboundsError, ValueError):
        pass
