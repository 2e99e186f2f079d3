import functools
import itertools
import math
import shutil
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from sortbounds import (
    Block,
    DomainError,
    EntropySolution,
    LinearExtension,
    NonConvergenceError,
    Poset,
    Singleton,
    build_poset,
    chain2_plus_point,
    chain_matrix,
    extension_orders,
    harmonic,
    is_extension,
    norm_bracket,
    parallel,
    series,
    standard_family,
    tech_constant,
)
from sortbounds.orderstats import sorted_uniforms
from sortbounds.polytopes import chain_point_batch, entropy_bracket, transfer_batch
from sortbounds.quantum import (
    DENSE_MAX,
    AdversaryMatrix,
    _bracket,
    _maximal_types,
    _window_matrix,
    _window_types,
)

# Property tests draw the same examples on every run and leave no example
# database behind.
settings.register_profile("sortbounds", derandomize=True, deadline=None, database=None)
settings.load_profile("sortbounds")


def pytest_configure(config):
    # Hypothesis also caches what it mines from the sources at collection;
    # keep that cache out of the working tree and drop it after the run.
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


@pytest.fixture
def wedge():
    """2-chain plus an isolated element: 3 extensions, entropy (2/3) ln 2."""
    return chain2_plus_point()


@pytest.fixture(scope="session")
def tech500():
    return tech_constant(500)


@pytest.fixture(scope="session")
def family8():
    return standard_family(max_n=8, seed=12345)


def seed_exp_ln_gap_check(P, ext, i, samples, seed):
    """Oracle: `exp_ln_gap_check` in its per-extension form, which re-checked
    ext and re-ran the one-row gap map to find element i's gap.
    `exp_ln_gap_check(P.n, r - d, d, ...)` at d = `d_vector(P, ext)[i]` must
    give the same pair bit for bit."""
    if not is_extension(P, ext):
        raise DomainError("ext is not a linear extension of P")
    n = P.n
    r = ext.rank[i]
    r_prev = r - int(transfer_batch(P, np.array([ext.rank]))[0, i])
    rng = np.random.default_rng(seed)
    z = sorted_uniforms(n, samples, rng)
    lower = z[:, r_prev - 1] if r_prev >= 1 else 0.0
    vals = np.log(z[:, r - 1] - lower)
    target = float(harmonic(r - r_prev - 1) - harmonic(n))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return abs(mean - target), stderr


def seed_chain_polytope_volume_mc(P, samples, seed):
    """Oracle: `chain_polytope_volume_mc` as it was, testing each row of
    chain sums with a row-wise ``.all(axis=1)`` in chunks of 100,000 rows.
    The bulk test must give the same pair bit for bit."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    A = chain_matrix(P)
    rng = np.random.default_rng(seed)
    hits = 0
    left = samples
    while left > 0:
        chunk = min(left, 100_000)
        u = rng.random((chunk, P.n))
        hits += int(((u @ A.T) <= 1.0).all(axis=1).sum())
        left -= chunk
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def seed_qh_mc(P, samples, seed):
    """Oracle: `qh_mc` as it was, keeping the rows with a row-wise
    ``.all(axis=1)``.  The bulk test must give the same pair bit for bit."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    filled = 0
    while filled < samples:
        want = samples - filled
        Z = chain_point_batch(P, want, rng)
        good = (Z > 0.0).all(axis=1)
        got = int(good.sum())
        vals[filled : filled + got] = -np.log(Z[good]).mean(axis=1)
        filled += got
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def brute_force_extensions(n, pairs01):
    """Oracle: filter all n! element orders against the 0-based pairs."""
    out = []
    for perm in itertools.permutations(range(n)):
        rank = [0] * n
        for pos, e in enumerate(perm):
            rank[e] = pos + 1
        if all(rank[a] < rank[b] for a, b in pairs01):
            out.append(perm)
    return out


def pair_loop_random_poset(n, rng, p=0.3):
    """Oracle: `random_poset` as a loop that draws one ``rng.random()`` coin
    per pair a < b in row-major order, oriented along a seeded permutation."""
    labels = (rng.permutation(n) + 1).tolist()
    pairs = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return build_poset(n, pairs)


def brute_force_induced_N(P):
    """Oracle: the 4-subsets with some labeling a, b, c, d of their elements
    under which the induced relation is exactly {a<b, c<b, c<d}."""
    count = 0
    for quad in itertools.combinations(range(P.n), 4):
        induced = {(i, j) for i in quad for j in quad if P.rel[i, j]}
        if any(induced == {(a, b), (c, b), (c, d)} for a, b, c, d in itertools.permutations(quad)):
            count += 1
    return count


@functools.lru_cache(maxsize=None)
def census(max_n):
    """Every poset with 1 <= n <= max_n elements, one per isomorphism class,
    by n and then by canonical form (A000112: 1, 2, 5, 16, 63, 318 classes).

    Removing a maximal element leaves a poset on n - 1 elements with the
    element's predecessors an ideal of it, so each poset on n - 1 grows a
    new maximal element n - 1 above each of its ideals, read from
    ``Q.lattice`` (Brinkmann and McKay, "Posets on up to 16 points", grow
    them the same way).  A class keeps its least relation over all n!
    relabellings, the relation read as a row-major bit string.
    """
    layer = [Poset(np.zeros((1, 1), dtype=bool))]
    found = list(layer)
    for n in range(2, max_n + 1):
        perms = np.array(list(itertools.permutations(range(n))))
        weights = 1 << np.arange(n * n - 1, -1, -1, dtype=np.int64)  # first entry highest
        classes = {}
        for Q in layer:
            masks = np.concatenate([ideals.masks for ideals in Q.lattice])
            rels = np.zeros((len(masks), n, n), dtype=bool)
            rels[:, :-1, :-1] = Q.rel
            rels[:, :-1, -1] = (masks[:, None] >> np.arange(n - 1)) & 1
            for rel in rels:
                relabelled = rel[perms[:, :, None], perms[:, None, :]].reshape(len(perms), -1)
                keys = relabelled @ weights
                least = int(keys.argmin())
                classes.setdefault(int(keys[least]), relabelled[least].reshape(n, n))
        layer = [Poset(classes[key]) for key in sorted(classes)]
        found += layer
    return tuple(found)


def dict_upset_counts(P):
    """Oracle: the up-set DP as a dict loop, each up-set's bitmask -> its
    number of linear extensions; the full set maps to the count of P.

    Filled one layer of up-set sizes at a time from the empty set: each
    element e outside an up-set U with all its successors in U makes
    U | e an up-set with e minimal, so count[U] is pushed into it.
    """
    succ = [(1 << e, above) for e, above in enumerate(P.succ_masks)]
    counts = {0: 1}
    layer = [0]
    for _ in range(P.n):
        grown = []
        for up in layer:
            c = counts[up]
            for bit, above in succ:
                if up & bit == 0 and up & above == above:
                    key = up | bit
                    got = counts.get(key)
                    if got is None:
                        grown.append(key)
                        counts[key] = c
                    else:
                        counts[key] = got + c
        layer = grown
    return counts


def lattice_counts(P):
    """`P.lattice` read back as a dict: each ideal's bitmask -> its count."""
    return {m: c for layer in P.lattice
            for m, c in zip(layer.masks.tolist(), layer.counts.tolist())}


def recursive_extension_orders(P):
    """Oracle: every extension as an (N, n) int16 array, from a recursion
    that ranks each minimal element of the unranked set in increasing
    order, so the rows come out in lex order."""
    preds = P.pred_masks
    out = []

    def rec(mask, prefix):
        if mask == 0:
            out.append(prefix)
            return
        m = mask
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            if preds[e] & mask == 0:
                rec(mask ^ low, prefix + (e,))

    rec((1 << P.n) - 1, ())
    return np.array(out, dtype=np.int16).reshape(-1, P.n)


def recursive_maximal_chains(P):
    """Oracle: the maximal chains from a depth-first recursion over the
    cover relation, successors in increasing order."""
    succ = [np.nonzero(P.covers[i])[0].tolist() for i in range(P.n)]
    chains = []

    def walk(path):
        if not succ[path[-1]]:
            chains.append(tuple(path))
        for s in succ[path[-1]]:
            walk(path + [s])

    for start in P.minimal_elements():
        walk([start])
    return chains


def _matrix_components(adj):
    n = adj.shape[0]
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in np.nonzero(adj[v])[0]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(sorted(comp))
    return comps


def matrix_sp_decomposition(P):
    """Oracle: `sp_decomposition` from graph searches on submatrices.  A part
    splits in parallel over the DFS components of its comparability matrix,
    else in series over those of its incomparability matrix, sorted by the
    predecessor count of their first element."""
    comparable = P.rel | P.rel.T
    preds = P.rel.sum(axis=0).tolist()

    def split(elems):
        sub = comparable[np.ix_(elems, elems)]
        comps = _matrix_components(sub)
        if len(comps) > 1:
            compose, parts = parallel, [[elems[t] for t in comp] for comp in sorted(comps, key=min)]
        else:
            co = _matrix_components(~sub & ~np.eye(len(elems), dtype=bool))
            if len(co) == 1:
                if len(elems) == 1:
                    return Singleton(), elems
                return Block(P if len(elems) == P.n else Poset(P.rel[np.ix_(elems, elems)])), elems
            compose, parts = series, [[elems[t] for t in comp] for comp in co]
            parts.sort(key=lambda part: preds[part[0]])
        children, leaves = [], []
        for part in parts:
            child, part_leaves = split(part)
            children.append(child)
            leaves.extend(part_leaves)
        return compose(*children), leaves

    expr, leaves = split(list(range(P.n)))
    return expr, tuple(leaves)


def brute_force_qlb(n, pairs01):
    """Oracle: average the harmonic gap sums over brute-forced extensions."""
    def harm(q):
        return sum((Fraction(1, i) for i in range(1, q + 1)), Fraction(0))

    exts = brute_force_extensions(n, pairs01)
    preds = {i: [a for a, b in pairs01 if b == i] for i in range(n)}
    total = Fraction(0)
    for perm in exts:
        rank = [0] * n
        for pos, e in enumerate(perm):
            rank[e] = pos + 1
        for i in range(n):
            ps = preds[i]
            d = rank[i] - max(rank[j] for j in ps) if ps else rank[i]
            total += harm(d - 1)
    return total / len(exts)


def enumeration_qlb(P):
    """Oracle: QLB from every extension, enumerated: each element's gap
    d_i read off the ranks by `transfer_batch`, counted per gap value."""
    orders = extension_orders(P)
    # the 1-based rank of each element, one column at a time, so that no
    # (N, n) int64 array is built
    ranks, rows = np.empty_like(orders), np.arange(len(orders))
    for k in range(P.n):
        ranks[rows, orders[:, k]] = k + 1
    counts = sum(np.bincount(col, minlength=P.n + 1) for col in transfer_batch(P, ranks).T)
    total = sum((int(c) * harmonic(d - 1) for d, c in enumerate(counts) if c and d >= 1),
                Fraction(0))
    return total / len(orders)


def loop_adversary(P):
    """Oracle: the adversary matrix's (rows, cols, vals) triplets from one
    Python loop over (extension, element, step), each target looked up by
    its element order, and the first of each unordered pair kept."""
    orders = extension_orders(P).tolist()
    index = {tuple(o): s for s, o in enumerate(orders)}
    seen = set()
    rows, cols, vals = [], [], []
    for s, order in enumerate(orders):
        place = {e: p for p, e in enumerate(order)}
        for i in range(P.n):
            pos = place[i]
            preds = P.predecessors(i)
            gap = pos - max(place[j] for j in preds) if preds else pos + 1
            for dd in range(1, gap):
                moved = order[: pos - dd] + [i] + order[pos - dd : pos] + order[pos + 1 :]
                tgt = index[tuple(moved)]
                if (s, tgt) in seen:
                    continue
                seen.add((s, tgt))
                seen.add((tgt, s))
                rows.extend((s, tgt))
                cols.extend((tgt, s))
                vals.extend((1.0 / dd, 1.0 / dd))
    return (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64))


def enumerate_extensions(P):
    """Every extension as a `LinearExtension`, in lexicographic order of
    element sequence: the rows of `extension_orders`, read lazily."""
    for order in extension_orders(P).tolist():
        yield LinearExtension.from_order(order)


def index_of(gamma, ext):
    """The row of gamma indexed by an extension (or its rank vector)."""
    rank = tuple(ext.rank) if isinstance(ext, LinearExtension) else tuple(ext)
    matches = np.nonzero((gamma.ranks == np.asarray(rank)).all(axis=1))[0]
    if len(matches) != 1:
        raise KeyError(f"rank vector {rank} is not an indexed extension")
    return int(matches[0])


def nonzero_entries(gamma):
    """Every stored entry of gamma as a dict (row, col) -> value."""
    return {(int(r), int(c)): float(v) for r, c, v in zip(gamma.rows, gamma.cols, gamma.vals)}


def gamma_ij(gamma, P, i, j):
    """Oracle: gamma masked to the entries whose two extensions disagree on
    the i-vs-j comparison, as a matrix of its own."""
    if i == j:
        raise DomainError("the two compared elements must differ")
    if not (0 <= i < P.n and 0 <= j < P.n):
        raise DomainError(f"elements ({i}, {j}) out of range 0..{P.n - 1}")
    below = gamma.ranks[:, i] < gamma.ranks[:, j]
    keep = below[gamma.rows] != below[gamma.cols]
    return AdversaryMatrix(rows=gamma.rows[keep], cols=gamma.cols[keep],
                           steps=gamma.steps[keep], ranks=gamma.ranks)


def per_mask_max_gamma_ij_norm(gamma, P):
    """Oracle: the upper side of `norm_bracket` maximized over the masks,
    one `gamma_ij` matrix and one bracket per incomparable pair."""
    return max((norm_bracket(gamma_ij(gamma, P, i, j))[1]
                for i, j in itertools.combinations(range(P.n), 2)
                if not (P.rel[i, j] or P.rel[j, i])), default=0.0)


def all_types_max_gamma_ij_norm(gamma, P):
    """Oracle: the upper side of one `norm_bracket` call on the block
    diagonal of every distinct window type, contained in another or not."""
    types = _window_types(gamma, P)
    if not len(types):
        return 0.0
    W, states = _window_matrix(P.n - 2)
    a_i, b_i, a_j, b_j = types.T[:, :, None]
    x, y = states[:, 0], states[:, 1]
    inside = (a_i <= x) & (x <= b_i) & (a_j <= y) & (y <= b_j)
    at = np.cumsum(inside).reshape(inside.shape) - 1
    r, c = np.nonzero(W)
    t, e = np.nonzero(inside[:, r] & inside[:, c])
    A = sparse.csr_matrix((W[r, c][e], (at[t, r[e]], at[t, c[e]])), shape=(at.max() + 1,) * 2)
    return norm_bracket(A)[1]


def maximal_types_block_diagonal(gamma, P):
    """Oracle: the block diagonal (`scipy.sparse.block_diag`, in COO) of
    W_{n-2}'s principal submatrices on the boxes of the maximal window
    types, the one matrix whose upper `norm_bracket` side bounds every mask."""
    types = _maximal_types(_window_types(gamma, P))
    W, states = _window_matrix(P.n - 2)
    a_i, b_i, a_j, b_j = types.T[:, :, None]
    x, y = states[:, 0], states[:, 1]
    inside = (a_i <= x) & (x <= b_i) & (a_j <= y) & (y <= b_j)
    return sparse.block_diag([W[np.ix_(row, row)] for row in inside])


def seed_norm_bracket(M):
    """Oracle: `norm_bracket` in its plain form: symmetry from the sparse
    binop A != A.T, components from an undirected search, and the dense
    path's positions and per-size groups built on every call.
    `norm_bracket` must give the same bracket bit for bit."""
    A = M.to_csr() if isinstance(M, AdversaryMatrix) else sparse.csr_matrix(M, dtype=float)
    A.eliminate_zeros()
    if not (np.isfinite(A.data).all() and (A.data > 0).all()):
        raise DomainError("matrix entries must be finite and nonnegative")
    if A.shape[0] != A.shape[1] or (A != A.T).nnz:
        raise DomainError(f"matrix of shape {A.shape} is not square and symmetric")
    if A.nnz == 0:
        return 0.0, 0.0
    labels = connected_components(A, directed=False)[1]
    sizes = np.bincount(labels)
    # a vertex's position in its component: its rank by label minus the earlier sizes
    pos = np.argsort(np.argsort(labels, kind="stable")) - (np.cumsum(sizes) - sizes)[labels]
    coo = A.tocoo()
    comp = labels[coo.row]
    brackets = [(0.0, 0.0)]
    for size in np.unique(sizes[comp]).tolist():
        sel = sizes[comp] == size
        comps, slot = np.unique(comp[sel], return_inverse=True)
        if size > DENSE_MAX:
            for c in comps.tolist():
                block = A if size == A.shape[0] else A[labels == c][:, labels == c]
                vec = eigsh(block, k=1, which="LA", v0=np.ones(size))[1][:, 0]
                x = np.maximum(np.abs(vec), np.finfo(float).tiny)
                brackets.append(_bracket(x, block @ x, size))
            continue
        blocks = np.zeros((len(comps), size, size))
        blocks[slot, pos[coo.row[sel]], pos[coo.col[sel]]] = coo.data[sel]
        x = np.maximum(np.abs(np.linalg.eigh(blocks)[1][:, :, -1]), np.finfo(float).tiny)
        brackets.append(_bracket(x, np.matmul(blocks, x[:, :, None])[:, :, 0], size))
    return tuple(map(max, zip(*brackets)))


def loop_window_types(gamma, P):
    """Oracle: `_window_types` as a loop over the rows of gamma and the
    incomparable pairs i < j.  With rho the order of the other n - 2
    elements in the row, i may take the slots after its last predecessor
    (its place in rho, counted from 1; 0 with none) and before its first
    successor (that successor's place less one; n - 2 with none), and j
    likewise; the four are shifted so that min(a_i, a_j) = 0.  The distinct
    windows come back sorted, as a (types, 4) array."""
    windows = set()
    for rank in gamma.ranks.tolist():
        for i, j in itertools.combinations(range(P.n), 2):
            if P.rel[i, j] or P.rel[j, i]:
                continue
            rho = sorted((e for e in range(P.n) if e not in (i, j)), key=lambda e: rank[e])
            place = {e: k + 1 for k, e in enumerate(rho)}
            a_i, a_j = (max((place[p] for p in P.predecessors(e)), default=0) for e in (i, j))
            b_i, b_j = (min((place[q] - 1 for q in np.nonzero(P.rel[e])[0].tolist()),
                            default=P.n - 2) for e in (i, j))
            shift = min(a_i, a_j)
            windows.add((a_i - shift, b_i - shift, a_j - shift, b_j - shift))
    return np.array(sorted(windows), dtype=np.int64).reshape(-1, 4)


def warshall_closure(rel):
    """Oracle: transitive closure by Warshall's n passes, one per
    intermediate element."""
    out = rel.copy()
    n = out.shape[0]
    for k in range(n):
        out |= out[:, k : k + 1] & out[k : k + 1, :]
    return out


def _barrier_objective(z):
    return -float(np.log(z).mean()) + 0.0


def _barrier_dual(A, lam):
    w = A.T @ lam
    if (w <= 0.0).any():
        return -math.inf
    return float(np.log(A.shape[1] * w).mean() + 1.0 - lam.sum())


def barrier_entropy(P, tol=1e-8, max_newton=1000):
    """Oracle: the entropy program by a log-barrier method (t *= 20) with
    damped Newton centering, then an active-set Newton polish of the KKT
    system; certified by the same duality gap as `entropy`."""
    n = P.n
    A = chain_matrix(P)
    m = A.shape[0]
    longest = int(A.sum(axis=1).max())
    z = np.full(n, 1.0 / (longest + 1))
    t = max(1.0, float(m))
    steps = 0

    def center(z, t, steps):
        for _ in range(60):
            s = 1.0 - A @ z
            grad = -(t / n) / z + A.T @ (1.0 / s)
            hess = np.diag((t / n) / z**2) + (A.T * (1.0 / s**2)) @ A
            dz = np.linalg.solve(hess, -grad)
            if float(-grad @ dz) / 2.0 <= 1e-13 or steps >= max_newton:
                return z, steps
            steps += 1
            alpha = 1.0
            neg = dz < 0
            if neg.any():
                alpha = min(alpha, 0.99 * float(np.min(-z[neg] / dz[neg])))
            ds = A @ dz
            grow = ds > 0
            if grow.any():
                alpha = min(alpha, 0.99 * float(np.min(s[grow] / ds[grow])))
            psi0 = -t * float(np.log(z).sum()) / n - float(np.log(s).sum())
            slope = float(grad @ dz)
            while True:
                zn = z + alpha * dz
                sn = 1.0 - A @ zn
                if (zn > 0).all() and (sn > 0).all():
                    psi = -t * float(np.log(zn).sum()) / n - float(np.log(sn).sum())
                    if psi <= psi0 + 0.25 * alpha * slope:
                        break
                alpha *= 0.5
                if alpha < 1e-13:
                    return z, steps
            z = z + alpha * dz
        return z, steps

    best = None
    while True:
        z, steps = center(z, t, steps)
        s = 1.0 - A @ z
        lam = 1.0 / (t * np.maximum(s, 1e-300))
        gap = _barrier_objective(z) - _barrier_dual(A, lam)
        if best is None or gap < best[0]:
            best = (gap, z.copy(), lam.copy())
        if gap <= max(tol, 1e-10) or t > 1e15 or steps >= max_newton:
            break
        t *= 20.0
    gap, z, lam = _barrier_polish(A, *best)
    if gap > tol:
        raise NonConvergenceError(f"certified duality gap {gap:.3e} above tol {tol:.3e}")
    return EntropySolution(H=_barrier_objective(z), z_star=z, kkt_residual=max(gap, 0.0),
                           newton_steps=steps, bracket=entropy_bracket(A, z, lam))


def _barrier_polish(A, gap, z, lam_barrier):
    """Newton on the KKT system of the apparently-active chains; keeps the
    barrier iterate unless the polished point is better certified."""
    n = A.shape[1]
    s = 1.0 - A @ z
    active = (s < 1e-4) & (lam_barrier > 1e-4 * lam_barrier.max())
    if not active.any():
        return gap, z, lam_barrier
    Aact = A[active]
    k = Aact.shape[0]
    zp = z.copy()
    lam = lam_barrier[active].copy()
    ok = False
    for _ in range(40):
        F = np.concatenate([-1.0 / (n * zp) + Aact.T @ lam, Aact @ zp - 1.0])
        if np.abs(F).max() < 1e-13:
            ok = True
            break
        J = np.block([[np.diag(1.0 / (n * zp**2)), Aact.T], [Aact, np.zeros((k, k))]])
        try:
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        raw = step[:n]
        limit = np.where(raw < 0, -0.9 * zp / np.minimum(raw, -1e-300), 1.0)
        alpha = min(1.0, float(limit.min()))
        zp = zp + alpha * raw
        lam = lam + alpha * step[n:]
    feasible = (ok and (zp > 0).all() and ((A @ zp) <= 1.0 + 1e-12).all()
                and (lam >= -1e-10).all())
    if not feasible:
        return gap, z, lam_barrier
    lam_full = np.zeros(A.shape[0])
    lam_full[active] = np.maximum(lam, 0.0)
    candidates = [(_barrier_objective(zc) - _barrier_dual(A, lc), zc, lc)
                  for zc in (zp, z) for lc in (lam_full, lam_barrier)]
    gbest, zbest, lbest = min(candidates, key=lambda c: c[0])
    return max(gbest, 0.0), zbest, lbest


def _seed_max_step(x, dx):
    """Largest alpha <= 1 with x + alpha dx >= 0."""
    neg = dx < 0
    return min(1.0, float((-x[neg] / dx[neg]).min())) if neg.any() else 1.0


def seed_entropy(P, tol=1e-8, max_newton=1000):
    """Oracle: the Mehrotra predictor-corrector loop of `entropy` in its
    plain form (M through `np.diag`, w and the predictor's zero matvec
    recomputed, one `_seed_max_step` per ratio test), with
    `_barrier_objective` and `_barrier_dual`, line for line the objective
    and dual it used.  `entropy` must take the same iterates bit for bit."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = P.n
    A = chain_matrix(P)
    m = A.shape[0]
    z = np.full(n, 1.0 / (A.sum(axis=1).max() + 1.0))
    lam = np.full(m, 1.0 / m)
    s = 1.0 - A @ z
    best = (_barrier_objective(z) - _barrier_dual(A, lam), z, lam)
    steps = stalled = 0
    while steps < max_newton and best[0] > 1e-14 and (best[0] > tol or stalled < 3):
        steps += 1
        w = A.T @ lam
        M = np.diag(w / z) + (A.T * (lam / s)) @ A

        def direction(c):
            dz = np.linalg.solve(M, 1.0 / (n * z) - A.T @ (c / s))
            ds = -(A @ dz)
            return dz, ds, (c - lam * ds) / s - lam

        dz, ds, dlam = direction(0.0)
        mu = float(lam @ s) / m
        mu_aff = float((lam + _seed_max_step(lam, dlam) * dlam)
                       @ (s + min(_seed_max_step(z, dz), _seed_max_step(s, ds)) * ds)) / m
        dz, ds, dlam = direction((mu_aff / mu) ** 3 * mu - dlam * ds)
        alpha = 0.99 * min(_seed_max_step(z, dz), _seed_max_step(s, ds))
        for _ in range(50):
            zn = z + alpha * dz
            sn = 1.0 - A @ zn
            if (zn > 0).all() and (sn > 0).all():
                break
            alpha *= 0.5
        else:
            break
        z, s = zn, sn
        lam = lam + 0.99 * _seed_max_step(lam, dlam) * dlam
        gap = _barrier_objective(z) - _barrier_dual(A, lam)
        if gap < best[0]:
            best = (gap, z, lam)
            stalled = 0
        else:
            stalled += 1

    gap, z, lam = best
    scaled = z / (A * (A @ z)[:, None]).max(axis=0)
    if ((A @ scaled) <= 1.0).all():
        scaled_gap = _barrier_objective(scaled) - _barrier_dual(A, lam)
        if scaled_gap < gap:
            z, gap = scaled, scaled_gap
    if gap > tol:
        raise NonConvergenceError(f"certified duality gap {gap:.3e} above tol {tol:.3e}")
    if (z < 1e-9).any():
        raise NonConvergenceError("optimal point degenerate: some z*[i] < 1e-9")
    z = z.copy()
    z.setflags(write=False)
    return EntropySolution(H=_barrier_objective(z), z_star=z, kkt_residual=max(gap, 0.0),
                           newton_steps=steps, bracket=entropy_bracket(A, z, lam))
