import itertools
import shutil
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from sortbounds import chain2_plus_point, extension_orders, standard_family, tech_constant

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


def loop_adversary(P):
    """Oracle: the adversary matrix's (rows, cols, vals) triplets from one
    Python loop over (extension, element, step), each target looked up by
    its element order, and the first of each unordered pair kept."""
    orders = extension_orders(P, max_extensions=10**6).tolist()
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
