"""Built-in poset and expression families used by the verification suites."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError
from .linext import count_extensions_sp
from .poset import Poset, build_poset, check_size
from .spexpr import Singleton, SPExpr, n_poset, parallel, realize, series


def chain_poset(n: int) -> Poset:
    return build_poset(n, ((i, i + 1) for i in range(1, n)))


def antichain_poset(n: int) -> Poset:
    return build_poset(n, [])


def chain2_plus_point() -> Poset:
    """Two comparable elements plus one isolated: the smallest poset where
    every bound here is nontrivial (entropy (2/3) ln 2, 3 extensions)."""
    return build_poset(3, [(2, 1)])


def diamond_poset() -> Poset:
    return build_poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])


def fence_poset(n: int) -> Poset:
    """Zigzag 1 < 2 > 3 < 4 > ...; plenty of incomparability, never SP for
    n >= 4."""
    return build_poset(n, ((i, i + 1) if i % 2 == 1 else (i + 1, i) for i in range(1, n)))


@lru_cache(maxsize=32)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs a < b of range(n) in row-major order (cached: read only)."""
    return np.triu_indices(n, 1)


def random_poset(n: int, rng: np.random.Generator, p: float = 0.3) -> Poset:
    """Transitive closure of a random DAG: pairs oriented along a hidden
    random topological order, each kept with probability 0 <= p <= 1."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must lie in [0, 1], got {p}")
    if n < 1:
        raise DomainError(f"a poset needs n >= 1 elements, got {n}")
    check_size(n)
    order = rng.permutation(n)
    a, b = _upper_pairs(n)
    rel = np.zeros((n, n), dtype=bool)
    rel[order[a], order[b]] = rng.random(len(a)) < p  # one coin per pair, row-major
    return Poset(rel)


def random_sp_expr(rng: np.random.Generator, n: int) -> SPExpr:
    """Random series-parallel expression on exactly n elements, no N blocks."""
    if n < 1:
        raise DomainError(f"an expression needs n >= 1 elements, got {n}")
    if n == 1:
        return Singleton()
    parts = int(rng.integers(2, min(n, 4) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [n]]))
    children = [random_sp_expr(rng, int(s)) for s in sizes]
    return series(*children) if rng.random() < 0.5 else parallel(*children)


def standard_family(max_n: int = 8, seed: int = 12345) -> list[tuple[str, Poset]]:
    """Named posets exercising every code path: chains, antichains, blowups
    of N, small classics and seeded random DAGs of 4 to max_n elements."""
    if max_n < 4:
        raise DomainError(f"the random members need max_n >= 4, got {max_n}")
    rng = np.random.default_rng(seed)
    family: list[tuple[str, Poset]] = []
    for n in range(1, min(max_n, 6) + 1):
        family.append((f"chain{n}", chain_poset(n)))
    for n in range(2, min(max_n, 6) + 1):
        family.append((f"antichain{n}", antichain_poset(n)))
    family.append(("chain2+point", chain2_plus_point()))
    family.append(("diamond", diamond_poset()))
    family.append(("N1", n_poset(1)))
    if max_n >= 5:
        family.append(("fence5", fence_poset(5)))
    if max_n >= 6:
        family.append(("fence6", fence_poset(6)))
    if max_n >= 7:
        family.append(("sp7", realize(series(
            Singleton(),
            parallel(Singleton(), Singleton(), Singleton()),
            parallel(Singleton(), series(Singleton(), Singleton())),
        ))))
    if max_n >= 8:
        family.append(("N2", n_poset(2)))
    for t in range(4):
        n = int(rng.integers(4, max_n + 1))
        family.append((f"random{t}_n{n}", random_poset(n, rng, p=float(rng.uniform(0.15, 0.5)))))
    return family


def sp_pair_family(
    count: int, rng: np.random.Generator, max_total_n: int = 10, max_extensions: int = 20_000
) -> list[tuple[SPExpr, SPExpr]]:
    """Random SP expression pairs whose compositions stay enumerable.  Two
    nonempty parts have at least 2 elements and, in parallel, at least 2
    extensions, so a smaller cap on either could never be met."""
    if max_total_n < 2:
        raise DomainError(f"a pair needs max_total_n >= 2 elements, got {max_total_n}")
    if max_extensions < 2:
        raise DomainError(f"a pair has at least 2 extensions, got max_extensions={max_extensions}")
    pairs = []
    while len(pairs) < count:
        total = int(rng.integers(2, max_total_n + 1))
        n1 = int(rng.integers(1, total))
        e1 = random_sp_expr(rng, n1)
        e2 = random_sp_expr(rng, total - n1)
        if count_extensions_sp(parallel(e1, e2)) <= max_extensions:
            pairs.append((e1, e2))
    return pairs
