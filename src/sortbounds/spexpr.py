"""Expression language for (extended) series-parallel posets.

Grammar, whitespace-insensitive::

    expr := term ('+' term)*           parallel composition (direct sum)
    term := atom ('*' atom)*           series composition (ordinal sum), binds tighter
    atom := '.'                        singleton
          | 'chain' '(' INT ')'        k-fold series of singletons
          | 'antichain' '(' INT ')'    k-fold parallel of singletons
          | 'N' '(' INT ')'            four k-chains A, B, C, D with A < B, C < B, C < D
          | '(' expr ')'

Both compositions are n-ary and flattened, so every expression has a unique
normal form; the binary compositions of the literature are recovered by a
left fold.  ``realize`` numbers elements 0..n-1 in left-to-right leaf order:
a series places every element of an earlier block below every element of a
later block, a parallel adds no cross relations.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Union

import numpy as np

from .errors import LimitExceededError, ParseError
from .poset import Poset


@dataclass(frozen=True)
class Singleton:
    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class Series:
    children: tuple["SPExpr", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("series node needs at least two children")

    def __str__(self) -> str:
        return " * ".join(_paren(c, inside_series=True) for c in self.children)


@dataclass(frozen=True)
class Parallel:
    children: tuple["SPExpr", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("parallel node needs at least two children")

    def __str__(self) -> str:
        return " + ".join(str(c) for c in self.children)


@dataclass(frozen=True)
class NBlock:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"N block size must be >= 1, got {self.k}")

    def __str__(self) -> str:
        return f"N({self.k})"

    @property
    def poset(self) -> Poset:
        """The realized N block."""
        return realize(self)


@dataclass(frozen=True)
class Block:
    """An indecomposable part of a decomposed poset: its comparability and
    incomparability graphs are both connected."""

    poset: Poset


SPExpr = Union[Singleton, Series, Parallel, NBlock, Block]


def _paren(e: SPExpr, *, inside_series: bool) -> str:
    if inside_series and isinstance(e, Parallel):
        return f"({e})"
    return str(e)


def _compose(node: type, children: tuple[SPExpr, ...]) -> SPExpr:
    flat = [g for c in children for g in (c.children if isinstance(c, node) else [c])]
    return flat[0] if len(flat) == 1 else node(tuple(flat))


def series(*children: SPExpr) -> SPExpr:
    """n-ary series composition, flattening nested series nodes."""
    return _compose(Series, children)


def parallel(*children: SPExpr) -> SPExpr:
    """n-ary parallel composition, flattening nested parallel nodes."""
    return _compose(Parallel, children)


def expr_size(e: SPExpr) -> int:
    """Number of elements of the realized poset."""
    if isinstance(e, Singleton):
        return 1
    if isinstance(e, NBlock):
        return 4 * e.k
    if isinstance(e, Block):
        return e.poset.n
    return sum(expr_size(c) for c in e.children)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<dot>\.)|(?P<plus>\+)|(?P<star>\*)|(?P<lp>\()|(?P<rp>\))"
                       r"|(?P<name>[A-Za-z]+)|(?P<int>\d+))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        assert kind is not None
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Each parenthesis level costs three parser frames and adds at most a
# parallel and a series node (an antichain in the innermost series one more),
# so a parsed tree is at most MAX_DEPTH nodes deep; both bounds keep the
# parser and the walks over its output inside the recursion limit of 1000.
MAX_NESTING = 100
MAX_DEPTH = 2 * MAX_NESTING + 3
# Bound on the element count of a whole expression, counted before any leaf
# tuple is built, so a short text cannot allocate millions of leaves.  It
# sits far above the analysis caps (n <= 20 by default), which still report
# their own error for every expression below it.
MAX_SIZE = 10_000


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.size = 0

    def grow(self, k: int, pos: int) -> None:
        self.size += k
        if self.size > MAX_SIZE:
            raise ParseError(f"expression has more than {MAX_SIZE} elements", pos)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse(self) -> SPExpr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> SPExpr:
        parts = [self.term()]
        while self.peek()[0] == "plus":
            self.take()
            parts.append(self.term())
        return parallel(*parts)

    def term(self) -> SPExpr:
        parts = [self.atom()]
        while self.peek()[0] == "star":
            self.take()
            parts.append(self.atom())
        return series(*parts)

    def atom(self) -> SPExpr:
        kind, value, pos = self.take()
        if kind == "dot":
            self.grow(1, pos)
            return Singleton()
        if kind == "lp":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            e = self.expr()
            self.expect("rp", "')'")
            self.depth -= 1
            return e
        if kind == "name":
            if value not in ("N", "chain", "antichain"):
                raise ParseError(f"unknown primitive {value!r}", pos)
            self.expect("lp", "'(' after primitive name")
            num = self.expect("int", "an integer")
            self.expect("rp", "')'")
            k = int(num[1])
            if k < 1:
                raise ValueError(f"{value}({k}): size must be >= 1")
            self.grow(4 * k if value == "N" else k, pos)
            if value == "N":
                return NBlock(k)
            if k == 1:
                return Singleton()
            leaves = tuple(Singleton() for _ in range(k))
            return Series(leaves) if value == "chain" else Parallel(leaves)
        raise ParseError(f"expected an expression, found {value or 'end of input'!r}", pos)


def parse_sp(text: str) -> SPExpr:
    """Parse an expression in the grammar above."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

def realize(e: SPExpr) -> Poset:
    """Build the poset of an expression on elements 0..n-1 in leaf order."""
    n = expr_size(e)
    rel = np.zeros((n, n), dtype=bool)

    def fill(node: SPExpr, offset: int) -> int:
        if isinstance(node, Singleton):
            return offset + 1
        if isinstance(node, NBlock):
            k = node.k
            a, b, c, d = (slice(offset + t * k, offset + (t + 1) * k) for t in range(4))
            for chain_block in (a, b, c, d):
                rel[chain_block, chain_block] = np.triu(np.ones((k, k), dtype=bool), 1)
            for lo_block, hi_block in ((a, b), (c, b), (c, d)):
                rel[lo_block, hi_block] = True
            return offset + 4 * k
        if isinstance(node, Block):
            end = offset + node.poset.n
            rel[offset:end, offset:end] = node.poset.rel
            return end
        starts = []
        cur = offset
        for child in node.children:
            starts.append(cur)
            cur = fill(child, cur)
        starts.append(cur)
        if isinstance(node, Series):
            for t in range(len(node.children)):
                rel[starts[t] : starts[t + 1], starts[t + 1] : cur] = True
        return cur

    fill(e, 0)
    return Poset(rel)


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------

def _components(adj: np.ndarray) -> list[list[int]]:
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


def sp_decomposition(P: Poset) -> tuple[SPExpr, tuple[int, ...]]:
    """Decompose P into a series-parallel expression with ``Block`` leaves.

    Returns ``(expr, leaves)`` where ``leaves[t]`` is the element of P
    realized by the t-th element of ``expr``; so ``realize(expr)`` equals P
    after renaming element ``leaves[t]`` to ``t``.

    Recursive split: a disconnected comparability graph gives a parallel
    node over its components; a disconnected incomparability graph gives a
    series node over its co-components, which the relation orders totally
    (elements of distinct co-components are comparable, and transitivity
    orders whole co-components).  A part of two or more elements that
    neither splits becomes a ``Block`` of its induced sub-poset, and P
    itself when P is indecomposable.  One nested deeper than any parsed
    expression, MAX_DEPTH, raises LimitExceededError, which bounds every
    structural walk over the result.
    """
    comparable = P.rel | P.rel.T
    expr, leaves = _split(P, comparable, list(range(P.n)), 0)
    return expr, tuple(leaves)


def _split(P: Poset, comparable: np.ndarray, elems: list[int],
           depth: int) -> tuple[SPExpr, list[int]]:
    """The expression and leaf order of the sub-poset of P on elems, which
    sits depth levels down the decomposition."""
    sub = comparable[np.ix_(elems, elems)]
    comps = _components(sub)
    if len(comps) > 1:
        compose, parts = parallel, [[elems[t] for t in comp] for comp in sorted(comps, key=min)]
    else:
        co = _components(~sub & ~np.eye(len(elems), dtype=bool))
        if len(co) == 1:
            if len(elems) == 1:
                return Singleton(), elems
            return Block(P if len(elems) == P.n else Poset(P.rel[np.ix_(elems, elems)])), elems
        compose, parts = series, [[elems[t] for t in comp] for comp in co]
        parts.sort(key=cmp_to_key(lambda a, b: -1 if P.rel[a[0], b[0]] else 1))
    if depth >= MAX_DEPTH:
        raise LimitExceededError(
            f"series-parallel decomposition nested deeper than {MAX_DEPTH} levels")
    children, leaves = [], []
    for part in parts:
        child, part_leaves = _split(P, comparable, part, depth + 1)
        children.append(child)
        leaves.extend(part_leaves)
    return compose(*children), leaves


def recognize_sp(P: Poset) -> SPExpr | None:
    """Series-parallel expression realizing P up to renumbering, or None
    when its decomposition has a ``Block``."""
    expr = sp_decomposition(P)[0]
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Block):
            return None
        stack.extend(getattr(node, "children", ()))
    return expr
