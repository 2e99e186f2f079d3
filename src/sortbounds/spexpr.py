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
left fold.  An N(k) parses to a ``Block`` leaf holding ``n_poset(k)``.
``realize`` numbers elements 0..n-1 in left-to-right leaf order: a series
places every element of an earlier block below every element of a later
block, a parallel adds no cross relations.  ``sp_decomposition`` inverts it
up to renumbering for any ``Poset`` (n >= 1), splitting on the poset's cached
``pred_masks`` and ``succ_masks``.  ``nodes`` walks an expression without
recursion, and the folds over an expression sum along it.  Every node carries
its ``size``, the element count of its realized poset: 1 for a singleton, n
for a Block (4k for N(k)), and for a series or parallel node the sum of its
children's, set when the node is built; every builder makes children first.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .errors import ParseError
from .poset import Poset, check_size


@dataclass(frozen=True)
class Singleton:
    size = 1

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class _Composition:
    """A series or parallel node, with the sum of its children's sizes."""
    children: tuple["SPExpr", ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError(f"{type(self).__name__.lower()} node needs at least two children")
        object.__setattr__(self, "size", sum(c.size for c in self.children))


@dataclass(frozen=True)
class Series(_Composition):
    def __str__(self) -> str:
        return " * ".join(_paren(c, inside_series=True) for c in self.children)


@dataclass(frozen=True)
class Parallel(_Composition):
    def __str__(self) -> str:
        return " + ".join(str(c) for c in self.children)


@dataclass(frozen=True)
class Block:
    """A leaf holding a poset: a part of a decomposed poset whose comparability
    and incomparability graphs are both connected, or a parsed N(k) (printed
    as its ``text``, which equality ignores)."""

    poset: Poset
    text: str = field(default="", compare=False, repr=False)

    def __str__(self) -> str:
        return self.text or repr(self)

    @property
    def size(self) -> int:
        return self.poset.n


SPExpr = Union[Singleton, Series, Parallel, Block]


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


def nodes(e: SPExpr) -> Iterator[SPExpr]:
    """Every node of e, the root first, depth first without recursion."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(getattr(node, "children", ()))


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
# so a parsed tree is at most 2 * MAX_NESTING + 3 = 203 nodes deep, which
# keeps the parser and the printers inside the recursion limit of 1000.  A
# decomposition is shallower still: at most n - 1 <= 19 levels.
MAX_NESTING = 100
# Bound on the element count of a whole expression, counted before any leaf
# tuple is built, so a short text cannot allocate millions of leaves.  It
# sits far above the size cap `poset.MAX_N` = 20 of every `Poset`, which
# `realize` reports below it, and bounds the folds that run past 20.
MAX_SIZE = 10_000


class _Parser:
    def __init__(self, text: str):
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
                raise ParseError(f"more than {MAX_NESTING} levels of parentheses", pos)
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
                return Block(n_poset(k), f"N({k})")
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

def n_poset(k: int = 1) -> Poset:
    """The N(k) of the grammar above, its chains A, B, C, D on 0..4k-1 in that
    order; 4k > `poset.MAX_N` raises LimitExceededError before any of it."""
    if k < 1:
        raise ValueError(f"N block size must be >= 1, got {k}")
    check_size(4 * k)
    rel = np.triu(np.ones((4 * k, 4 * k), dtype=bool), 1)  # the chain A < B < C < D
    rel[: 2 * k, 2 * k :] = False  # but A and B lie below neither C nor D
    rel[2 * k : 3 * k, k : 2 * k] = True  # and C < B
    return Poset(rel)


def realize(e: SPExpr) -> Poset:
    """Build the poset of an expression on elements 0..n-1 in leaf order,
    placing each node at its offset by the sizes of its elder siblings;
    n > `poset.MAX_N` raises LimitExceededError before any of it."""
    check_size(e.size)
    rel = np.zeros((e.size, e.size), dtype=bool)
    stack = [(e, 0)]
    while stack:
        node, offset = stack.pop()
        if isinstance(node, Block):
            block = slice(offset, offset + node.size)
            rel[block, block] = node.poset.rel
        elif not isinstance(node, Singleton):
            start = offset
            for child in node.children:
                if isinstance(node, Series):  # every earlier child lies below this one
                    rel[offset:start, start:start + child.size] = True
                stack.append((child, start))
                start += child.size
    return Poset(rel)


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------

def _elements(mask: int) -> list[int]:
    """The elements of a bitmask in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def sp_decomposition(P: Poset) -> tuple[SPExpr, tuple[int, ...]]:
    """Decompose P into a series-parallel expression with ``Block`` leaves.

    Returns ``(expr, leaves)`` where ``leaves[t]`` is the element of P
    realized by the t-th element of ``expr``; so ``realize(expr)`` equals P
    after renaming element ``leaves[t]`` to ``t``.

    Recursive split of bitmask parts: a part splits in parallel over the
    flood-fill components of ``pred_masks[e] | succ_masks[e]``; a connected
    part, walked in predecessor-count order (a linear extension, ties by
    index), splits in series after every prefix whose running AND of
    ``succ_masks`` covers the rest of the part.  A part of two or more
    elements that neither splits becomes a ``Block`` of its induced
    sub-poset, and P itself when P is indecomposable.  Each level splits off
    at least one element, so the recursion is at most n - 1 <= 19 deep.
    """
    expr, leaves = _split(P, (1 << P.n) - 1)
    return expr, tuple(leaves)


def _split(P: Poset, part: int) -> tuple[SPExpr, list[int]]:
    """The expression and leaf order of P on the bitmask part."""
    elems = _elements(part)
    if len(elems) == 1:
        return Singleton(), elems
    preds, succs = P.pred_masks, P.succ_masks
    compose, pieces, rest = parallel, [], part
    while rest:
        piece = todo = rest & -rest
        while todo:
            e = todo.bit_length() - 1
            new = (preds[e] | succs[e]) & rest & ~piece
            piece, todo = piece | new, (todo ^ 1 << e) | new
        pieces.append(piece)
        rest ^= piece
    if len(pieces) == 1:
        compose, pieces, rest = series, [], part
        last = below = part
        for e in sorted(elems, key=lambda x: preds[x].bit_count()):
            rest ^= 1 << e
            below &= succs[e]
            if below == rest:  # below lies inside rest, so it covers rest
                pieces.append(last ^ rest)
                last = rest
        if len(pieces) == 1:
            return Block(P if len(elems) == P.n else Poset(P.rel[np.ix_(elems, elems)])), elems
    children, leaves = [], []
    for piece in pieces:
        child, piece_leaves = _split(P, piece)
        children.append(child)
        leaves.extend(piece_leaves)
    return compose(*children), leaves


def recognize_sp(P: Poset) -> SPExpr | None:
    """Series-parallel expression realizing P up to renumbering, or None
    when its decomposition has a ``Block``."""
    expr = sp_decomposition(P)[0]
    return None if any(isinstance(node, Block) for node in nodes(expr)) else expr
