"""Exception hierarchy shared by all sortbounds modules."""


class SortboundsError(Exception):
    """Base class for every error raised by this package."""


class CycleError(SortboundsError, ValueError):
    """The input relation contains a directed cycle (antisymmetry fails)."""


class SizeMismatchError(SortboundsError, ValueError):
    """Two posets that must share a ground set have different sizes."""


class LimitExceededError(SortboundsError, RuntimeError):
    """A fixed size cap (element count, extension count, ...) was exceeded."""


class ParseError(SortboundsError, ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NotConsistentError(SortboundsError, ValueError):
    """A point violates the order-polytope constraints beyond tolerance."""


class NotInChainPolytopeError(SortboundsError, ValueError):
    """A point violates the chain-polytope constraints beyond tolerance."""


class NotAnExtensionError(SortboundsError, ValueError):
    """A rank assignment is not a linear extension of the given poset."""


class NonConvergenceError(SortboundsError, RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class DomainError(SortboundsError, ValueError):
    """Arguments outside the mathematical domain of a function."""


class QuadratureFailureError(SortboundsError, RuntimeError):
    """Adaptive quadrature reported an error estimate above tolerance."""
