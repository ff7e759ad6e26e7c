"""Exception types shared across the package."""
from __future__ import annotations


class CorrmaxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CorrmaxError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DimensionMismatch(CorrmaxError, ValueError):
    """Vector or matrix arguments have incompatible shapes."""


class EmptyInput(CorrmaxError, ValueError):
    """A nonempty sequence was required."""


class GraphError(CorrmaxError):
    """Base class for timing-graph construction and analysis errors."""


class ParseError(GraphError, ValueError):
    """A graph file, its JSON document or an ``--eps-file`` matrix could
    not be parsed."""


class CycleError(GraphError, ValueError):
    """The edge set contains a directed cycle."""


class DuplicateEdgeError(GraphError, ValueError):
    """The same (from, to) pair appears more than once."""


class PathExplosionError(GraphError, RuntimeError):
    """Path enumeration exceeded the configured cap.

    Attributes:
        cap: the configured maximum number of paths.
        count: the number of paths reached when enumeration was aborted.
    """

    def __init__(self, cap: int, count: int):
        self.cap = cap
        self.count = count
        super().__init__(
            f"path enumeration exceeded cap={cap} (reached {count} paths)"
        )
