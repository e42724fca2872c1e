"""Exception types shared across the package."""


class MaxlinError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MaxlinError):
    """Malformed input text (DAG files, theta files, polynomial grammar)."""


class DagSyntaxError(ParseError):
    """A line of a DAG file could not be parsed."""


class CyclicGraphError(MaxlinError):
    """The edge set admits no topological order."""


class BadVertexError(MaxlinError):
    """Vertex label outside 1..n."""


class BadStateError(MaxlinError):
    """State vector entry outside 0..k-1 or wrong length."""


class NotAStateError(MaxlinError):
    """Vector is not order-preserving for the given poset."""


class NotAnIdealError(MaxlinError):
    """Indicator vector is not downward closed."""


class SupportMismatchError(MaxlinError):
    """Coordinate map mentions states outside the lattice."""


class UnmappedVariableError(MaxlinError):
    """Substitution hit a variable the map does not cover."""


class UnboundVariableError(MaxlinError):
    """Evaluation hit a variable with no assigned value."""


class TooLargeError(MaxlinError):
    """Exhaustive enumeration would exceed the configured guard."""
