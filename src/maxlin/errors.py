"""Exception types shared across the package, input quoting, and the size guards."""

import os


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


class UnmappedVariableError(MaxlinError):
    """Substitution hit a variable the map does not cover."""


class UnboundVariableError(MaxlinError):
    """Evaluation hit a variable with no assigned value."""


class TooLargeError(MaxlinError):
    """Exhaustive enumeration would exceed the configured guard."""


QUOTE_CAP = 80


def quote(text: str) -> str:
    """`text` as repr writes it; past QUOTE_CAP characters, the repr of its
    first QUOTE_CAP and its length, so that an error line stays short."""
    if len(text) <= QUOTE_CAP:
        return repr(text)
    return f"{text[:QUOTE_CAP]!r}... ({len(text)} characters)"


def shorten(text: str) -> str:
    """`text` up to QUOTE_CAP characters, else `quote(text)`: for unquoted text."""
    return text if len(text) <= QUOTE_CAP else quote(text)


# Size guards: environment variable -> default limit.
_DEFAULT_LIMITS = {
    "MAXLIN_ORACLE_LIMIT": 10**7,
    "MAXLIN_HILBERT_LIMIT": 10**7,
}


def check_size(variable: str, needed: int, what: str) -> None:
    """Check `needed` against the guard that the environment variable
    `variable` sets, or its default when the variable is unset or empty.
    `what` says what is needed, as in "... needs N things".

    Raises:
        MaxlinError: the variable is set to something other than an integer.
        TooLargeError: `needed` exceeds the guard; the message names the
            variable.
    """
    raw = os.environ.get(variable)
    limit = _DEFAULT_LIMITS[variable]
    if raw:
        try:
            limit = int(raw)
        except ValueError:
            raise MaxlinError(f"{variable} must be an integer, got {raw!r}") from None
    if needed > limit:
        raise TooLargeError(f"{what} but the guard is {limit}; {variable} sets the guard")
