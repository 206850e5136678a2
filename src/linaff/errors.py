"""Exception types shared across the package.

Three kinds, each under `LinaffError`: a `ParseError` is malformed input
text, a `PreconditionError` is any other wrong input (an arity, a ring,
a point or a size that the operation refuses), and the CLI answers both
with exit 1; an `InconsistencyError` is a failed internal cross-check,
a bug, and the CLI answers it with exit 4.
"""


class LinaffError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(LinaffError):
    """A documented precondition of an operation was violated."""


class InconsistencyError(LinaffError):
    """Internal cross-check failed; indicates a bug, not bad input."""


class ParseError(LinaffError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
