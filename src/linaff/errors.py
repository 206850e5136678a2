"""Exception types shared across the package."""


class LinaffError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(LinaffError):
    """Operands or arguments belong to different rings."""


class NotEnumerableError(LinaffError):
    """Element enumeration requested for an infinite ring."""


class UnsupportedRingError(LinaffError):
    """Operation is undefined for this kind of ring."""


class ArityError(LinaffError):
    """Point, direction or polynomial arity does not match."""


class MissingPointError(LinaffError):
    """A table oracle has no value for the requested point."""


class PreconditionError(LinaffError):
    """A documented precondition of an operation was violated."""


class InconsistencyError(LinaffError):
    """Internal cross-check failed; indicates a bug, not bad input."""


class DomainTooLargeError(LinaffError):
    """A line scan would read more points than `vonstaudt.MAX_LINE_POINTS`."""


class ParseError(LinaffError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
