"""Exception types shared across the package, and the one check that raises them."""


class DomainError(Exception):
    """Base class for mathematical-contract violations (exit code 1 in the CLI)."""


class InvalidValue(DomainError, ValueError):
    """A value failed its type's check and no more specific error applies."""


class MajorizationFailed(DomainError):
    """A construction required a majorized pair but the precondition fails.

    Carries the verdict so callers can report the violated prefix.
    """

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class NotDoublyStochastic(DomainError):
    pass


class MatchingFailed(DomainError):
    """The residual support graph admits no perfect matching above tolerance."""


class NotOrthogonal(DomainError):
    pass


class NotHermitian(DomainError):
    pass


class NotUnitary(DomainError):
    pass


class NotTracePreserving(DomainError):
    pass


class DimensionMismatch(DomainError):
    pass


class SchemaError(Exception):
    """Malformed or invalid serialized data (exit code 2 in the CLI).

    `field` names the offending JSON field when known; one that is not printable, such as a
    key holding a newline, is escaped as `repr` escapes it, so the message is one line.
    """

    def __init__(self, message, field=None):
        field = field if field is None or field.isprintable() else repr(field)[1:-1]
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


def require(defect, tol, exc, msg, *args):
    """Raise exc(msg.format(*args)) unless defect <= tol, so a NaN defect fails; the
    message is formatted only on failure, and a passing check costs one comparison."""
    if not defect <= tol:
        raise exc(msg.format(*args))
