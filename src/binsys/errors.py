"""Exception hierarchy shared across the package.

Two broad families matter to callers: problems with the *data* (a table
that is not a groupoid, a file that does not parse) and problems with the
*request* (an operation whose preconditions are not met).  The CLI maps
the first family to exit code 1, the second to exit code 2, and anything
signalling a broken internal invariant to exit code 3.
"""


class BinsysError(Exception):
    """Base class for all errors raised by this package."""


# --- data/validation errors (CLI exit code 1) ---

class ValidationError(BinsysError):
    """A table, label set, or file failed structural validation."""


class BadShape(ValidationError):
    """Table is not square, is empty, or rows have uneven length."""


class ClosureViolation(ValidationError):
    """A cell value falls outside 0..n-1."""


class BadLabels(ValidationError):
    """Label list has wrong length, duplicates, or unusable entries."""


class BadZero(ValidationError):
    """Distinguished element is not one of the groupoid's elements."""


class ParseError(ValidationError):
    """A groupoid file or DOT file could not be parsed."""


# --- precondition errors (CLI exit code 2) ---

class PreconditionError(BinsysError):
    """The inputs are well-formed but the operation does not apply."""


# Exhaustive sweeps enumerate n**(n*n) tables; above this order they raise
# OrderTooLarge.
EXHAUSTIVE_ORDER_LIMIT = 3


class OrderTooLarge(PreconditionError):
    """Exhaustive work was requested above EXHAUSTIVE_ORDER_LIMIT."""


class MissingZero(PreconditionError):
    """Operation needs a distinguished element but none is set."""


class OrderMismatch(PreconditionError):
    """Binary operation applied to groupoids of different orders."""


class NotOP(PreconditionError):
    """Operation requires every product to land on an operand."""


# --- internal breaches (CLI exit code 3) ---

class InternalError(BinsysError):
    """A defensive cross-check failed; indicates a bug, not bad input."""
