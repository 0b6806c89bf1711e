"""Exception types shared across the package.

The CLI maps these onto exit codes: precondition violations exit with 2,
input parsing problems with 3, exceeded search budgets with 4.  Any other
exception, such as numpy's LinAlgError, exits with 5.  Every failed run
still writes a report with an error object.
"""

__all__ = [
    "FramexError",
    "DimensionMismatchError",
    "PreconditionError",
    "NotAFrameError",
    "NoAdmissibleExponentError",
    "GridTooCoarseError",
    "BudgetExceededError",
    "InputFormatError",
]


class FramexError(Exception):
    """Base class for all errors raised by framex."""


class PreconditionError(FramexError):
    """An operation's mathematical precondition does not hold for the input."""


class DimensionMismatchError(PreconditionError):
    """Operands live in different ambient dimensions."""


class NotAFrameError(PreconditionError):
    """The lower frame bound vanishes where a frame is required."""


class NoAdmissibleExponentError(PreconditionError):
    """No integer scale exponent satisfies the defining double inequality."""


class GridTooCoarseError(PreconditionError):
    """The cyclic grid cannot honor the requested perturbation conditions."""


class BudgetExceededError(FramexError):
    """A search or replication budget was exceeded; parameters must shrink."""


class InputFormatError(FramexError):
    """An input document does not match the expected schema."""
