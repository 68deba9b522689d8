"""Exception types shared across the package."""


class CpMeanError(Exception):
    """Base class for all package errors."""


class InvalidInput(CpMeanError):
    """Input data violates a structural precondition (non-finite, not PSD, ...)."""


class ShapeError(CpMeanError):
    """Dimension mismatch between operands."""


class DomainError(CpMeanError):
    """Parameter outside its admissible domain."""


class NonConvergence(CpMeanError):
    """An iterative limit failed its convergence criterion; estimate is its last error."""

    def __init__(self, message: str, estimate: float = float("inf")):
        super().__init__(message)
        self.estimate = estimate


class NotCompletelyPositive(CpMeanError):
    """A candidate Choi matrix fails the positivity test."""


class ParseError(CpMeanError):
    """A serialized channel document is malformed."""


class UnknownExample(CpMeanError):
    """Requested registry entry does not exist."""
