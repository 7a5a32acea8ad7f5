"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: UsageError -> 1, NumericalFailureError -> 2,
SingularSystemError -> 3.
"""


class AdvectBenchError(Exception):
    """Base class for all package errors."""


class UsageError(AdvectBenchError, ValueError):
    """Caller supplied inconsistent arguments (bad shapes, unknown names, ...)."""


class InvalidSchemeError(UsageError):
    """Stencil coefficients cannot advance in time (alpha, zeta, theta all zero)."""


class SingularSystemError(AdvectBenchError, ArithmeticError):
    """A linear system is singular (or numerically rank deficient) for the
    requested direct solve."""


class NumericalFailureError(AdvectBenchError, ArithmeticError):
    """An iterative kernel failed to converge."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations
