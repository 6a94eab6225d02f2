"""Exception types shared across the package, each with its CLI exit code."""


class InvalidInputError(ValueError):
    """An argument or scenario violates a documented precondition."""
    exit_code = 2


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""
    exit_code = 4


class ConvergenceError(NumericalError):
    """A fixed-point iteration did not reach its tolerance."""
    exit_code = 3
