"""Exception types shared across the package, one per CLI exit code.

``InvalidInputError`` (a bad argument or scenario) exits 2,
``ConvergenceError`` (a fixed point that did not converge) exits 3, and
``NumericalError`` (any other untrustworthy numerical result) exits 4.
"""


class InvalidInputError(ValueError):
    """An argument or scenario violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


class ConvergenceError(NumericalError):
    """A fixed-point iteration did not reach its tolerance.

    Carries the last relative residual so callers can decide whether the
    result is salvageable.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last relative residual {residual:.3e})")
        self.residual = residual
