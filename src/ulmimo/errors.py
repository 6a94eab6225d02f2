"""Exception types shared across the package, each with its CLI exit code,
and the checks every module refuses a bad count or real number with."""

import numbers
import reprlib


class InvalidInputError(ValueError):
    """An argument or scenario violates a documented precondition."""
    exit_code = 2


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""
    exit_code = 4


class ConvergenceError(NumericalError):
    """A fixed-point iteration did not reach its tolerance."""
    exit_code = 3


def check_count(name: str, value) -> None:
    """Refuse a count that is not an integer of at least 1; a bool, a float
    or None is refused, not coerced, and a numpy integer passes."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidInputError(
            f"{name} must be an integer, got {reprlib.repr(value)}")
    if value < 1:
        raise InvalidInputError(
            f"{name} must be at least 1, got {reprlib.repr(value)}")


def check_real(name: str, value) -> float:
    """``value`` as a float, refusing what is not a real number: a bool, a
    string, None or an int past the float range is refused, not coerced,
    and a numpy float or integer passes."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidInputError(f"{name} must be a real number within the float "
                            f"range, got {reprlib.repr(value)}")
