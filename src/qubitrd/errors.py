"""Exception types shared across the package, and its one integer check."""

import numbers


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(ToolkitError, ValueError):
    """Operands have incompatible dimensions."""


class ShapeError(ToolkitError, ValueError):
    """Array does not have the required shape (square, power-of-two, ...)."""


class ContractViolationError(ToolkitError, ValueError):
    """Input breaks a documented precondition (hermiticity, positivity, trace)."""


class AnnihilationError(ToolkitError, ArithmeticError):
    """Operation output has near-zero trace, so normalization is undefined."""


class DomainError(ToolkitError, ValueError):
    """Scalar argument lies outside its permitted range."""


class InternalNumericError(ToolkitError, RuntimeError):
    """A computed quantity failed an internal consistency check."""


def check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ``DomainError`` unless ``value`` is a Python or NumPy integer,
    not a bool, in [low, high] (no upper end when ``high`` is None)."""
    inside = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (inside and low <= value and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
