"""Exception types shared across the package, and its integer check and
real-number checks (``check_integer``, ``real_array``, ``check_real``)."""

import math
import numbers

import numpy as np


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


def real_array(value, message: str) -> np.ndarray:
    """``value`` as a float array if it is real: if ``np.asarray(value)`` has
    dtype kind i, u or f. Anything else (None, a bool, a complex number even
    with zero imaginary part, a string, bytes, an object such as
    ``Fraction``) raises ``DomainError(message.format(repr(value)))``."""
    x = np.asarray(value)
    if x.dtype.kind not in "iuf":
        raise DomainError(message.format(repr(value)))
    return x.astype(float, copy=False)


def check_real(value, low: float, high: float, message: str) -> float:
    """``value`` as a Python float in [low, high], converted before it is
    compared; a value that is not real, not 0-d, NaN or outside raises as
    ``real_array`` does. Give an open end as ``math.nextafter`` of its
    bound. A Python float skips ``np.asarray``."""
    x = value
    if type(x) is not float:
        x = real_array(x, message)
        x = float(x) if x.ndim == 0 else math.nan  # NaN fails the range
    if not low <= x <= high:
        raise DomainError(message.format(repr(value)))
    return x
