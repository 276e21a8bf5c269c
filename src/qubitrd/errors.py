"""Exception types shared across the package."""


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
