"""Exception types shared across the package."""


class DipolinkError(Exception):
    """Base class for all package-specific errors."""


class InvalidGeometryError(DipolinkError):
    """Raised for malformed geometries (non-increasing positions, too few sites)."""


class DomainError(DipolinkError):
    """Raised when an argument lies outside its documented domain."""


class NumericInputError(DipolinkError):
    """Raised when a numeric input contains NaN or infinity."""


class ConvergenceError(DipolinkError):
    """Raised when the eigensolver fails to converge."""


class ShapeError(DipolinkError):
    """Raised on dimension mismatches between states and operators."""


class ExpansionInvalidError(DipolinkError):
    """Raised when the first-order splitting expansion yields a non-positive gap."""


class InfeasibleConstraintError(DipolinkError):
    """Raised when no placement satisfying the fidelity constraint was found."""
