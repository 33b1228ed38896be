"""Exception types shared across the package."""


class ConvexSphereError(Exception):
    """Base class for all package errors."""


class InputError(ConvexSphereError):
    """Malformed or inconsistent user input (files, configs, parameters)."""


class ConfigError(InputError):
    """Bad experiment configuration."""


class GridMismatch(ConvexSphereError):
    """Two objects were built against incompatible sphere grids."""


class ConstantPolynomial(ConvexSphereError):
    """A projected or supplied polynomial is constant where a
    non-constant one is required."""


class OriginNotInterior(ConvexSphereError):
    """Radial evaluation requested for a body whose sampled support does
    not keep the origin strictly inside."""


class NonpositiveRadius(ConvexSphereError):
    """A radial sample is zero or negative where positivity is required."""


class NotARotation(ConvexSphereError):
    """Matrix expected in SO(n) failed the orthogonality/determinant check."""


class ZeroBivector(ConvexSphereError):
    """Zero bivector where a plane is required."""


class NotDecomposable(ConvexSphereError):
    """Bivector is not a wedge of two vectors."""


class Degenerate(ConvexSphereError):
    """Sign-change counting is undefined (function identically equal to
    the reference level at grid scale)."""


class BudgetExceeded(ConvexSphereError):
    """Monomial budget overflow in GF(2) expansion; carries the partial
    product in `details`."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}
