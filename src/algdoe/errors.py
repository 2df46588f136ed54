"""Exception types shared across the package."""


class AlgdoeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AlgdoeError):
    """Objects built over different indeterminate universes were mixed."""


class CoefficientFieldError(AlgdoeError):
    """Coefficients from different fields were mixed without an explicit embed."""


class ZeroPolynomialError(AlgdoeError):
    """The leading term of the zero polynomial was requested."""


class InputError(AlgdoeError):
    """Invalid user-supplied data. CLI exit code 2."""


class InvalidIndicatorError(InputError):
    """A polynomial claimed to be an indicator is not 0/1-valued."""


class RankError(InputError):
    """Defining words are dependent over GF(2)."""


class EstimabilityError(InputError):
    """Requested model terms are confounded; the matrix is rank deficient."""

    def __init__(self, message, aliased=None):
        super().__init__(message)
        self.aliased = aliased


class BudgetError(AlgdoeError):
    """A computation exceeded its configured resource caps. CLI exit code 3."""


class ScaleError(AlgdoeError):
    """The problem is too large for the desk-scale exact methods. CLI exit code 3."""


class NonZeroDimensionalError(AlgdoeError):
    """The quotient ring is not finite-dimensional; no finite monomial basis exists."""


class GlmConvergenceError(AlgdoeError):
    """Poisson fit failed to converge (boundary or separated sufficient statistic)."""
