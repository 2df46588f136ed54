"""Exception types, and the one rule for integer values, shared across the package.

A size, a coded level or a count is an integer when it equals one (2.0, True,
Fraction(2), Decimal(2), 2+0j, a numpy int): ``whole`` finds that int, which
the package stores in place of the value.  ``int_fields`` reads a record's
size fields, ``int_arg`` a size argument and ``int_counts`` the counts of the
conditional tests; each refusal names what it refused.  ``int_bits`` reads a
square-free exponent tuple, which each caller refuses with its own message.
``Design`` reads its distinct levels through ``whole`` itself, once each.
"""


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


def whole(value) -> int | None:
    """The int that ``value`` (2.0, True, Fraction(2), ...) equals, else None."""
    try:
        w = int(value.real)  # the one int that can equal value
    except (AttributeError, TypeError, ValueError, OverflowError):
        return None
    return w if w == value else None


def int_bits(values) -> tuple[int, ...] | None:
    """The ints 0/1 that the entries of ``values`` (1.0, True, ...) equal, else None."""
    bits = tuple(values)
    if not {int}.issuperset(map(type, bits)):  # an int is read as it is
        bits = tuple(map(whole, bits))
    return bits if {0, 1}.issuperset(bits) else None


def int_arg(name: str, value) -> int:
    """The int that the size ``name`` equals; InputError naming it otherwise."""
    if (w := whole(value)) is None:
        raise InputError(f"{name} must be an integer, found {value!r}")
    return w


def int_fields(record, *names) -> None:
    """Store each field ``names`` of the frozen ``record`` as the int it equals, or refuse it."""
    for name in names:
        value = int_arg(f"{type(record).__name__}.{name}", getattr(record, name))
        object.__setattr__(record, name, value)


def int_counts(n: int, y) -> tuple[int, ...]:
    """The counts y as ints; InputError unless they are n nonnegative integers."""
    y = tuple(y)
    if len(y) != n:
        raise InputError(f"expected {n} counts, found {len(y)}")
    ints = tuple(map(whole, y))
    for v, w in zip(y, ints):
        if w is None:
            raise InputError(f"counts must be integers, found {v!r}")
        if w < 0:
            raise InputError(f"counts must be nonnegative, found {v!r}")
    return ints
