"""Exact coefficient fields: the rationals and prime-order cyclotomic extensions.

Rational arithmetic is delegated to :class:`fractions.Fraction`, which already
guarantees lowest terms and a positive denominator.  A cyclotomic number of
prime order s is stored on the power basis 1, w, ..., w^(s-2) where
w = exp(2*pi*i/s); the relation w^(s-1) = -(1 + w + ... + w^(s-2)) makes the
representation canonical, so equality and zero tests are coordinate-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain
from typing import Union

from . import linalg
from .errors import CoefficientFieldError, InputError
from .orders import _format_terms

Rational = Union[int, Fraction]


# Miller-Rabin on these bases is exact below _PRIME_BOUND (Sorenson and
# Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


@cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; an InputError at or above _PRIME_BOUND.
    Memoized, since every cyclotomic number checks its order when made."""
    if n < 2:
        return False
    if n >= _PRIME_BOUND:
        raise InputError(f"primality of {n} is only decided below {_PRIME_BOUND}")
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_order(s: int) -> None:
    if not is_prime(s):
        raise InputError(f"cyclotomic order must be a prime >= 2, got {s}")


@dataclass(frozen=True)
class CyclotomicNumber:
    """Element of Q(w_s) for prime s, on the basis 1, w, ..., w^(s-2)."""

    order: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        _check_order(self.order)
        if len(self.coords) != self.order - 1:
            raise CoefficientFieldError(
                f"expected {self.order - 1} coordinates, got {len(self.coords)}"
            )

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def from_rational(q: Rational, order: int) -> "CyclotomicNumber":
        return CyclotomicNumber(order, (Fraction(q),) + (Fraction(0),) * (order - 2))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise CoefficientFieldError(f"{self} is not rational")
        return self.coords[0]

    def _coerce(self, other):
        """``other`` in this number's field, or None when it is no number."""
        if not isinstance(other, (int, Fraction, CyclotomicNumber)):
            return None
        return cyclotomic_field(self.order).coerce(other)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(
            self.order, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(
            self.order, tuple(a - b for a, b in zip(self.coords, o.coords))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.order
        powers = [Fraction(0)] * s
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        powers[(i + j) % s] += a * b
        return CyclotomicNumber(s, _fold(powers))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse: the c = sum c_j w^j with 1 = sum c_j *
        (self * w^j), from a rational :class:`algdoe.linalg.Echelon`."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        # the s-1 multiples self * w^j are a Q-basis of Q(w_s), so the relation
        # -1 + sum c_j * (self * w^j) = 0 of the coordinates of -1 gives the c_j
        s = self.order
        ech = linalg.Echelon()
        coords = self.coords
        for j in range(s - 1):
            ech.insert(coords, j)
            coords = _fold((0, *coords))  # times w
        c = ech.insert((-1,) + (0,) * (s - 2), s - 1)
        return CyclotomicNumber(s, tuple(c.get(j, Fraction(0)) for j in range(s - 1)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.from_rational(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons / protocol ------------------------------------------

    def __bool__(self):
        return any(c != 0 for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return self.coords == other.coords
            return (
                self.is_rational()
                and other.is_rational()
                and self.coords[0] == other.coords[0]
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        # rational-valued elements hash like their Fraction value
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.order, self.coords))

    def __str__(self):
        if not self:
            return "0"
        # ascending powers of w, in the text grammar of polynomials
        return _format_terms((((k,), str(c)) for k, c in enumerate(self.coords) if c), ("w",))

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, {self})"


def _fold(powers) -> tuple:
    """The coordinates of sum(powers[k] * w^k), k < s, on 1, w, ..., w^(s-2):
    w^(s-1) = -(1 + w + ... + w^(s-2)) takes the top coefficient off the others."""
    top = powers[-1]
    if top:
        return tuple(c - top for c in powers[:-1])
    return tuple(powers[:-1])


def omega(order: int, power: int = 1) -> CyclotomicNumber:
    """The root of unity w_order^power as an exact cyclotomic number."""
    _check_order(order)
    powers = [Fraction(0)] * order
    powers[power % order] = Fraction(1)
    return CyclotomicNumber(order, _fold(powers))


class RationalField:
    """The field Q with Fraction elements."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, bool):
            raise CoefficientFieldError("booleans are not field elements")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, CyclotomicNumber):
            if value.is_rational():
                return value.rational_part()
            raise CoefficientFieldError(
                f"cannot coerce {value} into QQ: it has no rational value"
            )
        raise CoefficientFieldError(f"cannot coerce {value!r} into QQ")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class CyclotomicField:
    """The field Q(w_s) for prime s."""

    order: int

    def __post_init__(self):
        _check_order(self.order)

    @property
    def name(self):
        return f"QQ(w{self.order})"

    @property
    def zero(self):
        return CyclotomicNumber.from_rational(0, self.order)

    @property
    def one(self):
        return CyclotomicNumber.from_rational(1, self.order)

    def coerce(self, value):
        if isinstance(value, CyclotomicNumber):
            if value.order == self.order:
                return value
            if value.is_rational():
                return CyclotomicNumber.from_rational(value.coords[0], self.order)
            raise CoefficientFieldError(
                f"cannot mix cyclotomic orders {self.order} and {value.order}"
            )
        if isinstance(value, bool):
            raise CoefficientFieldError("booleans are not field elements")
        if isinstance(value, (int, Fraction)):
            return CyclotomicNumber.from_rational(value, self.order)
        raise CoefficientFieldError(f"cannot coerce {value!r} into {self.name}")

    def __repr__(self):
        return self.name


class Echelon:
    """Incremental exact row echelon form over Q(w_s) of vectors of powers
    of w, each entry given as its exponent e in range(s).

    A vector enters a rational :class:`algdoe.linalg.Echelon` as the integer
    coordinates (n(s-1) of them) of its multiples by 1, w, ..., w^(s-2), the
    multiple by w^j under the label (label, j): entry by entry, those of
    w^(e + j), folded as :func:`omega` folds.  The multiples of the kept
    vectors span their Q(w_s)-span over Q, so a vector is dependent exactly
    when its own coordinates are, and the Q-coefficients of the multiples of
    a kept vector are the coordinates of its coefficient in Q(w_s), so no
    step divides in the field.
    """

    def __init__(self, order: int):
        _check_order(order)
        self.order = s = order
        # the coordinates of w^k for every k < 2s - 2, so that e + j needs no mod
        self._coords = [_fold([int(i == k % s) for i in range(s)]) for k in range(2 * s - 2)]
        self._rational = linalg.Echelon()

    def insert(self, exponents, label):
        """Add the vector of the w^e, e in ``exponents``, under ``label`` and
        return None when it is independent of the vectors kept so far;
        otherwise keep nothing and return the relation ``{label: a}``, a in
        Q(w_s), with vec + sum(a * kept) = 0."""
        s = self.order
        for j in range(s - 1):
            coords = self._coords[j : j + s]  # of w^(e + j), by e
            row = list(chain.from_iterable(map(coords.__getitem__, exponents)))
            # only j = 0 can be dependent: w^j times an independent vector is not
            relation = self._rational.insert(row, (label, j))
            if relation is not None:
                parts: dict = {}
                for (lab, i), a in relation.items():
                    parts.setdefault(lab, [Fraction(0)] * (s - 1))[i] = a
                return {lab: CyclotomicNumber(s, tuple(a)) for lab, a in parts.items()}
        return None


QQ = RationalField()


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


def embed(value: Rational, field) -> object:
    """Explicit embedding of a rational value into the given field."""
    return field.coerce(Fraction(value))
