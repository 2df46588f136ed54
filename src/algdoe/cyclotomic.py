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
from math import gcd, lcm
from typing import Union

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
        """Multiplicative inverse: the c with 1 = c * self, from an Echelon."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        # the nonzero self spans Q(w_s), so inserting one after it returns c
        ech = Echelon()
        ech.insert((self,), 0)
        return ech.insert((CyclotomicNumber.from_rational(1, self.order),), 1)[0]

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


def _cleared(values) -> tuple[list[int], int]:
    """The rationals ``values`` times the lcm of their denominators, as ints,
    and that lcm."""
    scale = lcm(*(a.denominator for a in values))
    return [a.numerator * (scale // a.denominator) for a in values], scale


class Echelon:
    """Incremental exact row echelon form over Q or Q(w_s).

    Every stored row is zero at the pivots of the rows stored before it and
    remembers which combination of the independent inserted vectors it is.

    Elimination is fraction-free.  Each vector is cleared to integers by the
    lcm of its denominators, and every stored row is an integer vector
    together with its integer combination of the cleared vectors.  A step is
    a cross-multiplication, a*vec - b*row with a/b the pivot ratio in lowest
    terms.  The vector being reduced carries its combination along and,
    whenever a step scales it, sheds the factor that its entries share with
    that scale.  Each new row is divided by the gcd of its entries and its
    combination.  A dependent combination becomes Fractions once, at the end.

    A vector in Q(w_s)^n goes in as the rational coordinates (n(s-1) of
    them) of its multiples by 1, w, ..., w^(s-2).  Those multiples of the
    kept vectors span their Q(w_s)-span over Q, so a vector is dependent
    exactly when its own coordinates are, and the Q-coefficients of the
    multiples of a kept vector are the coordinates of its coefficient in
    Q(w_s), so no step divides in the field.  Each multiple by w is the
    previous one with every entry's coordinates moved up one power and folded
    by ``_fold``, the fold that products and :func:`omega` use.  One echelon
    holds one field.
    """

    def __init__(self):
        # (pivot, row, (label, lcm)) per independent rational vector: the
        # integer vector followed by its combination of the cleared vectors,
        # one entry per row up to its own.  A Q(w_s) vector's multiple by w^j
        # is kept under the label (label, j).
        self._rows: list[tuple[int, list[int], tuple]] = []
        self._order = None  # s when the rows are Q(w_s) vectors

    def insert(self, vec, label):
        """Add ``vec`` under ``label`` and return None when it is independent
        of the vectors kept so far; otherwise keep nothing and return the
        ``{label: coeff}`` combination of kept vectors that equals ``vec``."""
        vec = list(vec)
        s = next((a.order for a in vec if isinstance(a, CyclotomicNumber)), None)
        if self._rows and s != self._order:
            raise CoefficientFieldError("cannot mix coefficient fields in one echelon")
        self._order = s
        if s is None:
            return self._eliminate(vec, label)
        entries = [cyclotomic_field(s).coerce(a).coords for a in vec]
        combo = self._eliminate([c for e in entries for c in e], (label, 0))
        if combo is not None:
            parts: dict = {}
            for (lab, j), c in combo.items():
                parts.setdefault(lab, [Fraction(0)] * (s - 1))[j] = c
            return {lab: CyclotomicNumber(s, tuple(c)) for lab, c in parts.items()}
        for j in range(1, s - 1):
            # times w, entry by entry: each coordinate moves up one power
            entries = [_fold((0, *e)) for e in entries]
            self._eliminate([c for e in entries for c in e], (label, j))
        return None

    def _eliminate(self, vec, label):
        n = len(vec)
        vec, scale = _cleared(vec)
        # vec is [v | c] with v = total * (the cleared input) + sum(c[i] * w_i),
        # w_i the cleared vector of row i; a stored row [r | c] has r = sum(c[i] * w_i)
        vec += [0] * len(self._rows)
        total = 1
        for k, row, _ in self._rows:
            b = vec[k]
            if b:
                a = row[k]  # positive
                g = gcd(a, b)
                a //= g
                b //= g
                # row i combines the vectors 0..i only, and vec's entries past
                # len(row) are still zero, so they need no scaling
                if a == 1:
                    vec[: len(row)] = [x - b * y for x, y in zip(vec, row)]
                else:
                    vec[: len(row)] = [a * x - b * y for x, y in zip(vec, row)]
                    total *= a
                    # divide out what total shares with every entry; the
                    # gcd starts from the small total, which keeps it cheap
                    g = gcd(total, *vec)
                    if g > 1:
                        vec = [x // g for x in vec]
                        total //= g
        k = next((i for i in range(n) if vec[i]), None)
        if k is None:
            return {
                lab: Fraction(-c * lab_scale, total * scale)
                for c, (_, _, (lab, lab_scale)) in zip(vec[n:], self._rows)
                if c
            }
        vec.append(total)
        g = gcd(*vec)
        if vec[k] < 0:
            g = -g
        self._rows.append((k, [a // g for a in vec], (label, scale)))
        return None


QQ = RationalField()


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


def embed(value: Rational, field) -> object:
    """Explicit embedding of a rational value into the given field."""
    return field.coerce(Fraction(value))
