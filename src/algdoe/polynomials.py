"""Exact multivariate polynomials over Q or a prime-order cyclotomic extension.

A polynomial is a sparse map from exponent tuples to nonzero coefficients,
attached to a :class:`PolyRing` that fixes the indeterminate names and the
coefficient field.  All arithmetic is exact; there is no floating point
anywhere in this module.  Division lives in :mod:`algdoe.groebner`, next to
the lead index that decides which leading term divides a monomial.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from itertools import chain

from .cyclotomic import QQ, CyclotomicField, CyclotomicNumber, omega
from .errors import (
    CoefficientFieldError,
    DimensionError,
    InputError,
    ZeroPolynomialError,
    whole,
)
from .orders import Monomial, TermOrder, _format_terms

# -- monomial helpers --------------------------------------------------------


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_quot(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _add_term(terms: dict, e: Monomial, c) -> None:
    """Add c * x^e to ``terms``, dropping the term if it cancels."""
    v = terms.get(e)
    v = c if v is None else v + c
    if v:
        terms[e] = v
    else:
        terms.pop(e, None)


class PolyRing:
    """Polynomial ring context: indeterminate names plus a coefficient field."""

    __slots__ = ("names", "field", "_index")

    def __init__(self, names, field=QQ):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate indeterminate names")
        if not names:
            raise InputError("a polynomial ring needs at least one indeterminate")
        self.names = names
        self.field = field
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.names, self.field))

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; {self.field!r})"

    # -- element constructors: all through poly ---------------------------

    def zero(self) -> "Polynomial":
        return self.poly({})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        return self.poly({(0,) * self.nvars: c})

    def var(self, name_or_index) -> "Polynomial":
        if isinstance(name_or_index, int):
            i = name_or_index
        else:
            try:
                i = self._index[name_or_index]
            except KeyError:
                raise InputError(f"unknown indeterminate {name_or_index!r}") from None
        e = [0] * self.nvars
        e[i] = 1  # as for a list: negative counts from the end, past it is an IndexError
        return self.poly({tuple(e): 1})

    def monomial(self, expts: Monomial, coeff=1) -> "Polynomial":
        return self.poly({tuple(expts): coeff})

    def poly(self, terms) -> "Polynomial":
        """Build a polynomial from an exponent-to-coefficient mapping: the one
        place that checks exponent vectors and coerces coefficients.  An
        exponent that equals an int, such as 1.0, is stored as that int."""
        terms = dict(terms)
        # the integer rule, read once per distinct entry (1.0 and 1 are one
        # key): a valid exponent maps to its int, and an invalid one is absent
        exponent = {x: w for x in set(chain.from_iterable(terms))
                    if (w := whole(x)) is not None and w >= 0}
        clean: dict = {}
        for e, c in terms.items():
            e = tuple(e)
            try:
                ints = tuple(map(exponent.__getitem__, e))
            except KeyError:
                ints = None
            if ints is None or len(ints) != self.nvars:
                raise DimensionError(f"bad exponent vector {e} for {self!r}")
            _add_term(clean, ints, self.field.coerce(c))
        return Polynomial(self, clean)

    # -- conversions ------------------------------------------------------

    def embed(self, f: "Polynomial") -> "Polynomial":
        """Embed a polynomial from a rational ring with the same names."""
        if f.ring.names != self.names:
            raise DimensionError("cannot embed between different universes")
        return self.poly(f.terms)

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial. Use :class:`PolyRing` to construct."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    # -- arithmetic -------------------------------------------------------

    def _compatible(self, other: "Polynomial"):
        if self.ring is other.ring:
            return
        if self.ring.names != other.ring.names:
            raise DimensionError("polynomials over different universes")
        if self.ring.field != other.ring.field:
            raise CoefficientFieldError(
                "polynomials over different coefficient fields; embed first"
            )

    def _as_poly(self, other):
        if isinstance(other, Polynomial):
            self._compatible(other)
            return other
        try:
            return self.ring.const(other)
        except CoefficientFieldError:
            return None

    def __add__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            _add_term(out, e, c)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})
        self._compatible(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_term(out, mono_mul(e1, e2), c1 * c2)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial powers are not defined")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mul_term(self, expts: Monomial, coeff) -> "Polynomial":
        """Multiply by a single term coeff * x^expts."""
        c = self.ring.field.coerce(coeff)
        if not c:
            return self.ring.zero()
        return Polynomial(
            self.ring, {mono_mul(e, expts): v * c for e, v in self.terms.items()}
        )

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            try:
                return self == self.ring.const(other)
            except CoefficientFieldError:
                return NotImplemented
        return NotImplemented

    __hash__ = None

    # -- leading data -----------------------------------------------------

    def leading_monomial(self, order: TermOrder) -> Monomial:
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_term(self, order: TermOrder):
        m = self.leading_monomial(order)
        return m, self.terms[m]

    def monic(self, order: TermOrder) -> "Polynomial":
        _, c = self.leading_term(order)
        if c == self.ring.field.one:
            return self
        inv = c ** -1
        return Polynomial(self.ring, {e: v * inv for e, v in self.terms.items()})

    # -- evaluation and display --------------------------------------------

    def evaluate(self, point):
        """Evaluate at a point given as one field element per indeterminate."""
        if len(point) != self.ring.nvars:
            raise DimensionError("point length does not match the universe")
        values = [self.ring.field.coerce(v) for v in point]
        power = functools.cache(lambda j, k: values[j] ** k)  # once per call
        total = self.ring.field.zero
        for e, c in self.terms.items():
            v = c
            for j, k in enumerate(e):
                if k:
                    v = v * power(j, k)
            total = total + v
        return total

    def text(self, order: TermOrder) -> str:
        """Canonical text form: terms in descending order under ``order``."""
        if not self.terms:
            return "0"
        return _terms_text(self, sorted(self.terms, key=order.key, reverse=True))

    def __repr__(self):
        if not self.terms:
            return "Polynomial<0>"
        # order-free display: sort by raw exponent tuples, largest first
        return f"Polynomial<{_terms_text(self, sorted(self.terms, reverse=True))}>"


# -- text format ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^]))"
)


def _coeff_str(c) -> str:
    if isinstance(c, CyclotomicNumber):
        if c.is_rational():
            return str(c.rational_part())
        return f"({c})"
    return str(c)


def _terms_text(f: Polynomial, monomials) -> str:
    return _format_terms(((e, _coeff_str(f.terms[e])) for e in monomials), f.ring.names)


def _parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Read the text format: a signed sum of ``*``-separated factors, each a
    rational ``p`` or ``p/q``, an indeterminate with an optional ``^k``, or a
    parenthesised coefficient.

    A parenthesised coefficient is read by the same grammar as a polynomial in
    the one indeterminate ``w`` and then evaluated at the field's root of
    unity, so over QQ it must be free of ``w``.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise InputError(f"cannot tokenize polynomial near {stripped[:20]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None)

    def take(kind=None):
        nonlocal i
        tok = peek()
        if kind is not None and tok[0] != kind:
            raise InputError(f"unexpected token {tok[1]!r} in polynomial")
        i += 1
        return tok

    def parse_rational() -> Fraction:
        num = int(take("num")[1])
        if peek() == ("op", "/"):
            take()
            den = int(take("num")[1])
            if not den:
                raise InputError(f"zero denominator in {num}/0")
            return Fraction(num, den)
        return Fraction(num)

    def parse_coefficient(field):
        take("lpar")
        w_poly = parse_sum(PolyRing(("w",), field))
        take("rpar")
        if isinstance(field, CyclotomicField):
            return w_poly.evaluate((omega(field.order),))
        if any(k for (k,) in w_poly.terms):
            raise InputError("cyclotomic coefficient in a rational ring")
        return w_poly.constant_term()

    def parse_term(ring: PolyRing):
        expts = [0] * ring.nvars
        coeff = Fraction(1)
        while True:
            kind, val = peek()
            if kind == "num":
                coeff = coeff * parse_rational()
            elif kind == "lpar":
                coeff = coeff * parse_coefficient(ring.field)
            elif kind == "name":
                take()
                if val not in ring._index:
                    raise InputError(f"unknown indeterminate {val!r}")
                power = 1
                if peek() == ("op", "^"):
                    take()
                    power = int(take("num")[1])
                expts[ring._index[val]] += power
            else:
                raise InputError("empty term in polynomial")
            if peek() != ("op", "*"):
                return tuple(expts), ring.field.coerce(coeff)
            take()

    def parse_sum(ring: PolyRing) -> Polynomial:
        terms: dict = {}
        sign = 1
        kind, val = peek()
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
        while True:
            e, c = parse_term(ring)
            _add_term(terms, e, -c if sign < 0 else c)
            kind, val = peek()
            if kind != "op" or val not in "+-":
                return Polynomial(ring, terms)
            take()
            sign = -1 if val == "-" else 1

    f = parse_sum(ring)
    kind, val = peek()
    if kind is not None:
        raise InputError(f"unexpected token {val!r} between terms")
    return f
