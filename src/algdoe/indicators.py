"""Indicator functions of two-level fractions and design classification.

The indicator of a fraction F inside the full factorial {-1,+1}^m is the
unique square-free polynomial that is 1 on F and 0 elsewhere.  Coefficients
are computed by the orthogonality expansion

    b_a = 2^(-m) * sum_{x in F} x^a,

realized as an exact integer Walsh-Hadamard transform of the 0/1 run table.
The inverse, :func:`design_from_indicator`, applies the same transform to the
scaled coefficients, evaluating the indicator at all 2^m points in O(m*2^m);
it certifies every indicator computed here, at every m <= 20.  Classification
checks its witness words directly on the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .designs import Design, Word, _value_vector, gf2_independent
from .errors import InputError, InvalidIndicatorError, ScaleError
from .orders import Monomial
from .polynomials import PolyRing, Polynomial

MAX_EXPANSION_FACTORS = 20


class IndicatorFunction:
    """Square-free polynomial representation of a two-level fraction."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        clean = {}
        for bits, c in dict(coeffs).items():
            bits = tuple(bits)
            if len(bits) != m or any(b not in (0, 1) for b in bits):
                raise InputError(f"indicator exponents must lie in {{0,1}}^{m}")
            c = Fraction(c)
            if c:
                clean[bits] = c
        self.coeffs = clean

    def __eq__(self, other):
        return (
            isinstance(other, IndicatorFunction)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(
            f"{bits}: {c}" for bits, c in sorted(self.coeffs.items())
        )
        return f"IndicatorFunction(m={self.m}, {{{inner}}})"

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.m, Fraction(0))

    def coefficient(self, bits: Monomial) -> Fraction:
        return self.coeffs.get(tuple(bits), Fraction(0))

    def evaluate(self, point) -> Fraction:
        if len(point) != self.m:
            raise InputError("point length does not match the factor count")
        total = Fraction(0)
        for bits, c in self.coeffs.items():
            prod = 1
            for v, b in zip(point, bits):
                if b:
                    prod *= v
            total += c * prod
        return total

    def to_polynomial(self, ring: PolyRing) -> Polynomial:
        if ring.nvars != self.m:
            raise InputError("ring does not match the factor count")
        return ring.poly({bits: c for bits, c in self.coeffs.items()})

    @staticmethod
    def from_polynomial(f: Polynomial) -> "IndicatorFunction":
        return IndicatorFunction(f.ring.nvars, dict(f.terms))


def _walsh_hadamard(values: list[int]) -> list[int]:
    """In-place integer Walsh-Hadamard transform with the (-1)^(a.x) kernel."""
    out = list(values)
    h = 1
    n = len(out)
    while h < n:
        for start in range(0, n, h * 2):
            for k in range(start, start + h):
                a, b = out[k], out[k + h]
                out[k], out[k + h] = a + b, a - b
        h *= 2
    return out


_BITS = (0, 1)  # exponent bits of a coefficient
_PM1 = (1, -1)  # levels of a run: bit k set means factor k+1 sits at -1


def _encode(values, levels) -> int:
    """Table index with bit k set where values[k] == levels[1]."""
    idx = 0
    for k, v in enumerate(values):
        if v == levels[1]:
            idx |= 1 << k
    return idx


def _decode(idx: int, m: int, levels) -> tuple[int, ...]:
    """Inverse of :func:`_encode`."""
    return tuple(levels[(idx >> k) & 1] for k in range(m))


def indicator_from_design(d: Design) -> IndicatorFunction:
    """Exact indicator function of a two-level fraction, certified by its inverse."""
    if d.s != 2:
        raise InputError("indicator functions are defined for two-level designs")
    if d.m > MAX_EXPANSION_FACTORS:
        raise ScaleError(f"indicator expansion capped at m <= {MAX_EXPANSION_FACTORS}")
    m = d.m
    table = [0] * (1 << m)
    for run in d.runs:
        table[_encode(run, _PM1)] = 1
    spectrum = _walsh_hadamard(table)
    denom = 1 << m
    coeffs = {
        _decode(idx, m, _BITS): Fraction(v, denom)
        for idx, v in enumerate(spectrum)
        if v
    }
    f = IndicatorFunction(m, coeffs)
    try:
        certified = design_from_indicator(f).runs == tuple(sorted(d.runs))
    except InvalidIndicatorError as exc:
        raise AssertionError(f"indicator of the design is not 0/1-valued: {exc}") from exc
    if not certified:
        raise AssertionError("inverse transform of the indicator does not return the runs")
    return f


def design_from_indicator(f: IndicatorFunction) -> Design:
    """Exact inverse of :func:`indicator_from_design`."""
    m = f.m
    if m > MAX_EXPANSION_FACTORS:
        raise ScaleError(f"indicator expansion capped at m <= {MAX_EXPANSION_FACTORS}")
    denom = 1 << m
    scaled = [0] * denom
    for bits, c in f.coeffs.items():
        v = c * denom
        if v.denominator != 1:
            raise InvalidIndicatorError(
                f"coefficient {c} cannot belong to a 0/1-valued indicator"
            )
        scaled[_encode(bits, _BITS)] = int(v)
    values = _walsh_hadamard(scaled)
    runs = []
    for idx, v in enumerate(values):
        if v == denom:
            runs.append(_decode(idx, m, _PM1))
        elif v != 0:
            raise InvalidIndicatorError(
                f"polynomial is not 0/1-valued on the full factorial (value {Fraction(v, denom)})"
            )
    if not runs:
        raise InvalidIndicatorError("indicator is identically zero")
    runs.sort()
    return Design(m, 2, tuple(runs), "pm1")


# -- adding factors -----------------------------------------------------------


@dataclass(frozen=True)
class FactorRelation:
    """A new factor defined as sign * x^word over the existing factors."""

    index: int  # 1-based position among the added factors
    sign: int
    word: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise InputError("relation sign must be +1 or -1")
        if any(b not in (0, 1) for b in self.word):
            raise InputError("relation word must be square-free")
        if not any(self.word):
            raise InputError("relation word must be nonzero")
        if self.index < 1:
            raise InputError("relation index is 1-based")


def indicator_add_factors(
    f1: IndicatorFunction, relations
) -> IndicatorFunction:
    """Indicator of the design extended by factors y_i = e_i * x^(b_i).

    Multiplies f1 by (1 + e_i y_i x^(b_i)) / 2 per relation, with exponents
    reduced square-free.  With f1 identically 1 this reproduces the product
    form of a regular fraction's indicator.
    """
    relations = list(relations)
    m, k = f1.m, len(relations)
    for pos, rel in enumerate(relations, start=1):
        if len(rel.word) != m:
            raise InputError("relation word does not match the base factor count")
        if rel.index != pos:
            raise InputError(
                f"relation at position {pos} carries index {rel.index}"
            )
    total = m + k
    coeffs = {bits + (0,) * k: c for bits, c in f1.coeffs.items()}
    for pos, rel in enumerate(relations):
        mask = rel.word + tuple(1 if i == pos else 0 for i in range(k))
        half = Fraction(1, 2)
        sign = rel.sign
        out: dict = {}
        for bits, c in coeffs.items():
            c2 = c * half
            out[bits] = out.get(bits, Fraction(0)) + c2
            flipped = tuple(b ^ w for b, w in zip(bits, mask))
            out[flipped] = out.get(flipped, Fraction(0)) + sign * c2
        coeffs = {bits: c for bits, c in out.items() if c}
    return IndicatorFunction(total, coeffs)


def extend_design(d: Design, relations) -> Design:
    """The design with columns appended per the factor relations."""
    columns = [
        tuple(rel.sign * v for v in _value_vector(d, rel.word)) for rel in relations
    ]
    runs = tuple(
        tuple(run) + tuple(col[i] for col in columns) for i, run in enumerate(d.runs)
    )
    return Design(d.m + len(columns), 2, runs, "pm1")


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class DesignClass:
    """Classification of a two-level design with a verified witness.

    ``tag`` is one of full-factorial, regular, subset-fractional, or
    affinely-full-dimensional.  Regular designs carry their defining words;
    subset fractions carry the words of the smallest containing regular
    design.  ``diagnostic`` is set when a witness failed verification.
    """

    tag: str
    words: tuple[Word, ...] = ()
    diagnostic: str | None = None


def _independent_words(bits_list, signs) -> tuple[Word, ...]:
    """A GF(2)-independent generating subset, in deterministic order."""
    chosen: list[Word] = []
    chosen_bits: list[tuple[int, ...]] = []
    for bits, sign in sorted(zip(bits_list, signs)):
        if gf2_independent(chosen_bits + [bits]):
            chosen.append(Word(bits, sign))
            chosen_bits.append(bits)
    return tuple(chosen)


def classify_design(d: Design) -> DesignClass:
    """Classify a two-level design by its indicator coefficients.

    Regular: every nonzero coefficient has magnitude equal to the constant
    term, and the implied words hold on every run with n * 2^k = 2^m for k
    words (independent over GF(2), so they define exactly 2^(m-k) runs).
    Subset-fractional: non-regular, but some nonconstant coefficient reaches
    the constant term; those terms define a containing regular design.
    Affinely-full-dimensional: no nonconstant coefficient reaches the
    constant term.
    """
    if d.s != 2:
        raise InputError("classification is defined for two-level designs")
    if d.n == 2**d.m:
        return DesignClass("full-factorial")
    f = indicator_from_design(d)
    b0 = f.constant_term()
    zero = (0,) * d.m
    big = [
        (bits, 1 if c > 0 else -1)
        for bits, c in f.coeffs.items()
        if bits != zero and abs(c) == b0
    ]
    all_extreme = all(abs(c) == b0 for c in f.coeffs.values())
    if big:
        words = _independent_words([b for b, _ in big], [s for _, s in big])
        contained = all(
            v == w.sign for w in words for v in _value_vector(d, w.bits)
        )
        if all_extreme and contained and d.n << len(words) == 1 << d.m:
            return DesignClass("regular", words=words)
        if contained:
            return DesignClass("subset-fractional", words=words)
        return DesignClass(
            "subset-fractional",
            words=words,
            diagnostic="witness words do not contain the design; "
            "coefficient criterion and reconstruction disagree",
        )
    return DesignClass("affinely-full-dimensional")


def word_group(words) -> set[tuple[tuple[int, ...], int]]:
    """All products of subsets of the words, excluding the identity."""
    words = list(words)
    if not words:
        return set()
    m = len(words[0].bits)
    group = {(0,) * m: 1}
    for w in words:
        new = dict(group)
        for bits, sign in group.items():
            combined = tuple(b ^ c for b, c in zip(bits, w.bits))
            new[combined] = sign * w.sign
        group = new
    group.pop((0,) * m, None)
    return {(bits, sign) for bits, sign in group.items()}
