"""Indicator functions of two-level fractions and design classification.

The indicator of a fraction F inside the full factorial {-1,+1}^m is the
unique square-free polynomial that is 1 on F and 0 elsewhere.  Coefficients
are computed by the orthogonality expansion

    b_a = 2^(-m) * sum_{x in F} x^a,

realized as an exact integer Walsh-Hadamard transform of the 0/1 run table
over the span of the runs.  :func:`algdoe.linalg.gf2_dependencies` finds, on
the design's packed columns, the k words x^w constant on F, one dependent
factor each, and the r = m - k independent factors, on which the runs are
distinct.  The transform takes the 2^r table of the runs projected onto
those factors (a regular fraction, n = 2^r, fills that table, whose
transform is n at 0 alone), and b_(a XOR w) = x^w(first run) * b_a spreads
each coefficient over the 2^k products of the words.  The inverse,
:func:`design_from_indicator`, takes the span of the exponents and the zero
tuple, of dimension s: the indicator's value at a run depends on the run
only through a . x for a in that span, so one transform of the 2^s
projected, scaled coefficients evaluates it on each class of 2^(m-s) runs.
More runs, or exponent tuples, than a hyperplane holds span all m factors,
and then no span is computed.  :func:`indicator_add_factors` spreads each
coefficient, divided by 2^k, over the signed group of its k relations'
words in the same loop: the product form of Pistone & Rogantin (*J. Stat.
Plann. Inference* 138, 2008).  An indicator packs its keys once, with the
index map's encoder in :mod:`algdoe.designs`, which checks them, and both
transforms read that table; it is frozen, so the table stays its keys'.  A table over all m factors is read off
itertools.product; with words, the orbit of :func:`_signed_orbit` is
decoded with ``_unpack``.  Either way the coefficients (the runs) come in
the order a full 2^m transform gives.  Classification needs neither
transform nor cap on m: as x^a = +-1, |b_a| = b_0 holds exactly when x^a is
constant on F, one of the words above, which :func:`classify_design` reads
off the same routine and checks word by word on the columns.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, product
from types import MappingProxyType

from .designs import (RUN_LEVELS, WORD_LEVELS, Design, Word, _base2_reads, _pack, _product,
                      _unpack, product_index)
from .errors import (InputError, InvalidIndicatorError, ScaleError, int_arg, int_bits, int_fields,
                     whole)
from .linalg import gf2_dependencies
from .orders import Monomial, monomial_name
from .polynomials import PolyRing, Polynomial

MAX_EXPANSION_FACTORS = 20
LANE_CHUNK_BYTES = 4096  # bytes of packed lanes per chunk of the transform


class IndicatorFunction:
    """Square-free polynomial representation of a two-level fraction.  Its keys
    are packed once, when it is built, so it is frozen and ``coeffs`` is read-only."""

    __slots__ = ("m", "coeffs", "_digits")

    def __init__(self, m: int, coeffs):
        m = int_arg("IndicatorFunction.m", m)
        if m < 0:
            raise InputError(f"IndicatorFunction.m must be nonnegative, found {m}")
        coeffs = dict(coeffs)
        if not set(map(type, coeffs)) <= {tuple}:
            coeffs = dict(zip(map(tuple, coeffs), coeffs.values()))
        keys = coeffs.keys()
        # the whole table is checked in C: only ints in range(256) pack, only 0/1 pass
        try:
            digits = _pack(keys, WORD_LEVELS)
        except (TypeError, ValueError):  # not all ints: each key is read by int_bits
            coeffs = dict(zip(map(int_bits, keys), coeffs.values()))
            if None in coeffs:
                raise InputError(f"indicator exponents must lie in {{0,1}}^{m}") from None
            digits = _pack(keys := coeffs.keys(), WORD_LEVELS)
        if not set(map(len, keys)) <= {m} or digits.translate(None, b"01"):
            raise InputError(f"indicator exponents must lie in {{0,1}}^{m}")
        if not set(map(type, coeffs.values())) <= {Fraction}:
            coeffs = dict(zip(keys, map(Fraction, coeffs.values())))
        # the zero test runs in C, and a table with no zero, such as the
        # forward transform's, is kept as built
        if not all(coeffs.values()):
            coeffs = {bits: c for bits, c in coeffs.items() if c}
            digits = _pack(coeffs, WORD_LEVELS)
        for name, value in zip(self.__slots__, (m, MappingProxyType(coeffs), digits)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"IndicatorFunction is frozen: cannot set {name}")

    def __reduce__(self):  # copies and pickles are built again from the table
        return IndicatorFunction, (self.m, dict(self.coeffs))

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
        if (bits := int_bits(bits)) is None or len(bits) != self.m:
            raise InputError(f"indicator exponents must lie in {{0,1}}^{self.m}")
        return self.coeffs.get(bits, Fraction(0))

    def evaluate(self, point) -> Fraction:
        if len(point) != self.m:
            raise InputError("point length does not match the factor count")
        total = Fraction(0)
        for bits, c in self.coeffs.items():
            total += c * math.prod(compress(point, bits))
        return total

    def to_polynomial(self, ring: PolyRing) -> Polynomial:
        if ring.nvars != self.m:
            raise InputError("ring does not match the factor count")
        return ring.poly({bits: c for bits, c in self.coeffs.items()})

    @staticmethod
    def from_polynomial(f: Polynomial) -> "IndicatorFunction":
        return IndicatorFunction(f.ring.nvars, dict(f.terms))


def _walsh_hadamard(values: list[int]) -> list[int]:
    """Integer Walsh-Hadamard transform with the (-1)^(a.x) kernel, in
    natural order, on values packed into fixed-width lanes of whole ints.

    A lane of ``bits`` bits holds v + 2^(bits-3).  Every intermediate is a
    signed sum of the inputs, so while sum |v| < 2^(bits-3) every lane stays
    in (0, 2^(bits-2)) and no butterfly carries or borrows across lanes: a
    pass adds and subtracts whole ints and corrects the offset once.  Passes
    on the low index bits run inside chunks of LANE_CHUNK_BYTES, the others
    pair whole chunks in constant geometry.
    """
    n = len(values)
    total = sum(map(abs, values))
    if total >= 1 << 61:
        raise ScaleError(
            f"Walsh-Hadamard input sums to {total} in absolute value, "
            "past the 2^61 that 64-bit lanes hold"
        )
    table = array("i" if total < 1 << 29 else "q", values)
    if sys.byteorder == "big":
        table.byteswap()
    width = table.itemsize
    bits = 8 * width
    lanes = min(n, LANE_CHUNK_BYTES // width)
    size = lanes * width

    def every_lane(v: int) -> int:
        return int.from_bytes(v.to_bytes(width, "little") * lanes, "little")

    # the two's complement t of v has t ^ sign = v + 2^(bits-1) = v + bias + lift
    sign, lift, bias = (every_lane(1 << bits - 1), every_lane(3 << bits - 3),
                        every_lane(1 << bits - 3))
    passes = []
    for j in range(lanes.bit_length() - 1):
        run = b"\xff" * (width << j)
        keep = int.from_bytes((run + bytes(len(run))) * (lanes >> j + 1), "little")
        passes.append((bits << j, keep, bias & keep))
    raw = memoryview(table).cast("B")
    chunks = []
    for start in range(0, n * width, size):
        p = (int.from_bytes(raw[start:start + size], "little") ^ sign) - lift
        for shift, keep, low_bias in passes:
            a = p & keep
            b = p >> shift & keep
            p = a + b - low_bias | a + low_bias - b << shift
        chunks.append(p)
    for _ in range(len(chunks).bit_length() - 1):
        even, odd = chunks[::2], chunks[1::2]
        chunks = [*(a + b - bias for a, b in zip(even, odd)),
                  *(a + bias - b for a, b in zip(even, odd))]
    out = array(table.typecode)
    out.frombytes(b"".join(((p + lift) ^ sign).to_bytes(size, "little") for p in chunks))
    if sys.byteorder == "big":
        out.byteswap()
    return out.tolist()


def indicator_from_design(d: Design) -> IndicatorFunction:
    """Exact indicator function of a two-level fraction."""
    if d.s != 2:
        raise InputError("indicator functions are defined for two-level designs")
    if d.m > MAX_EXPANSION_FACTORS:
        raise ScaleError(f"indicator expansion capped at m <= {MAX_EXPANSION_FACTORS}")
    m = d.m
    # more runs than an affine hyperplane holds span all m factors
    words, free = gf2_dependencies(d._columns, d.n) if d.n <= 1 << m - 1 else ([], range(m))
    denom = 1 << m
    # the spectrum of n runs takes integer values in [-n, n], so each Fraction
    # is made once, on first use, and shared by the coefficients it equals
    fraction = cache(lambda v: Fraction(v, denom))
    # the runs are distinct on their independent factors
    if d.n == 1 << len(free):
        # they fill the projected table, whose transform is n at 0 alone
        at, spectrum = [0], [d.n]
    else:
        table = [0] * (1 << len(free))
        for idx in _base2_reads(d._digits, d.n, free):
            table[idx] = 1
        spectrum = _walsh_hadamard(table)
        if not words:  # the table spans all m factors
            keys = compress(product(WORD_LEVELS, repeat=m), spectrum)
            return IndicatorFunction(m, zip(keys, map(fraction, filter(None, spectrum))))
        at = list(compress(_free_indices(m, free), spectrum))
        spectrum = list(filter(None, spectrum))
    idxs, vals = _signed_orbit(at, spectrum, words, int(d._digits[:m], 2))  # run 0's index
    order = sorted(range(len(idxs)), key=idxs.__getitem__)  # a full transform's key order
    keys = _unpack(list(map(idxs.__getitem__, order)), m, WORD_LEVELS)
    return IndicatorFunction(m, zip(keys, map(fraction, map(vals.__getitem__, order))))


def design_from_indicator(f: IndicatorFunction) -> Design:
    """Exact inverse of :func:`indicator_from_design`."""
    m = f.m
    if m > MAX_EXPANSION_FACTORS:
        raise ScaleError(f"indicator expansion capped at m <= {MAX_EXPANSION_FACTORS}")
    denom = 1 << m
    # each distinct value object is checked and scaled once: the forward
    # transform shares one Fraction per value of its spectrum, and the first
    # object to fail is the value of the first coefficient to fail
    coefficients = f.coeffs.values()
    scale = {}
    for key, c in dict(zip(map(id, coefficients), coefficients)).items():
        num, den = c.numerator, c.denominator
        # |b_a| <= b_0 <= 1 on an indicator, so the transform's input sums to
        # at most 2^(2m) in absolute value
        if abs(num) > den:
            bits = next(bits for bits, v in f.coeffs.items() if v is c)
            raise InvalidIndicatorError(
                f"coefficient {c} of {monomial_name(bits)} exceeds 1 in absolute "
                "value, so it cannot belong to a 0/1-valued indicator"
            )
        if denom % den:
            raise InvalidIndicatorError(
                f"coefficient {c} cannot belong to a 0/1-valued indicator"
            )
        scale[key] = num * (denom // den)
    # x^a on a run depends on the run only through a . x for a in the span
    # of the exponents, which the zero tuple, put first, joins; more exponent
    # tuples than a hyperplane holds span all m factors
    if len(f.coeffs) <= denom >> 1:
        columns = [int(b"0" + f._digits[j::m], 2) for j in range(m)]
        words, free = gf2_dependencies(columns, len(f.coeffs) + 1)
    else:
        words, free = [], range(m)
    # each exponent tuple's position is the base-2 read of its independent
    # digits, which are distinct
    at = _base2_reads(f._digits, len(f.coeffs), free)
    scaled = [0] * (1 << len(free))
    for idx, v in zip(at, map(scale.__getitem__, map(id, coefficients))):
        scaled[idx] = v
    values = _walsh_hadamard(scaled)
    if not set(values) <= {0, denom}:
        # a class's least run is its position spread onto the independent
        # factors, so the first class to fail holds the first run to fail
        v = next(v for v in values if v not in (0, denom))
        raise InvalidIndicatorError(
            f"polynomial is not 0/1-valued on the full factorial (value {Fraction(v, denom)})"
        )
    if words:
        # w is orthogonal to the exponents, so u XOR w shares u's value; read
        # descending, the indices list the runs in ascending order
        idxs = _signed_orbit(list(compress(_free_indices(m, free), values)), [], words, 0)[0]
        runs = tuple(_unpack(sorted(idxs, reverse=True), m, RUN_LEVELS))
    else:
        # read backwards, the table lists the runs in ascending order
        runs = tuple(compress(product(RUN_LEVELS[::-1], repeat=m), reversed(values)))
    if not runs:
        raise InvalidIndicatorError("indicator is identically zero")
    return Design(m, 2, runs, "pm1")


def _free_indices(m: int, free: list[int]) -> list[int]:
    """The index over m factors of each c < 2^len(free): c's digits put on
    the ascending ``free`` factors."""
    at = [0]
    for j in reversed(free):
        at += [a | 1 << m - 1 - j for a in at]
    return at


def _signed_orbit(idxs: list[int], vals: list, words: list[int], first: int):
    """``idxs`` and ``vals`` extended over the products w of ``words``: each
    index i is joined by i XOR w, with its value times x^w at the run of
    index ``first``."""
    for w in words:
        idxs += [i ^ w for i in idxs]
        vals += [-v for v in vals] if (w & first).bit_count() & 1 else vals
    return idxs, vals


# -- adding factors -----------------------------------------------------------


@dataclass(frozen=True)
class FactorRelation:
    """A new factor defined as sign * x^word over the existing factors."""

    index: int  # 1-based position among the added factors
    sign: int
    word: tuple[int, ...]

    def __post_init__(self):
        # each field is stored as the int (the ints) it equals
        sign = whole(self.sign)
        if sign not in (-1, 1):
            raise InputError("relation sign must be +1 or -1")
        if (word := int_bits(self.word)) is None:
            raise InputError("relation word must be square-free")
        if not any(word):
            raise InputError("relation word must be nonzero")
        int_fields(self, "index")
        if self.index < 1:
            raise InputError("relation index is 1-based")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "word", word)


def indicator_add_factors(
    f1: IndicatorFunction, relations
) -> IndicatorFunction:
    """Indicator of the design extended by factors y_i = e_i * x^(b_i).

    The product of f1 and (1 + e_i y_i x^(b_i)) / 2 over the relations, with
    exponents reduced square-free: each coefficient of f1, divided by 2^k,
    spreads over the group of the k words y_i x^(b_i), each signed by its
    value e_i at the run x = 1, y = e.  With f1 identically 1 this is the
    product form of a regular fraction's indicator.
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
    # each relation can double the coefficients, and no indicator on at most
    # MAX_EXPANSION_FACTORS factors has more than 2^MAX_EXPANSION_FACTORS
    if len(f1.coeffs) << k > 1 << MAX_EXPANSION_FACTORS:
        raise ScaleError(
            f"adding {k} factors can make {len(f1.coeffs)}*2^{k} coefficients, "
            f"more than 2^{MAX_EXPANSION_FACTORS}"
        )
    # the added factors take the lowest k bits of the index, the last of them
    # bit 0, so each word has a bit of its own and every product is a new key
    words = [product_index(r.word, WORD_LEVELS) << k | 1 << k - 1 - i
             for i, r in enumerate(relations)]
    first = product_index([r.sign for r in relations], RUN_LEVELS)  # the run x = 1, y = e
    at = _base2_reads(f1._digits, len(f1.coeffs), range(m))
    # one Fraction per distinct value, shared by the coefficients it equals
    share = cache(lambda c: c / (1 << k))
    idxs, vals = _signed_orbit([i << k for i in at], list(map(share, f1.coeffs.values())),
                               words, first)
    return IndicatorFunction(m + k, zip(_unpack(idxs, m + k, WORD_LEVELS), vals))


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


def classify_design(d: Design) -> DesignClass:
    """Classify a two-level design by the GF(2) dependencies of its columns.

    The witness words are the reduced echelon basis of the words constant on
    the runs, in ascending order, each signed by its value on the first run.
    Regular: the k words hold on every run and n * 2^k = 2^m, so they define
    exactly the runs.  Subset-fractional: they define a larger regular design
    that contains the runs.  Affinely-full-dimensional: the columns taken
    relative to the first run are independent, so no word is constant.
    """
    if d.s != 2:
        raise InputError("classification is defined for two-level designs")
    if d.n == 2**d.m:
        return DesignClass("full-factorial")
    n, m = d.n, d.m
    columns = d._columns
    words = _unpack(gf2_dependencies(columns, n)[0], m, WORD_LEVELS)
    found = [(bits, _product(columns, bits)) for bits in words]
    if not found:
        return DesignClass("affinely-full-dimensional")
    # the witness: each word is constant on the runs, its sign the first run's
    words = tuple(Word(bits, -1 if column >> n - 1 else 1) for bits, column in found)
    if not all(column in (0, (1 << n) - 1) for _, column in found):
        return DesignClass("subset-fractional", words, "witness words do not "
                           "contain the design; GF(2) complement and runs disagree")
    tag = "regular" if n << len(words) == 1 << m else "subset-fractional"
    return DesignClass(tag, words=words)
