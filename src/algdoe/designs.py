"""Fractional factorial designs, design ideals, and confounding analysis.

A design is a finite set of distinct runs over coded levels.  Two-level
designs are coded plus/minus one; prime-level designs carry integer labels
0..s-1 which the complex coding interprets as powers of the s-th root of
unity.  The design ideal is computed by the Buchberger-Moeller algorithm on
the runs as the design validated them: pm1 runs are the points' ints, and
complex runs the level vectors k of the points w^k, so no point is built.
The walk is done once per (design, order): its basis and the standard
monomials it found and certified, Est, are cached together.

Two-level runs and square-free words share one index map, kept here: bit m-1-j
is set where factor j+1 is at -1 (a run over RUN_LEVELS) or present (a word over
WORD_LEVELS), the element's position in ``itertools.product(levels, repeat=m)``;
multiplying two elements XORs their indices.  One encoder, ``_pack``, turns
runs and exponent tuples alike into element-major '0'/'1' digits, an index
is a base-2 read of them, and ``_unpack`` decodes a batch of indices back,
such as the runs of a regular fraction, whose indices are a coset.  Exponents
are packed as bytes, so only the ints that ``errors.int_bits`` reads reach it.
A two-level design packs its runs once, on first use, into a table that it
keeps, and reads its m factor columns off that table once into n-bit ints
that it keeps beside it.  Confounding, alias classes, classification, the
indicator, the D criterion and the two-level covariate columns all read the
kept columns: whether x^a is constant on the runs, and with which sign, is
x^a's packed column, the XOR of its factors'.
"""

from __future__ import annotations

import array
import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from .cyclotomic import QQ, cyclotomic_field, is_prime, omega
from .errors import InputError, RankError, ScaleError, int_arg, int_bits, int_fields, whole
from .groebner import GroebnerBasis, _buchberger_moeller, _check_width
from .linalg import gf2_insert
from .orders import Monomial, TermOrder
from .polynomials import PolyRing

CODINGS = ("pm1", "integer", "complex")
MAX_REGULAR_RUNS = 2**20


@dataclass(frozen=True)
class Design:
    """n distinct runs of m factors at s coded levels each."""

    m: int
    s: int
    runs: tuple[tuple[int, ...], ...]
    coding: str = "pm1"

    def __post_init__(self):
        int_fields(self, "m", "s")
        if self.m < 1:
            raise InputError("a design needs at least one factor")
        if not is_prime(self.s):
            raise InputError(f"level count must be prime, got {self.s}")
        if self.coding not in CODINGS:
            raise InputError(f"unknown coding {self.coding!r}")
        if self.coding == "pm1" and self.s != 2:
            raise InputError("plus-minus-one coding requires two levels")
        if self.coding != "pm1" and self.s == 2:
            raise InputError("two-level designs use plus-minus-one coding")
        # runs held in lists are stored as a tuple of tuples; a tuple of
        # hashable runs is taken as it is
        runs = self.runs if type(self.runs) is tuple else tuple(self.runs)
        if not runs:
            raise InputError("a design needs at least one run")
        try:
            distinct = len(set(runs))
        except TypeError:
            runs = tuple(map(tuple, runs))
            distinct = len(set(runs))
        if distinct != len(runs):
            raise InputError("replicated runs are not allowed")
        # one whole() per distinct level, then an O(1) test of its int, not a
        # set of s levels: s may be a large prime
        valid = (-1, 1).__contains__ if self.coding == "pm1" else range(self.s).__contains__
        levels = set(itertools.chain.from_iterable(runs))
        ints = {v: w for v in levels if (w := whole(v)) is not None and valid(w)}
        # whole-table checks; the runs are walked only to name the culprit
        if set(map(len, runs)) != {self.m} or len(ints) != len(levels):
            for run in runs:
                if len(run) != self.m:
                    raise InputError(f"run {run} has wrong length")
                if not all(map(ints.__contains__, run)):
                    raise InputError(f"run {run} has an invalid coded level")
        # a valid level equals an int (1.0, True, Fraction(2), ...): store that
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(runs))):
            runs = tuple(tuple(map(ints.__getitem__, run)) for run in runs)
        object.__setattr__(self, "runs", runs)

    @property
    def n(self) -> int:
        return len(self.runs)

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(f"x{j + 1}" for j in range(self.m))

    def field(self):
        return QQ if self.coding == "pm1" else cyclotomic_field(self.s)

    def points(self):
        """Runs as tuples of field elements: the runs themselves, exact ints
        that QQ takes as they are, or under complex coding the powers of w."""
        if self.coding == "complex":
            return [tuple(omega(self.s, v) for v in run) for run in self.runs]
        return list(self.runs)

    def ring(self) -> PolyRing:
        return PolyRing(self.var_names, self.field())

    @functools.cached_property
    def _digits(self) -> bytes:
        """The two-level run table, packed once per design."""
        return _pack(self.runs, RUN_LEVELS)

    @functools.cached_property
    def _columns(self) -> tuple[int, ...]:
        """The m two-level factor columns, read once per design off the packed
        table: factor j+1's is an n-bit int whose bit n-1-r is set where run r
        is at -1."""
        digits, m = self._digits, self.m
        return tuple(int(digits[j::m], 2) for j in range(m))


def full_factorial(m: int, s: int = 2) -> Design:
    if s == 2:
        runs = tuple(itertools.product((-1, 1), repeat=m))
        return Design(m, 2, runs, "pm1")
    runs = tuple(itertools.product(range(s), repeat=m))
    return Design(m, s, runs, "integer")


# -- design files -------------------------------------------------------------


def format_design(d: Design) -> str:
    lines = [f"m={d.m} s={d.s} coding={d.coding}"]
    for run in d.runs:
        lines.append(" ".join(str(v) for v in run))
    return "\n".join(lines) + "\n"


def read_header(text: str, kind: str, required) -> tuple[dict[str, str], list[str]]:
    """The ``key=value`` fields of the first nonblank line of a design,
    generator or indicator file, and the file's other nonblank lines, stripped.

    ``kind`` names the file in errors; a missing ``required`` key is an
    InputError.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError(f"empty {kind} file")
    header = dict(part.split("=", 1) for part in lines[0].split() if "=" in part)
    for key in required:
        if key not in header:
            raise InputError(f"{kind} header {lines[0]!r} has no {key}=")
    return header, lines[1:]


def parse_design(text: str) -> Design:
    header, rows = read_header(text, "design", ("m",))
    try:
        m = int(header["m"])
        s = int(header.get("s", "2"))
    except ValueError as exc:
        raise InputError(f"bad design header: {exc}") from exc
    coding = header.get("coding", "pm1" if s == 2 else "integer")
    runs = []
    for ln in rows:
        try:
            runs.append(tuple(int(v) for v in ln.split()))
        except ValueError as exc:
            raise InputError(f"bad design row {ln!r}") from exc
    return Design(m, s, tuple(runs), coding)


# -- the two-level index map ---------------------------------------------------

RUN_LEVELS = (1, -1)
WORD_LEVELS = (0, 1)
_DIGITS = b"01" + b"2" * 254  # bytes 0/1 to ASCII digits, any other to "2", no base-2 digit
_LEVELS = {WORD_LEVELS: bytes.maketrans(b"01", b"\0\1"),  # and back, to the levels
           RUN_LEVELS: bytes.maketrans(b"01", b"\1\xff")}  # -1 as a signed byte


def _pack(elements, levels) -> bytes:
    """Runs over RUN_LEVELS or exponent tuples over WORD_LEVELS as
    element-major ASCII digits, '1' where an entry is levels[1].  An exponent
    that ``bytes`` refuses, such as 1.0 or 256, raises TypeError or ValueError;
    any other but 0 and 1, such as 48 (the byte '0'), packs to '2'."""
    if levels == WORD_LEVELS:
        return bytes(itertools.chain.from_iterable(elements)).translate(_DIGITS)
    digit = {levels[0]: ord("0"), levels[1]: ord("1")}.__getitem__
    return bytes(map(digit, itertools.chain.from_iterable(elements)))


def _base2_reads(digits: bytes, rows: int, columns: Sequence[int]) -> list[int]:
    """The value in base 2 of each of the ``rows`` rows of ``digits`` (ASCII
    0/1) read at the ascending ``columns`` alone, 0 for no column: on packed
    elements, each one's ``product_index`` over those factors alone."""
    if not (rows and columns):
        return [0] * rows
    m, r = len(digits) // rows, len(columns)
    if r < m:
        # the kept columns, interleaved back into rows of r digits
        kept = bytearray(rows * r)
        for t, j in enumerate(columns):
            kept[t::r] = digits[j::m]
        digits, m = kept, r
    return [int(digits[i : i + m], 2) for i in range(0, len(digits), m)]


def product_index(element, levels) -> int:
    """Position of ``element`` in ``itertools.product(levels, repeat=m)``."""
    return _base2_reads(_pack((element,), levels), 1, range(len(element)))[0]


def _unpack(indices: Sequence[int], m: int, levels) -> list[tuple[int, ...]]:
    """The elements at the positions ``indices`` of
    ``itertools.product(levels, repeat=m)``, the inverse of ``_pack`` and
    ``_base2_reads``: every index's m binary digits, translated to the levels
    as bytes (read as signed bytes for RUN_LEVELS, by a "b" array), cut into
    m-tuples by one zip over one iterator, all in C."""
    if not m:
        return [()] * len(indices)
    width = f"0{m}b"
    digits = "".join([format(i, width) for i in indices]).encode().translate(_LEVELS[levels])
    entries = digits if levels == WORD_LEVELS else array.array("b", digits)
    return list(zip(*[iter(entries)] * m))


# -- defining words ------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A defining word x^bits = sign with square-free exponent bits."""

    bits: tuple[int, ...]
    sign: int

    def __post_init__(self):
        # each field is stored as the int (the ints) it equals
        sign = whole(self.sign)
        if sign not in (-1, 1):
            raise InputError("word sign must be +1 or -1")
        if (bits := int_bits(self.bits)) is None:
            raise InputError("word exponents must be 0/1")
        if not any(bits):
            raise InputError("the empty word is not allowed")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "bits", bits)


def regular_design_from_words(m: int, words) -> Design:
    """The regular two-level fraction satisfying every word x^a = c.

    Words must be independent over GF(2); the result has 2^(m-s) runs where s
    is the number of words, at most MAX_REGULAR_RUNS.  Runs are listed in
    ascending lexicographic order with -1 before +1, which matches tabulated
    orthogonal arrays.

    The runs' indices are a coset: in the GF(2) echelon of the signed words
    each row fixes its lead factor by a sign and earlier free factors, so the
    least index sets the leads of the rows of sign -1, and each free factor
    steps by its bit and the leads of the rows holding it.  Doubled from the
    lowest free bit the indices ascend; reversed, they list the runs in order."""
    words = tuple(words)
    for w in words:
        if len(w.bits) != m:
            raise InputError(f"word {w} does not match {m} factors")
    # sign -1 is bit m, first of m+1 places: adding words multiplies signs, and
    # a word left with no factor bit depends on the earlier ones, whatever its sign
    data = (1 << m) - 1
    pivots: dict[int, int] = {}
    for w in words:
        v = (w.sign < 0) << m | product_index(w.bits, WORD_LEVELS)
        if not gf2_insert(pivots, v, data) & data:
            raise RankError("defining words are dependent over GF(2)")
    if m - len(words) >= MAX_REGULAR_RUNS.bit_length():  # 2^(m-k) > the cap
        raise ScaleError(
            f"a fraction of 2^{m - len(words)} runs exceeds the cap of "
            f"{MAX_REGULAR_RUNS}"
        )
    indices = [sum((row >> m) << lead for lead, row in pivots.items())]
    for b in range(m):
        if b not in pivots:
            step = sum((row >> b & 1) << lead for lead, row in pivots.items())
            indices += [i ^ step ^ 1 << b for i in indices]
    return Design(m, 2, tuple(_unpack(indices[::-1], m, RUN_LEVELS)), "pm1")


# -- design ideals -------------------------------------------------------------


def design_ideal(d: Design, order: TermOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the vanishing ideal of the design.

    Prime-level designs with more than two levels must use complex coding so
    that the coefficient field is the cyclotomic extension.  A complex-coded
    design with n(s-1) above ``groebner.MAX_ECHELON_WIDTH`` is a ScaleError,
    raised before the walk.
    """
    _check_ideal(d, order)
    return _design_ideal(d, order)[0]


def est_monomials(d: Design, order: TermOrder) -> tuple[Monomial, ...]:
    """The standard monomials of the design ideal, ascending under ``order``:
    an identifiable set of main and interaction effects, always of size n.
    They are the ones the Buchberger-Moeller walk of :func:`design_ideal`
    found and certified, kept with its basis."""
    _check_ideal(d, order)
    return _design_ideal(d, order)[1]


def _check_ideal(d: Design, order: TermOrder) -> None:
    """Refuse a design of more than two levels that is not complex coded, an
    order over another number of variables, and a complex design whose
    echelon rows would pass ``groebner.MAX_ECHELON_WIDTH``."""
    if d.s > 2 and d.coding != "complex":
        raise InputError(
            "designs with more than two levels need coding=complex for ideals"
        )
    if order.nvars != d.m:
        raise InputError("term order universe does not match the design")
    if d.coding == "complex":
        _check_width(d.n, d.s)


@functools.lru_cache(maxsize=256)
def _design_ideal(d: Design, order: TermOrder):
    """The walk's basis and Est on the validated runs: pm1 runs are the
    points' ints and complex runs their levels, as the walk reads them."""
    return _buchberger_moeller(d.runs, d.ring(), order)


# -- confounding ---------------------------------------------------------------


def _product(columns: Sequence[int], mono) -> int:
    """x^mono's column, the XOR of its factors': 0 if constant +1, all ones if -1."""
    return functools.reduce(operator.xor, itertools.compress(columns, mono), 0)


def is_confounded(a1: Monomial, a2: Monomial, d: Design):
    """+1 or -1 when x^a1 and x^a2 are completely confounded on the design,
    None otherwise.

    Complete confounding is membership of x^a1 -+ x^a2 in the design ideal,
    which holds exactly when x^a1 * x^a2 is constant on the runs, as its
    packed column shows; :func:`algdoe.groebner.ideal_membership` gives the
    same answer with cofactors.
    """
    if d.s != 2:
        raise InputError("confounding analysis is defined for two-level designs")
    a1, a2 = tuple(a1), tuple(a2)
    for mono in (a1, a2):
        if len(mono) != d.m:
            raise InputError("monomial does not match the factor count")
        if int_bits(mono) is None:
            raise InputError("effects are square-free monomials")
    column = _product(d._columns, map(operator.ne, a1, a2))
    return {0: 1, (1 << d.n) - 1: -1}.get(column)


def alias_table(d: Design, max_degree: int = 2):
    """Partition of the square-free monomials of degree <= max_degree into
    complete-confounding classes.

    Each class is a list of (monomial, sign) pairs with the sign taken
    relative to the class representative (lowest degree first, then
    lexicographic); classes are sorted by representative.
    """
    if d.s != 2:
        raise InputError("alias tables are defined for two-level designs")
    max_degree = int_arg("max_degree", max_degree)
    if max_degree < 0:
        raise InputError(f"max_degree must be nonnegative, got {max_degree}")
    columns = d._columns
    ones = (1 << d.n) - 1
    groups: dict[int, list[tuple[Monomial, int]]] = {}
    for mono in _square_free_monomials(d.m, min(max_degree, d.m)):
        column = _product(columns, mono)
        key = min(column, column ^ ones)  # top bit clear: +1 on the first run
        groups.setdefault(key, []).append((mono, 1 if key == column else -1))
    return [
        [(mono, sign * members[0][1]) for mono, sign in members]
        for members in groups.values()
    ]


@functools.lru_cache(maxsize=64)
def _square_free_monomials(m: int, max_degree: int) -> tuple[Monomial, ...]:
    """The square-free monomials in m factors of degree <= max_degree, in
    representative order: combinations lists them so, and the alias classes,
    made in the order of their first members, come out sorted."""
    return tuple(
        tuple(int(j in factors) for j in range(m))
        for degree in range(max_degree + 1)
        for factors in itertools.combinations(range(m), degree)
    )


def factor_ring(m: int) -> PolyRing:
    """The rational polynomial ring in the factor names x1..xm."""
    return PolyRing(f"x{j + 1}" for j in range(m))


def parse_signed_monomial(text: str, m: int) -> tuple[Monomial, int]:
    """Parse a single term ``x1*x3`` or ``-x1*x3`` over x1..xm as its
    exponents and its sign; ``1`` is the empty monomial."""
    terms = factor_ring(m).parse(text).terms
    if len(terms) != 1:
        raise InputError(f"{text.strip()!r} is not a single term")
    ((mono, coeff),) = terms.items()
    if coeff not in (1, -1):
        raise InputError(f"{text.strip()!r} has a coefficient other than 1 or -1")
    return mono, int(coeff)


def parse_monomial(text: str, m: int) -> Monomial:
    """Parse 'x1*x3' style monomials over x1..xm; '1' is the empty monomial."""
    mono, sign = parse_signed_monomial(text, m)
    if sign != 1:
        raise InputError(f"{text.strip()!r} is not a monomial")
    return mono
