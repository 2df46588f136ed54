"""Multivariate division, Buchberger's algorithm, reduced Groebner bases, ideal
membership, vanishing ideals of points by Buchberger-Moeller, and standard
monomials.

Buchberger's algorithm and the binomial completions of the Markov engine keep
their S-pairs in one :class:`_Completion`, by the criteria of Gebauer and
Moeller, and take them smallest lcm under the active order first.  Exceeding
the budget raises a structured :class:`~algdoe.errors.BudgetError` instead of
hanging.  A :class:`_Completion` with no pairs is the package's one lead
index: division, minimalization, the Buchberger-Moeller walk, the staircase
of standard monomials and the Markov reductions all ask it which leading
term divides a monomial.  The Buchberger-Moeller walk returns the standard
monomials it found beside its basis, certified equal to the staircase of the
leads, so a design ideal's Est needs no walk of its own.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from itertools import combinations, compress
from operator import add, and_, le, mul, not_, or_

from .cyclotomic import QQ, Echelon, omega
from .errors import (
    BudgetError,
    InputError,
    NonZeroDimensionalError,
    ScaleError,
    ZeroPolynomialError,
    int_fields,
)
from . import linalg
from .linalg import cleared, column_dots
from .orders import Monomial, TermOrder
from .polynomials import PolyRing, Polynomial, mono_lcm, mono_mul, mono_quot


@dataclass(frozen=True)
class Budget:
    """Resource caps for basis computations."""

    max_pairs: int = 1_000_000
    max_terms: int = 100_000

    def __post_init__(self):
        int_fields(self, "max_pairs", "max_terms")
        for name in ("max_pairs", "max_terms"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative, got {getattr(self, name)}")


DEFAULT_BUDGET = Budget()
MAX_STANDARD_MONOMIALS = 1_000_000
MAX_ECHELON_WIDTH = 512


@dataclass(frozen=True)
class GroebnerBasis:
    order: TermOrder
    elements: tuple[Polynomial, ...]

    @property
    def ring(self) -> PolyRing:
        return self.elements[0].ring

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_monomial(self.order) for g in self.elements]


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """lcm(LT f, LT g)/LT(f) * f  -  lcm(LT f, LT g)/LT(g) * g, exactly."""
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    l = mono_lcm(fm, gm)
    return f.mul_term(mono_quot(l, fm), fc**-1) - g.mul_term(mono_quot(l, gm), gc**-1)


def buchberger(gens, order: TermOrder, budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal generated by ``gens``.

    ``gens`` is an iterable of nonzero polynomials over a common ring.  Each
    generator, smallest leading monomial first, and each S-polynomial is
    divided by the minimal basis, which a nonzero remainder joins; the S-pairs
    are kept by the Gebauer-Moeller criteria and taken smallest lcm first.
    The output is deterministic: inter-reduced, monic, and sorted by ascending
    leading monomial.  A pair budget error reports the pairs made and skipped
    by each criterion and the peak basis size.
    """
    gens = list(gens)
    if not gens:
        raise InputError("no generators given")
    ring = gens[0].ring
    for g in gens:
        if g.is_zero():
            raise ZeroPolynomialError("zero polynomial among generators")
        if g.ring != ring:
            raise InputError("generators over different rings")
    if order.nvars != ring.nvars:
        raise InputError("term order universe does not match the ring")

    completion = _Completion(ring.nvars, order.key, budget.max_pairs)
    elements: list[Polynomial] = []  # monic, numbered as their leads
    div_data: list = []

    def remainder(f: Polynomial) -> dict:
        return _division(f.terms, div_data, completion, order)[0]

    def add(terms: dict):
        g = Polynomial(ring, terms).monic(order)
        lm, lc = g.leading_term(order)
        completion.insert(lm)
        elements.append(g)
        div_data.append((g.terms, lm, lc))

    for g in sorted(gens, key=lambda g: order.key(g.leading_monomial(order))):
        if r := remainder(g):
            add(r)
    while (pair := completion.pop()) is not None:
        i, j, _ = pair
        r = remainder(s_polynomial(elements[i], elements[j], order))
        if not r:
            continue
        if len(r) > budget.max_terms:
            raise BudgetError(f"term budget exceeded ({len(r)} > {budget.max_terms})")
        add(r)

    minimal = tuple(elements[i] for i in completion.minimal())
    return reduce_basis(GroebnerBasis(order, minimal))


def _members(bits: int):
    """The positions of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _Completion:
    """The leading monomials and S-pairs of one Buchberger completion, and
    the package's one lead index: every "which leading term divides this
    monomial?" is a call to :meth:`divisor`.

    Leads are exponent tuples numbered in the order they were added.  Their
    support bitmasks are stored transposed: ``using[v]`` has bit i set when
    lead i uses variable v, and ``active`` has bit i set while lead i is in
    the minimal basis.  So the leads whose support lies inside that of a
    monomial, the only ones that can divide it, are one OR over its zero
    coordinates away.  Pairs (i, j, lcm of leads i and j) are numbered and
    stored the same way, the live ones in ``live``, and are kept by the
    criteria of Gebauer and Moeller (*J. Symb. Comput.* 6, 1988).
    ``max_pairs`` bounds the pairs made, counted as the size of the minimal
    basis at each insertion; a bare lead index (no :meth:`insert`) needs
    neither it nor ``key``.
    """

    def __init__(self, nvars: int, key=None, max_pairs: int = 0):
        self.key = key
        self.max_pairs = max_pairs
        self.lead = []
        self.using = [0] * nvars
        self.active = 0
        self.pairs = []
        self.live = 0
        self.pairs_using = [0] * nvars
        self.heap = []  # (key of the lcm, pair number)
        self.made = self.coprime = self.chain = self.peak = 0

    def divisor(self, u):
        """The lowest number of a lead of the minimal basis dividing x^u, or
        None."""
        outside = functools.reduce(or_, compress(self.using, map(not_, u)), 0)
        for i in _members(self.active & ~outside):
            if all(map(le, self.lead[i], u)):
                return i
        return None

    def minimal(self) -> list[int]:
        """The numbers of the leads of the minimal basis, ascending."""
        return list(_members(self.active))

    def index(self, lead) -> int:
        """Add ``lead`` to the minimal basis, making no pairs; its number."""
        i = len(self.lead)
        bit = 1 << i
        for v in compress(range(len(lead)), lead):
            self.using[v] |= bit
        self.active |= bit
        self.lead.append(lead)
        return i

    def insert(self, a):
        """Add ``a``, which no lead of the minimal basis divides, update the
        pairs and drop the leads it divides from the minimal basis."""
        lead = self.lead
        size = self.active.bit_count()
        self.made += size
        if self.made > self.max_pairs:
            raise BudgetError(
                f"pair budget exceeded ({self.made} > {self.max_pairs}): "
                f"{self.made} pairs made, {self.coprime} skipped by the coprime "
                f"criterion, {self.chain} by the Gebauer-Moeller criteria, "
                f"peak basis size {self.peak}"
            )
        # leads that share a variable with a, and those whose support
        # contains that of a (candidates for multiples of a)
        sharing = self.active & functools.reduce(or_, compress(self.using, a), 0)
        covering = functools.reduce(and_, compress(self.using, a), self.active)
        h = self.index(a)

        # criterion B: drop a pair (i, j) when a divides its lcm strictly in
        # both of lcm(i, h) and lcm(j, h)
        pairs = self.pairs
        candidates = functools.reduce(and_, compress(self.pairs_using, a), self.live)
        for p in _members(candidates):
            i, j, lcm = pairs[p]
            if (
                all(map(le, a, lcm))
                and tuple(map(max, lead[i], a)) != lcm
                and tuple(map(max, lead[j], a)) != lcm
            ):
                self.live ^= 1 << p
                self.chain += 1

        # new pairs (i, h): those with disjoint leads are skipped by
        # Buchberger's first criterion; of the others, criterion M drops a
        # pair whose lcm is a multiple of another's (of equal lcms it keeps
        # the last).  A coprime pair needs no part in M: its lcm divides that
        # of (k, h) only if lead i divides lead k, and the basis is minimal.
        self.coprime += size - sharing.bit_count()
        lcms = [(tuple(map(max, lead[i], a)), i) for i in _members(sharing)]
        new = sorted((sum(lcm), lcm, i) for lcm, i in lcms)
        kept = []
        for idx, (_, lcm, i) in enumerate(new):
            if (idx + 1 < len(new) and new[idx + 1][1] == lcm) or any(
                all(map(le, k, lcm)) for k in kept
            ):
                self.chain += 1
                continue
            kept.append(lcm)
            p = len(pairs)
            pairs.append((i, h, lcm))
            self.live |= 1 << p
            for v in compress(range(len(lcm)), lcm):
                self.pairs_using[v] |= 1 << p
            heapq.heappush(self.heap, (self.key(lcm), p))

        # leads that a divides leave the minimal basis (their pairs stay)
        for k in _members(covering):
            if all(map(le, a, lead[k])):
                self.active ^= 1 << k
        self.peak = max(self.peak, self.active.bit_count())

    def pop(self):
        """The live pair (i, j, lcm) of smallest key, or None if none is left."""
        while self.heap:
            _, p = heapq.heappop(self.heap)
            if self.live >> p & 1:
                self.live ^= 1 << p
                return self.pairs[p]
        return None


def normal_form(f: Polynomial, divisors, order: TermOrder):
    """Multivariate division of f by an ordered list of divisors.

    Returns ``(remainder, cofactors)`` with
    ``f == sum(cofactors[i] * divisors[i]) + remainder`` holding exactly, and no
    remainder term divisible by any divisor's leading term.  When several
    leading terms divide the current term, the earliest divisor in the list is
    used, which makes the cofactors deterministic.
    """
    div_data, leads = _indexed(f, divisors, order)
    remainder, steps = _division(f.terms, div_data, leads, order)
    # the divided term falls at every step, so no (i, q) comes twice
    cofactors = [{} for _ in div_data]
    for i, q, qc in steps:
        cofactors[i][q] = qc
    ring = f.ring
    return Polynomial(ring, remainder), [Polynomial(ring, c) for c in cofactors]


def _indexed(f: Polynomial, divisors, order: TermOrder):
    """The division data of ``divisors`` and their lead index, after checking
    that each is nonzero and over a ring compatible with f's."""
    divisors = list(divisors)
    for g in divisors:
        if g.is_zero():
            raise ZeroPolynomialError("division by a zero polynomial")
        f._compatible(g)
    div_data = [(g.terms, *g.leading_term(order)) for g in divisors]
    leads = _Completion(f.ring.nvars)
    for _, lm, _ in div_data:
        leads.index(lm)
    return div_data, leads


def _division(fterms: dict, div_data, leads: _Completion, order: TermOrder):
    """Division core over raw term dicts: the remainder and the steps
    ``(i, q, qc)``, each subtracting qc * x^q times divisor i.

    ``div_data`` holds ``(terms, leading_monomial, leading_coeff)`` per
    divisor, numbered as in ``leads``, so repeated callers can precompute
    leading data once.  Each term is divided by the active lead of lowest
    number that divides it.
    """
    key = order.key
    p = dict(fterms)
    remainder: dict = {}
    steps = []
    while p:
        m = max(p, key=key)
        c = p[m]
        i = leads.divisor(m)
        if i is None:
            remainder[m] = c
            del p[m]
            continue
        gterms, gm, gc = div_data[i]
        q = mono_quot(m, gm)
        qc = c * gc**-1
        steps.append((i, q, qc))
        for te, tc in gterms.items():
            e = mono_mul(q, te)
            v = p.get(e)
            d = qc * tc
            v = -d if v is None else v - d
            if v:
                p[e] = v
            else:
                p.pop(e, None)
    return remainder, steps


def reduce_basis(G: GroebnerBasis) -> GroebnerBasis:
    """Monic, auto-reduced, unique representative of a Groebner basis."""
    order = G.order
    elements = [g.monic(order) for g in G.elements]
    elements.sort(key=lambda g: order.key(g.leading_monomial(order)))
    # minimalize: drop any element whose leading term another one divides
    leads = _Completion(G.ring.nvars)
    kept: list[Polynomial] = []
    for g in elements:
        lm = g.leading_monomial(order)
        if leads.divisor(lm) is None:
            leads.index(lm)
            kept.append(g)
    for g in kept:
        kept[0]._compatible(g)
    # tail-reduce each element on the same index, in ascending order, the
    # earlier ones already reduced: a lead divides no monomial below itself,
    # so an element's own lead never divides its tail, and as no lead divides
    # another, one pass leaves every lead fixed
    div_data = [(g.terms, lm, g.terms[lm]) for g, lm in zip(kept, leads.lead)]
    for i, (terms, lm, lc) in enumerate(div_data):
        tail = {e: c for e, c in terms.items() if e != lm}
        div_data[i] = ({lm: lc, **_division(tail, div_data, leads, order)[0]}, lm, lc)
        kept[i] = Polynomial(kept[i].ring, div_data[i][0])
    return GroebnerBasis(order, tuple(kept))


def ideal_membership(f: Polynomial, G: GroebnerBasis):
    """Decide membership of f in the ideal with basis G.

    Returns ``(member, cofactors)``; when ``member`` the cofactors satisfy
    ``f == sum(cofactors[i] * G.elements[i])`` exactly.
    """
    r, cofactors = normal_form(f, G.elements, G.order)
    if r.is_zero():
        return True, cofactors
    return False, None


def point_ideal_intersection(
    points,
    field=QQ,
    var_names=None,
    x_order: TermOrder | None = None,
) -> GroebnerBasis:
    """Vanishing ideal of a finite point set, by the Buchberger-Moeller algorithm.

    ``points`` is a sequence of distinct tuples of field elements.  Monomials
    are visited in increasing ``x_order`` (grevlex by default), each made
    once, from its parent, by the rule of :func:`_staircase`, skipping
    multiples of the leading terms already found, and the vector of each
    one's values on the points is reduced against an exact echelon of the
    values of the standard monomials.  An independent monomial is standard; a
    dependent one ``t`` yields the generator ``t - sum c_s * s`` over standard
    monomials ``s``.  The generators are monic and sorted by ascending leading
    monomial, and are certified as the reduced Groebner basis under
    ``x_order``, which is returned.  The walk is :func:`_buchberger_moeller`,
    which also returns the standard monomials; the design path calls it
    directly on a design's validated runs, so this function is the route for
    points given as field elements.

    Over QQ, an int coordinate is kept as it is and an integral Fraction
    becomes its numerator (:func:`_rational`), so on integer points every
    value vector is an integer vector and the fraction-free
    :class:`~algdoe.linalg.Echelon` eliminates it by cross-multiplication;
    coefficients become Fractions only in the generators.  Over Q(w_s) every
    coordinate must be a power w^k of w (an InputError otherwise), given as
    any element of the field or as a rational equal to one.  Each point is
    read once as its level vector k, the value of x^u there is w^(u.k mod
    s), and the walk and its echelon carry these exponents; the echelon
    eliminates the integer coordinates of each value vector's multiples by
    powers of w, and no root of unity is built.  Rows n(s-1) coordinates
    wide for n points are refused above MAX_ECHELON_WIDTH with a ScaleError.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise InputError("need at least one point")
    if len(set(points)) != len(points):
        raise InputError("duplicate points")
    m = len(points[0])
    if any(len(p) != m for p in points):
        raise InputError("points of unequal dimension")
    if var_names is None:
        var_names = tuple(f"x{j + 1}" for j in range(m))
    if x_order is None:
        x_order = TermOrder.grevlex(m)
    if x_order.nvars != m:
        raise InputError("x_order universe does not match the points")

    if field == QQ:
        coords = [list(map(_rational, p)) for p in points]
    else:
        _check_width(len(points), field.order)
        power = {omega(field.order, k): k for k in range(field.order)}
        coords = [_levels(p, field, power) for p in points]
    return _buchberger_moeller(coords, PolyRing(var_names, field), x_order)[0]


def _buchberger_moeller(points, ring: PolyRing, x_order: TermOrder):
    """The certified reduced Groebner basis of the vanishing ideal of
    ``points`` and its standard monomials, ascending under ``x_order``.

    ``points`` are distinct, of the ring's dimension, in the form the walk
    reads: over QQ, ints or Fractions (an integral one already its
    numerator); over Q(w_s), the level vectors k of the points w^k, within
    MAX_ECHELON_WIDTH.  The heap pops monomials in ascending
    ``x_order.key``, since a candidate's key exceeds its parent's, so the
    standard monomials are found in the order :func:`standard_monomials`
    sorts by, and the certificate proves them equal to the staircase of the
    leading terms: they are the basis's Est, with no walk of their own.
    Over QQ the value vectors go into :class:`~algdoe.linalg.Echelon`, and
    over Q(w_s), as the exponents e of their values w^e, into
    :class:`~algdoe.cyclotomic.Echelon`; either returns a dependent
    monomial's relation, which with the monomial itself is its generator.
    """
    field = ring.field
    m = ring.nvars
    ech = linalg.Echelon() if field == QQ else Echelon(field.order)
    one, times = _value_rule(field, points)
    key = x_order.key
    est: list[Monomial] = []
    leads = _Completion(m)
    gens: list[Polynomial] = []
    start = (0,) * m
    # (key, candidate, its last variable, its values on the points); keys of
    # distinct monomials never tie, so the values are never compared
    heap = [(key(start), start, 0, [one] * len(points))]
    while heap:
        _, t, last, vec = heapq.heappop(heap)
        if leads.divisor(t) is not None:
            continue
        relation = ech.insert(vec, t)
        if relation is not None:
            relation[t] = field.one
            leads.index(t)
            gens.append(Polynomial(ring, relation))
            continue
        est.append(t)
        # as in _staircase, each candidate is pushed once, by its parent
        for j in range(last, m):
            u = t[:j] + (t[j] + 1,) + t[j + 1 :]
            heapq.heappush(heap, (key(u), u, j, times(vec, j)))
    _certify_vanishing_ideal(gens, est, points, x_order)
    return GroebnerBasis(x_order, tuple(gens)), tuple(est)


def _check_width(n: int, s: int) -> None:
    """Refuse Buchberger-Moeller on n points over Q(w_s) when its echelon
    rows, n(s-1) rational coordinates wide, would pass MAX_ECHELON_WIDTH."""
    if n * (s - 1) > MAX_ECHELON_WIDTH:
        raise ScaleError(
            f"{n} points over Q(w{s}) need echelon rows of n(s-1) = {n * (s - 1)} "
            f"coordinates, more than {MAX_ECHELON_WIDTH}"
        )


def _rational(a):
    """A QQ coordinate as an int where it is integral, so that the values of
    monomials on integer points are computed in integers: an int is kept as
    it is, and anything else is coerced (refusing booleans and non-numbers)
    and, if integral, replaced by its numerator."""
    if type(a) is int:
        return a
    a = QQ.coerce(a)
    return a.numerator if a.denominator == 1 else a


def _levels(point, field, power) -> tuple[int, ...]:
    """The level vector k of a Q(w_s) point (w^k1, ..., w^km), each k read
    off ``power``, the map from w^k to k."""
    try:
        return tuple(power[a] for a in map(field.coerce, point))
    except KeyError:
        shown = ", ".join(map(str, point))
    raise InputError(f"point ({shown}) has a coordinate that is not a power of w{field.order}")


def _value_rule(field, points):
    """The values of 1 on ``points`` and the map from the values of x^u and j
    to those of x^u * x_j.  Over QQ the values are products of coordinates.
    Over Q(w_s) the points are level vectors and a value is the exponent e
    of w^e: x_j adds the level k_j mod s."""
    columns = list(zip(*points))
    if field == QQ:
        return 1, lambda vec, j: list(map(mul, vec, columns[j]))
    s = field.order
    return 0, lambda vec, j: [e % s for e in map(add, vec, columns[j])]


def _certify_vanishing_ideal(gens, est, points, order: TermOrder):
    """Prove that ``gens`` is a Groebner basis of the vanishing ideal I.

    The generators vanish on every point, so their leading terms generate a
    subset of LT(I).  ``est`` is exactly the set of monomials outside the
    leading terms (a walk of that complement, stopped after n monomials,
    returns it), and it has n = dim F[x]/I elements, so the two leading-term
    ideals are equal.

    Each generator's coefficients are scaled by the lcm of their
    denominators, a nonzero integer, and the vanishing is checked in
    integers.  Over QQ, ``points`` are the coordinates, and on int
    coordinates (as :func:`_rational` makes them) a generator is evaluated
    directly.  Over Q(w_s), the generators' field, ``points`` are level
    vectors k, the point being w^k.  There a term c x^u, c = sum c_j w^j,
    is sum c_j w^(j + u.k), so each term adds its cleared coordinates into
    s sums, one per power of w, shifted by u.k mod s.  The generator
    vanishes at the point exactly when all s sums are equal, since
    1 + w + ... + w^(s-1) = 0 is the only rational relation among the
    powers of w for prime s.
    """
    leads = [g.leading_monomial(order) for g in gens]
    n = len(points)
    field = gens[0].ring.field if gens else QQ
    one, times = _value_rule(field, points)
    values = {(0,) * len(points[0]): [one] * n}

    def at(u):
        """The values of x^u on the points, memoized: those of x^u / x_j, x_j
        the first variable of u, times x_j."""
        if u not in values:
            j = next(j for j, e in enumerate(u) if e)
            values[u] = times(at(u[:j] + (u[j] - 1,) + u[j + 1 :]), j)
        return values[u]

    for g in gens:
        if field == QQ:
            coeffs, _ = cleared(g.terms.values())
            total = column_dots(zip(*map(at, g.terms)), coeffs)  # g on the points
            r = next((r for r, t in enumerate(total) if t), None)
        else:
            s = field.order
            flat, _ = cleared([c for a in g.terms.values() for c in a.coords])
            sums = [[0] * s for _ in range(n)]  # per point, per power of w
            for i, e in enumerate(g.terms):
                c = flat[i * (s - 1) : (i + 1) * (s - 1)] + [0]
                for r, k in enumerate(at(e)):
                    # c[j] w^j times w^k lands on w^((j + k) mod s)
                    sums[r] = list(map(add, sums[r], c[-k:] + c[:-k]))
            r = next((r for r, t in enumerate(sums) if len(set(t)) > 1), None)
        if r is not None:
            raise AssertionError(
                f"generator {g!r} does not vanish on the input point {points[r]}"
            )
    if len(est) != n:
        raise AssertionError(
            f"{len(est)} standard monomials for {n} distinct points"
        )
    walk = _staircase(leads, len(points[0]), len(est))
    if walk is None or set(walk) != set(est):
        raise AssertionError(
            "the standard monomials are not the staircase of the leading terms"
        )


def _staircase(leads, nvars: int, limit: int):
    """The monomials that no lead divides, or None if more than ``limit``.

    Canonical generation from 1: a standard s whose last variable is x_l yields
    u = s * x_j for j >= l, so each monomial is reached once, and is kept
    when no lead in the index divides it.
    """
    index = _Completion(nvars)
    for lm in leads:
        index.index(lm)
    one = (0,) * nvars
    walk = [] if one in leads else [(one, 0)]
    for s, last in walk:  # the loop also visits what it appends
        for j in range(last, nvars):
            u = s[:j] + (s[j] + 1,) + s[j + 1 :]
            if index.divisor(u) is None:
                walk.append((u, j))
        if len(walk) > limit:
            return None
    return [s for s, _ in walk]


def standard_monomials(G: GroebnerBasis):
    """Monomials outside the leading-term ideal, sorted ascending.

    Requires a zero-dimensional ideal: every variable must appear as a pure
    power among the leading terms.  They are walked from 1, at a cost that
    grows with their number.  More than MAX_STANDARD_MONOMIALS is a ScaleError,
    raised before the walk if the least exponents of the leads imply it.
    """
    leads = G.leading_monomials()
    powers = {j for lm in leads for j, e in enumerate(lm) if e and e == sum(lm)}
    missing = [name for j, name in enumerate(G.ring.names) if j not in powers]
    if missing:
        raise NonZeroDimensionalError(
            f"no pure power of {', '.join(missing)} among the leading terms"
        )
    # every lead but 1 reaches d_j, the least positive exponent of x_j among
    # the leads, at some x_j, so the monomials below every d_j are standard
    cap = MAX_STANDARD_MONOMIALS
    box = 1 if all(map(any, leads)) else 0
    for j in range(G.ring.nvars):
        if box <= cap:
            box *= min(lm[j] for lm in leads if lm[j])
    out = _staircase(leads, G.ring.nvars, cap) if box <= cap else None
    if out is None:
        raise ScaleError(f"more than {cap} standard monomials")
    out.sort(key=G.order.key)
    return tuple(out)


def spolynomials_reduce_to_zero(G: GroebnerBasis) -> bool:
    """Certifying self-check: every S-polynomial of the basis reduces to zero."""
    indexed = None  # built at the first nonzero S-polynomial, checked against it
    for f, g in combinations(G.elements, 2):
        s = s_polynomial(f, g, G.order)
        if s:
            indexed = indexed or _indexed(s, G.elements, G.order)
            if _division(s.terms, *indexed, G.order)[0]:
                return False
    return True
