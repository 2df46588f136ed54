"""Buchberger's algorithm, reduced Groebner bases, ideal membership,
elimination, vanishing ideals of points by Buchberger-Moeller, and standard
monomials.

The pair queue follows the normal strategy (smallest lcm under the active
order, ties by index), with Buchberger's coprime criterion always on and the
chain criterion behind a flag.  Exceeding the configured budget raises a
structured :class:`~algdoe.errors.BudgetError` instead of hanging.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .cyclotomic import QQ, Echelon
from .errors import (
    BudgetError,
    InputError,
    NonZeroDimensionalError,
    OrderMismatchError,
    ScaleError,
    ZeroPolynomialError,
)
from .orders import Monomial, TermOrder
from .polynomials import (
    PolyRing,
    Polynomial,
    _division,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quot,
    normal_form,
)


@dataclass(frozen=True)
class Budget:
    """Resource caps for basis computations."""

    max_pairs: int = 1_000_000
    max_terms: int = 100_000


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class IdealPresentation:
    """An ideal given by a finite list of nonzero generators."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.generators:
            raise InputError("an ideal presentation needs at least one generator")
        for g in self.generators:
            if g.is_zero():
                raise ZeroPolynomialError("zero generator in ideal presentation")
            if g.ring != self.ring:
                raise InputError("generator ring does not match the presentation ring")


@dataclass(frozen=True)
class GroebnerBasis:
    order: TermOrder
    elements: tuple[Polynomial, ...]
    reduced: bool = False

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


def buchberger(
    gens,
    order: TermOrder,
    budget: Budget = DEFAULT_BUDGET,
    chain_criterion: bool = True,
) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal generated by ``gens``.

    ``gens`` may be an :class:`IdealPresentation` or an iterable of nonzero
    polynomials over a common ring.  The output is deterministic: pairs are
    selected by smallest lcm, and the final basis is inter-reduced, monic, and
    sorted by ascending leading monomial.
    """
    if isinstance(gens, IdealPresentation):
        gens = gens.generators
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

    key = order.key
    basis: list[Polynomial] = []
    lead: list[Monomial] = []
    div_data: list = []
    heap: list = []
    done: set[tuple[int, int]] = set()
    pairs_generated = 0

    def push_pairs(j: int):
        nonlocal pairs_generated
        for i in range(j):
            l = mono_lcm(lead[i], lead[j])
            heapq.heappush(heap, (key(l), i, j))
        pairs_generated += j
        if pairs_generated > budget.max_pairs:
            raise BudgetError(
                f"pair budget exceeded ({pairs_generated} > {budget.max_pairs})"
            )

    def add(poly: Polynomial):
        monic = poly.monic(order)
        lm, lc = monic.leading_term(order)
        basis.append(monic)
        lead.append(lm)
        div_data.append((monic.terms, lm, lc))
        push_pairs(len(basis) - 1)

    for g in gens:
        add(g)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        li, lj = lead[i], lead[j]
        l = mono_lcm(li, lj)
        # coprime criterion: disjoint leading supports reduce to zero
        if l == mono_mul(li, lj):
            continue
        if chain_criterion and _chain_redundant(i, j, l, lead, done):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        if s.is_zero():
            continue
        rterms, _ = _division(s.terms, div_data, order)
        if not rterms:
            continue
        if len(rterms) > budget.max_terms:
            raise BudgetError(
                f"term budget exceeded ({len(rterms)} > {budget.max_terms})"
            )
        add(Polynomial(ring, rterms))

    return reduce_basis(GroebnerBasis(order, tuple(basis), reduced=False))


def _chain_redundant(i, j, l, lead, done):
    for k, lk in enumerate(lead):
        if k == i or k == j:
            continue
        if mono_divides(lk, l):
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                return True
    return False


def reduce_basis(G: GroebnerBasis) -> GroebnerBasis:
    """Monic, auto-reduced, unique representative of a Groebner basis."""
    order = G.order
    key = order.key
    elements = [g.monic(order) for g in G.elements]
    elements.sort(key=lambda g: key(g.leading_monomial(order)))
    # minimalize: drop any element whose leading term another one divides
    kept: list[Polynomial] = []
    kept_lm: list[Monomial] = []
    for g in elements:
        lm = g.leading_monomial(order)
        if any(mono_divides(m, lm) for m in kept_lm):
            continue
        kept.append(g)
        kept_lm.append(lm)
    # tail-reduce each element against the others until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1 :]
            r, _ = normal_form(kept[i], others, order)
            r = r.monic(order)
            if r.terms != kept[i].terms:
                kept[i] = r
                changed = True
    kept.sort(key=lambda g: key(g.leading_monomial(order)))
    return GroebnerBasis(order, tuple(kept), reduced=True)


def ideal_membership(f: Polynomial, G: GroebnerBasis):
    """Decide membership of f in the ideal with basis G.

    Returns ``(member, cofactors)``; when ``member`` the cofactors satisfy
    ``f == sum(cofactors[i] * G.elements[i])`` exactly.
    """
    r, cofactors = normal_form(f, G.elements, G.order)
    if r.is_zero():
        return True, cofactors
    return False, None


def eliminate(G: GroebnerBasis, drop) -> IdealPresentation:
    """Restrict a Groebner basis under an elimination order to the subring
    without the ``drop`` variables; the result generates the elimination ideal."""
    ring = G.ring
    drop_idx = frozenset(
        v if isinstance(v, int) else ring._index[v] for v in drop
    )
    if not drop_idx:
        return IdealPresentation(ring, G.elements)
    if not G.order.eliminates(drop_idx):
        raise OrderMismatchError(
            "the basis order does not eliminate the requested variables"
        )
    keep = [i for i in range(ring.nvars) if i not in drop_idx]
    sub = PolyRing(tuple(ring.names[i] for i in keep), ring.field)
    out = []
    for g in G.elements:
        if any(any(e[i] for i in drop_idx) for e in g.terms):
            continue
        out.append(Polynomial(sub, {tuple(e[i] for i in keep): c
                                    for e, c in g.terms.items()}))
    if not out:
        raise InputError("elimination produced no generators")
    return IdealPresentation(sub, tuple(out))


def point_ideal_intersection(
    points,
    field=QQ,
    var_names=None,
    x_order: TermOrder | None = None,
) -> IdealPresentation:
    """Vanishing ideal of a finite point set, by the Buchberger-Moeller algorithm.

    ``points`` is a sequence of distinct tuples of field elements.  Monomials
    are visited in increasing ``x_order`` (grevlex by default), skipping
    multiples of the leading terms already found, and the vector of each
    one's values on the points is reduced against an exact echelon of the
    values of the standard monomials.  An independent monomial is standard; a
    dependent one ``t`` yields the generator ``t - sum c_s * s`` over standard
    monomials ``s``.  The generators are the reduced Groebner basis, monic and
    sorted by ascending leading monomial, and are certified before returning.
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

    ring = PolyRing(var_names, field)
    coerced = [[field.coerce(a) for a in p] for p in points]
    key = x_order.key
    one = field.one
    ech = Echelon()
    est: list[Monomial] = []
    leads: list[Monomial] = []
    gens: list[Polynomial] = []
    start = (0,) * m
    values = {start: [one] * len(points)}  # candidate -> its values on the points
    heap = [(key(start), start)]
    while heap:
        _, t = heapq.heappop(heap)
        vec = values.pop(t)
        if any(mono_divides(lm, t) for lm in leads):
            continue
        combo = ech.insert(vec, t)
        if combo is not None:
            terms = {s: -c for s, c in combo.items()}
            terms[t] = one
            leads.append(t)
            gens.append(Polynomial(ring, terms))
            continue
        est.append(t)
        for j, u in enumerate(_neighbours(t)):
            if u not in values:
                values[u] = [v * p[j] for v, p in zip(vec, coerced)]
                heapq.heappush(heap, (key(u), u))
    _certify_vanishing_ideal(gens, est, coerced, x_order)
    return IdealPresentation(ring, tuple(gens))


def _neighbours(t: Monomial):
    """x_j * t for each variable x_j, in variable order."""
    return [t[:j] + (t[j] + 1,) + t[j + 1 :] for j in range(len(t))]


def _certify_vanishing_ideal(gens, est, points, order: TermOrder):
    """Prove that ``gens`` is a Groebner basis of the vanishing ideal I.

    The generators vanish on every point, so their leading terms generate a
    subset of LT(I).  ``est`` is exactly the set of monomials outside the
    leading terms (it holds 1, no element is divisible by a leading term, and
    every neighbour x_j * s of an element is in it or divisible by one), and
    it has n = dim F[x]/I elements, so the two leading-term ideals are equal.
    """
    leads = [g.leading_monomial(order) for g in gens]
    for p in points:
        for g in gens:
            if g.evaluate(p):
                raise AssertionError(
                    f"generator {g!r} does not vanish on the input point {p}"
                )
    if len(est) != len(points):
        raise AssertionError(
            f"{len(est)} standard monomials for {len(points)} distinct points"
        )
    staircase = set(est)
    border = {u for s in est for u in _neighbours(s)} - staircase
    if (
        (0,) * len(points[0]) not in staircase
        or any(mono_divides(lm, s) for lm in leads for s in est)
        or not all(any(mono_divides(lm, u) for lm in leads) for u in border)
    ):
        raise AssertionError(
            "the standard monomials are not the staircase of the leading terms"
        )


def standard_monomials(G: GroebnerBasis, cap: int = 1_000_000):
    """Monomials outside the leading-term ideal, sorted ascending.

    Requires a zero-dimensional ideal: every variable must appear as a pure
    power among the leading terms, which bounds the staircase box.
    """
    order = G.order
    nvars = G.ring.nvars
    leads = G.leading_monomials()
    bounds = [None] * nvars
    for lm in leads:
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    if any(b is None for b in bounds):
        missing = [G.ring.names[i] for i, b in enumerate(bounds) if b is None]
        raise NonZeroDimensionalError(
            f"no pure power of {', '.join(missing)} among the leading terms"
        )
    size = 1
    for b in bounds:
        size *= b
        if size > cap:
            raise ScaleError(f"staircase box larger than {cap}")
    out = []
    for e in itertools.product(*(range(b) for b in bounds)):
        if not any(mono_divides(lm, e) for lm in leads):
            out.append(e)
    out.sort(key=order.key)
    return tuple(out)


def spolynomials_reduce_to_zero(G: GroebnerBasis) -> bool:
    """Certifying self-check: every S-polynomial of the basis reduces to zero."""
    elems = G.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            s = s_polynomial(elems[i], elems[j], G.order)
            if s.is_zero():
                continue
            r, _ = normal_form(s, elems, G.order)
            if not r.is_zero():
                return False
    return True
