import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algdoe import (
    Budget,
    BudgetError,
    CoefficientFieldError,
    Design,
    InputError,
    NonZeroDimensionalError,
    PolyRing,
    Polynomial,
    ScaleError,
    TermOrder,
    buchberger,
    cyclotomic_field,
    design_ideal,
    est_monomials,
    ideal_membership,
    omega,
    point_ideal_intersection,
    reduce_basis,
    s_polynomial,
    standard_monomials,
)
from algdoe import cyclotomic, groebner
from algdoe.cyclotomic import CyclotomicNumber
from algdoe.groebner import (
    GroebnerBasis,
    _certify_vanishing_ideal,
    normal_form,
    spolynomials_reduce_to_zero,
)
from conftest import THREE_LEVEL_RUNS

R7 = PolyRing([f"x{i}" for i in range(1, 8)])
LEX7 = TermOrder.lex(7)
GREV7 = TermOrder.grevlex(7)

BASIS_2_7_4 = [f"x{i}^2-1" for i in range(1, 8)] + [
    "x1*x2*x3+1",
    "x1*x4*x5+1",
    "x2*x4*x6+1",
    "x1*x2*x4*x7-1",
]

GB_LEX = {
    "x7^2-1",
    "x6^2-1",
    "x5^2-1",
    "x3+x5*x6",
    "x2+x5*x7",
    "x1+x6*x7",
    "x4-x5*x6*x7",
}

GB_GREVLEX = {f"x{i}^2-1" for i in range(1, 8)} | {
    "x2*x3+x1", "x4*x5+x1", "x6*x7+x1",
    "x1*x3+x2", "x4*x6+x2", "x5*x7+x2",
    "x1*x2+x3", "x4*x7+x3", "x5*x6+x3",
    "x1*x5+x4", "x2*x6+x4", "x3*x7+x4",
    "x1*x4+x5", "x2*x7+x5", "x3*x6+x5",
    "x1*x7+x6", "x2*x4+x6", "x3*x5+x6",
    "x1*x6+x7", "x2*x5+x7", "x3*x4+x7",
}


def parse_gens(texts):
    return [R7.parse(t) for t in texts]


def test_s_polynomial_of_equal_inputs_is_zero():
    f = R7.parse("x1*x2+x3")
    assert s_polynomial(f, f, LEX7).is_zero()


def test_s_polynomial_disjoint_squares():
    f = R7.parse("x1^2-1")
    g = R7.parse("x2^2-1")
    s = s_polynomial(f, g, LEX7)
    assert s == R7.parse("x1^2-x2^2")
    # coprime leading terms: S reduces to zero against {f, g}
    r, _ = normal_form(s, [f, g], LEX7)
    assert r.is_zero()


def test_buchberger_already_groebner():
    gens = parse_gens(["x1^2-1", "x2^2-1"])
    gb = buchberger(gens, LEX7)
    assert {g.text(LEX7) for g in gb.elements} == {"x1^2-1", "x2^2-1"}
    assert reduce_basis(gb).elements == gb.elements


def test_buchberger_l8_lex_matches_published_basis():
    gb = buchberger(parse_gens(BASIS_2_7_4), LEX7)
    assert {g.text(LEX7) for g in gb.elements} == GB_LEX


def test_buchberger_l8_grevlex_matches_published_basis():
    gb = buchberger(parse_gens(BASIS_2_7_4), GREV7)
    assert {g.text(GREV7) for g in gb.elements} == GB_GREVLEX
    assert len(gb.elements) == 28


def test_reduced_basis_invariant_under_permutation_and_scaling():
    rng = random.Random(42)
    gens = parse_gens(BASIS_2_7_4)
    reference = buchberger(gens, LEX7)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for g in shuffled]
        gb = buchberger(scaled, LEX7)
        assert [g.terms for g in gb.elements] == [g.terms for g in reference.elements]


def test_reduce_basis_idempotent_and_recovers_scaling():
    gb = buchberger(parse_gens(BASIS_2_7_4), LEX7)
    again = reduce_basis(gb)
    assert [g.terms for g in again.elements] == [g.terms for g in gb.elements]
    scaled = GroebnerBasis(LEX7, tuple(g * 3 for g in gb.elements))
    assert [g.terms for g in reduce_basis(scaled).elements] == [
        g.terms for g in gb.elements
    ]


def test_reduce_basis_drops_redundant_generator():
    R1 = PolyRing(["x1"])
    lex = TermOrder.lex(1)
    gb = GroebnerBasis(lex, (R1.parse("x1^2-1"), R1.parse("x1^4-1")))
    reduced = reduce_basis(gb)
    assert [g.text(lex) for g in reduced.elements] == ["x1^2-1"]


def test_ideal_membership_certificates():
    gb_lex = buchberger(parse_gens(BASIS_2_7_4), LEX7)
    f = R7.parse("x1*x2+x3")
    member, cofs = ideal_membership(f, gb_lex)
    assert member
    total = R7.zero()
    for c, g in zip(cofs, gb_lex.elements):
        total = total + c * g
    assert total == f

    gb_grev = buchberger(parse_gens(BASIS_2_7_4), GREV7)
    member, _ = ideal_membership(f, gb_grev)
    assert member

    R1 = PolyRing(["x1"])
    gb1 = buchberger([R1.parse("x1^2-1")], TermOrder.lex(1))
    member, cert = ideal_membership(R1.var("x1"), gb1)
    assert not member and cert is None


def test_membership_certificate_matches_worked_cofactors():
    # dividing x1*x2+x3 by the lex basis, largest leading terms first, yields
    # x2*(x1+x6*x7) - x6*x7*(x2+x5*x7) + x5*x6*(x7^2-1) + 1*(x3+x5*x6)
    gb = buchberger(parse_gens(BASIS_2_7_4), LEX7)
    desc = sorted(
        gb.elements, key=lambda g: LEX7.key(g.leading_monomial(LEX7)), reverse=True
    )
    r, cofs = normal_form(R7.parse("x1*x2+x3"), desc, LEX7)
    assert r.is_zero()
    by_divisor = {g.text(LEX7): c for g, c in zip(desc, cofs) if not c.is_zero()}
    assert by_divisor == {
        "x1+x6*x7": R7.parse("x2"),
        "x2+x5*x7": R7.parse("-x6*x7"),
        "x7^2-1": R7.parse("x5*x6"),
        "x3+x5*x6": R7.one(),
    }


def test_normal_form_divides_by_the_earliest_divisor():
    # divisor 2 repeats the lead of divisor 0, and that lead divides the lead
    # of divisor 1: every step must take divisor 0
    divisors = parse_gens(["x1-1", "x1*x2-5", "x1-2"])
    r, cofs = normal_form(R7.parse("x1*x2+x1"), divisors, LEX7)
    assert r == R7.parse("x2+1")
    assert cofs == [R7.parse("x2+1"), R7.zero(), R7.zero()]


def test_eliminate_single_point():
    pres = point_ideal_intersection(
        [(Fraction(1), Fraction(-1), Fraction(1))],
        x_order=TermOrder.lex(3),
    )
    texts = {g.text(TermOrder.lex(3)) for g in pres.elements}
    assert texts == {"x1-1", "x2+1", "x3-1"}


def test_point_intersection_full_factorial():
    import itertools

    points = [
        tuple(Fraction(v) for v in p) for p in itertools.product((-1, 1), repeat=3)
    ]
    order = TermOrder.lex(3)
    pres = point_ideal_intersection(points, x_order=order)
    assert {g.text(order) for g in pres.elements} == {
        "x1^2-1",
        "x2^2-1",
        "x3^2-1",
    }


def test_point_intersection_three_point_variety():
    points = [
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(1), Fraction(-1)),
    ]
    # the internal certificate checks vanishing on the points and |Est| = n
    pres = point_ideal_intersection(points)
    assert all(not g.evaluate(p) for g in pres.elements for p in points)


def test_standard_monomials_fixtures():
    gb_lex = buchberger(parse_gens(BASIS_2_7_4), LEX7)
    sm = standard_monomials(gb_lex)
    names = {frozenset(i for i, e in enumerate(mono) if e) for mono in sm}
    assert names == {
        frozenset(),
        frozenset({4}), frozenset({5}), frozenset({6}),
        frozenset({4, 5}), frozenset({4, 6}), frozenset({5, 6}),
        frozenset({4, 5, 6}),
    }
    gb_grev = buchberger(parse_gens(BASIS_2_7_4), GREV7)
    sm2 = standard_monomials(gb_grev)
    assert set(sm2) == {(0,) * 7} | {
        tuple(1 if i == j else 0 for i in range(7)) for j in range(7)
    }

    R1 = PolyRing(["x1"])
    gb1 = buchberger([R1.parse("x1^2-1")], TermOrder.lex(1))
    assert standard_monomials(gb1) == ((0,), (1,))


def test_standard_monomials_requires_zero_dimensional():
    R2 = PolyRing(["x1", "x2"])
    gb = buchberger([R2.parse("x1^2-1")], TermOrder.lex(2))
    with pytest.raises(NonZeroDimensionalError):
        standard_monomials(gb)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _box_standard_monomials(G):
    """Standard monomials listed from the box of the pure-power leads, every
    monomial of the box tested against every lead: the walk's reference."""
    leads = G.leading_monomials()
    bounds = [
        min(lm[j] for lm in leads if lm[j] and lm[j] == sum(lm))
        for j in range(G.ring.nvars)
    ]
    out = [
        e
        for e in itertools.product(*(range(b) for b in bounds))
        if not any(_divides(lm, e) for lm in leads)
    ]
    return tuple(sorted(out, key=G.order.key))


def _random_order(rng, m):
    kind = rng.choice((TermOrder.lex, TermOrder.grlex, TermOrder.grevlex))
    return kind(m, tuple(rng.sample(range(m), m)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_standard_monomials_match_box_on_design_ideals(seed):
    rng = random.Random(seed)
    if rng.random() < 0.6:
        m, s, coding = rng.randint(1, 5), 2, "pm1"
        pool = list(itertools.product((-1, 1), repeat=m))
    else:
        m, s, coding = rng.randint(1, 3), 3, "complex"
        pool = list(itertools.product(range(3), repeat=m))
    runs = rng.sample(pool, rng.randint(1, len(pool)))
    G = design_ideal(Design(m, s, tuple(runs), coding), _random_order(rng, m))
    est = standard_monomials(G)
    assert est == _box_standard_monomials(G)
    assert len(est) == len(runs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_standard_monomials_match_box_on_buchberger_outputs(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    R = PolyRing([f"x{i}" for i in range(1, m + 1)])
    # a pure power in every variable keeps the ideal zero-dimensional
    gens = [
        R.monomial(tuple(rng.randint(1, 3) * (j == i) for j in range(m)))
        - R.const(rng.randint(0, 1))
        for i in range(m)
    ]
    for _ in range(rng.randint(0, 2)):
        terms = rng.sample(list(itertools.product(range(3), repeat=m))[1:], 2)
        gens.append(R.monomial(terms[0]) - R.monomial(terms[1]) * rng.choice((1, -1)))
    G = buchberger([g for g in gens if not g.is_zero()], _random_order(rng, m))
    if any(lm == (0,) * m for lm in G.leading_monomials()):
        with pytest.raises(NonZeroDimensionalError):
            standard_monomials(G)
        return
    assert standard_monomials(G) == _box_standard_monomials(G)


def test_standard_monomials_cap_raises_scale_error():
    # the staircase of 21 pure squares has 2^21 monomials
    R = PolyRing([f"x{i}" for i in range(1, 22)])
    G = GroebnerBasis(
        TermOrder.grevlex(21),
        tuple(R.parse(f"x{i}^2-1") for i in range(1, 22)),
    )
    with pytest.raises(ScaleError, match="1000000"):
        standard_monomials(G)


def test_standard_monomials_cap_refuses_before_the_walk(monkeypatch):
    # every monomial below x1..x21 is standard: 2^21 of them, known from the
    # least exponents of the leads alone
    from algdoe import groebner

    def walk(*args):
        raise AssertionError("the staircase was walked")

    monkeypatch.setattr(groebner, "_staircase", walk)
    R = PolyRing([f"x{i}" for i in range(1, 22)])
    G = GroebnerBasis(
        TermOrder.grevlex(21),
        tuple(R.parse(f"x{i}^2-1") for i in range(1, 22)),
    )
    with pytest.raises(ScaleError, match="more than 1000000 standard monomials"):
        standard_monomials(G)


def test_standard_monomials_cap_stops_in_the_walk(monkeypatch):
    # x1*x2*x3 makes every least exponent 1, so the bound is 1 and only the
    # walk finds the 27 - 8 = 19 standard monomials
    from algdoe import groebner

    R = PolyRing(["x1", "x2", "x3"])
    G = GroebnerBasis(
        TermOrder.grevlex(3),
        tuple(R.parse(f) for f in ("x1^3", "x2^3", "x3^3", "x1*x2*x3")),
    )
    assert len(standard_monomials(G)) == 19
    walks = []
    staircase = groebner._staircase

    def walk(*args):
        walks.append(args)
        return staircase(*args)

    monkeypatch.setattr(groebner, "_staircase", walk)
    monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", 10)
    with pytest.raises(ScaleError, match="more than 10 standard monomials"):
        standard_monomials(G)
    assert len(walks) == 1


def _certificate_inputs(d):
    points = d.points()
    G = point_ideal_intersection(points, x_order=GREV7)
    return list(G.elements), list(standard_monomials(G)), points


def test_certificate_rejects_est_with_a_border_monomial(l8):
    gens, est, points = _certificate_inputs(l8)
    _certify_vanishing_ideal(gens, est, points, GREV7)
    # a leading term is a border monomial: it is outside the staircase
    est[-1] = gens[0].leading_monomial(GREV7)
    with pytest.raises(AssertionError, match="staircase"):
        _certify_vanishing_ideal(gens, est, points, GREV7)


def test_certificate_rejects_leads_without_a_pure_power(l8):
    gens, est, points = _certificate_inputs(l8)
    # without x7^2 - 1 the leads leave x7^k standard for every k: the walk
    # must stop at n monomials
    square = (0,) * 6 + (2,)
    kept = [g for g in gens if g.leading_monomial(GREV7) != square]
    assert len(kept) == len(gens) - 1
    with pytest.raises(AssertionError, match="staircase"):
        _certify_vanishing_ideal(kept, est, points, GREV7)


def _with_tail_coefficient_changed(g, order, delta=1):
    lead = g.leading_monomial(order)
    tail = max((e for e in g.terms if e != lead), key=order.key)
    terms = dict(g.terms)
    terms[tail] = terms[tail] + delta
    return Polynomial(g.ring, terms)


def test_certificate_rejects_a_generator_that_does_not_vanish(l8):
    gens, est, points = _certificate_inputs(l8)
    gens[0] = _with_tail_coefficient_changed(gens[0], GREV7)
    with pytest.raises(AssertionError, match="does not vanish on the input point"):
        _certify_vanishing_ideal(gens, est, points, GREV7)


def test_certificate_rejects_a_change_of_two_to_the_minus_61(l8):
    # the check scales each generator by the lcm of its denominators and
    # evaluates in integers; the scale must carry the perturbation along
    gens, est, points = _certificate_inputs(l8)
    for i in range(len(gens)):
        bad = list(gens)
        bad[i] = _with_tail_coefficient_changed(gens[i], GREV7, Fraction(1, 2**61))
        with pytest.raises(AssertionError, match="does not vanish on the input point"):
            _certify_vanishing_ideal(bad, est, points, GREV7)


def test_certificate_on_rational_points_with_denominators():
    points = [
        (Fraction(1, 3), Fraction(2)),
        (Fraction(-1, 2), Fraction(5, 7)),
        (Fraction(4), Fraction(-3, 11)),
        (Fraction(2, 9), Fraction(1, 2**61)),
        (Fraction(0), Fraction(0)),
    ]
    order = TermOrder.grevlex(2)
    G = point_ideal_intersection(points, x_order=order)
    gens, est = list(G.elements), list(standard_monomials(G))
    assert all(max(c.denominator for c in g.terms.values()) > 1 for g in gens)
    _certify_vanishing_ideal(gens, est, points, order)
    for i in range(len(gens)):
        for delta in (Fraction(1, 2**61), Fraction(-1, 3)):
            bad = list(gens)
            bad[i] = _with_tail_coefficient_changed(gens[i], order, delta)
            with pytest.raises(AssertionError, match="does not vanish on the input point"):
                _certify_vanishing_ideal(bad, est, points, order)


def test_certificate_rejects_a_complex_generator_that_does_not_vanish(
    three_level_complex,
):
    order = TermOrder.grevlex(3)
    points = three_level_complex.runs  # over Q(w_s) the certificate reads levels
    G = design_ideal(three_level_complex, order)
    gens, est = list(G.elements), list(standard_monomials(G))
    _certify_vanishing_ideal(gens, est, points, order)
    gens[-1] = _with_tail_coefficient_changed(gens[-1], order)
    with pytest.raises(AssertionError, match="does not vanish on the input point"):
        _certify_vanishing_ideal(gens, est, points, order)


# the L9 over Q(w3), the Q(w5) design of the golden CLI cases, and a Q(w7) design
COMPLEX_DESIGNS = [
    Design(3, 3, THREE_LEVEL_RUNS, "complex"),
    Design(2, 5, ((0, 0), (1, 1), (2, 3), (4, 2)), "complex"),
    Design(2, 7, ((0, 0), (0, 3), (1, 5), (2, 2), (4, 6), (6, 1)), "complex"),
]
COMPLEX_CASES = [
    (d, order(d.m)) for d in COMPLEX_DESIGNS for order in (TermOrder.lex, TermOrder.grevlex)
]


def _complex_certificate_inputs(d, order):
    G = design_ideal(d, order)
    return list(G.elements), list(standard_monomials(G)), d.runs


@pytest.mark.parametrize("d, order", COMPLEX_CASES)
def test_complex_certificate_rejects_every_perturbed_coordinate(d, order):
    # each w-coordinate of each coefficient, the leading one included, moved by
    # a tiny and by a plain fraction: the cleared integer sums must see both
    gens, est, points = _complex_certificate_inputs(d, order)
    _certify_vanishing_ideal(gens, est, points, order)
    cases = 0
    for i, g in enumerate(gens):
        for e, c in g.terms.items():
            for j in range(d.s - 1):
                for delta in (Fraction(1, 2**61), Fraction(-1, 3)):
                    coords = list(c.coords)
                    coords[j] += delta
                    bad = list(gens)
                    changed = CyclotomicNumber(d.s, tuple(coords))
                    bad[i] = Polynomial(g.ring, {**g.terms, e: changed})
                    with pytest.raises(AssertionError, match="does not vanish on the input point"):
                        _certify_vanishing_ideal(bad, est, points, order)
                    cases += 1
    assert cases >= 2 * (d.s - 1) * len(gens)


@pytest.mark.parametrize("d, order", COMPLEX_CASES)
def test_complex_certificate_names_the_point_where_a_generator_fails(d, order):
    # the generators of the design's ideal vanish on its runs and on no other
    # point, so appended last, an outside point is the one the check names
    gens, est, points = _complex_certificate_inputs(d, order)
    outside = next(p for p in itertools.product(range(d.s), repeat=d.m) if p not in points)
    with pytest.raises(AssertionError, match=re.escape(f"input point {outside}")):
        _certify_vanishing_ideal(gens, est, points + (outside,), order)


@pytest.mark.parametrize("d, order", COMPLEX_CASES)
def test_complex_certificate_rejects_est_with_a_border_monomial(d, order):
    gens, est, points = _complex_certificate_inputs(d, order)
    est[-1] = gens[0].leading_monomial(order)
    with pytest.raises(AssertionError, match="staircase"):
        _certify_vanishing_ideal(gens, est, points, order)


@pytest.mark.parametrize(
    "s, coordinate",
    [(3, 0), (3, -1), (3, Fraction(1, 2)), (3, omega(3, 1) + 1), (5, omega(5, 2) * 2), (7, 2)],
)
def test_complex_points_must_be_powers_of_omega(s, coordinate):
    points = [(omega(s, 0), omega(s, 1)), (omega(s, 1), coordinate)]
    shown = f"point (w, {coordinate}) has a coordinate that is not a power of w{s}"
    with pytest.raises(InputError, match=re.escape(shown)):
        point_ideal_intersection(points, field=cyclotomic_field(s))


def test_complex_points_may_be_given_as_rationals_or_any_power():
    # 1 = w^0, w^(s+1) = w; over Q(w2), -1 = w
    G = point_ideal_intersection(
        [(1, omega(5, 6)), (omega(5, 4), omega(5, 0))], field=cyclotomic_field(5)
    )
    assert G == point_ideal_intersection(
        [(omega(5, 0), omega(5, 1)), (omega(5, 4), omega(5, 0))], field=cyclotomic_field(5)
    )
    G = point_ideal_intersection([(1,), (-1,)], field=cyclotomic_field(2))
    assert [g.text(G.order) for g in G.elements] == ["x1^2-1"]


def test_wide_complex_echelon_is_refused_before_any_point(monkeypatch):
    def called(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(Design, "points", called)
    monkeypatch.setattr(cyclotomic, "omega", called)
    monkeypatch.setattr(groebner, "omega", called)
    d = Design(1, 10000019, ((0,), (1,)), "complex")
    with pytest.raises(
        ScaleError, match=r"^2 points over Q\(w10000019\) .* n\(s-1\) = 20000036 .* more than 512$"
    ):
        design_ideal(d, TermOrder.grevlex(1))


def test_echelon_width_bound_is_inclusive(monkeypatch):
    # the CI's Q(w5) design has n(s-1) = 16, on the direct route too
    d = COMPLEX_DESIGNS[1]
    monkeypatch.setattr(groebner, "MAX_ECHELON_WIDTH", 16)
    assert len(point_ideal_intersection(d.points(), field=d.field()).elements) == 3
    monkeypatch.setattr(groebner, "MAX_ECHELON_WIDTH", 15)
    with pytest.raises(ScaleError, match="n\\(s-1\\) = 16 coordinates, more than 15"):
        point_ideal_intersection(d.points(), field=d.field())
    with pytest.raises(ScaleError, match="more than 15"):
        design_ideal(Design(2, 5, d.runs[:3] + ((3, 3),), "complex"), TermOrder.lex(2))


def _complex_corpus():
    """300 seeded complex-coded designs over Q(w3), Q(w5) and Q(w7), each
    under lex, grevlex or a two-block order."""
    rng = random.Random(2026)
    sizes = {3: ((2, 3), 20), 5: ((2, 2), 12), 7: ((2, 2), 10)}
    for i in range(300):
        s = (3, 5, 7)[i % 3]
        (lo, hi), most = sizes[s]
        m = rng.randint(lo, hi)
        pool = list(itertools.product(range(s), repeat=m))
        runs = tuple(sorted(rng.sample(pool, rng.randint(1, min(len(pool), most)))))
        h = m // 2
        order = (
            TermOrder.lex(m),
            TermOrder.grevlex(m),
            TermOrder.block([(range(h), "grevlex"), (range(h, m), "grevlex")]),
        )[i // 3 % 3]
        yield Design(m, s, runs, "complex"), order


def test_complex_design_ideal_corpus_is_unchanged():
    # the digest was taken with the generators computed and certified in the
    # field; every tenth ideal is also checked here by field evaluation
    digest = hashlib.sha256()
    for i, (d, order) in enumerate(_complex_corpus()):
        G = design_ideal(d, order)
        for g in G.elements:
            digest.update(f"{g!r}\n{g.text(order)}\n".encode())
        est = est_monomials(d, order)
        digest.update(f"{est!r}\n".encode())
        if i % 10 == 0:
            assert all(not g.evaluate(p) for g in G.elements for p in d.points())
            assert len(est) == d.n
    assert digest.hexdigest() == (
        "b21fb6fa1d056f38734191198d8153817417034471ab5bd04299375742a2a89a"
    )


def test_certifying_self_check():
    gb = buchberger(parse_gens(BASIS_2_7_4), GREV7)
    assert spolynomials_reduce_to_zero(gb)
    # the S-polynomial x1*x2*x3 - x2 of these two does not reduce to zero
    not_groebner = GroebnerBasis(LEX7, tuple(parse_gens(["x1^2-1", "x1*x2*x3+x2"])))
    assert not spolynomials_reduce_to_zero(not_groebner)


def test_budget_error():
    with pytest.raises(BudgetError):
        buchberger(parse_gens(BASIS_2_7_4), LEX7, budget=Budget(max_pairs=3))


def test_term_budget_error():
    # the S-polynomial of x1^2-1 and x1*x2-1 has the remainder x2-x1, two terms
    with pytest.raises(BudgetError, match=re.escape("term budget exceeded (2 > 1)")):
        buchberger(parse_gens(["x1^2-1", "x1*x2-1"]), LEX7, budget=Budget(max_terms=1))
    assert len(buchberger(parse_gens(["x1^2-1", "x1*x2-1"]), LEX7, Budget(max_terms=2)).elements) == 2


def test_budget_error_reports_pair_counts():
    with pytest.raises(BudgetError) as exc:
        buchberger(parse_gens(BASIS_2_7_4), LEX7, budget=Budget(max_pairs=60))
    assert re.fullmatch(
        r"pair budget exceeded \((\d+) > 60\): \1 pairs made, \d+ skipped by the "
        r"coprime criterion, \d+ by the Gebauer-Moeller criteria, peak basis size \d+",
        str(exc.value),
    )


def test_rejects_zero_generator():
    with pytest.raises(Exception):
        buchberger([R7.zero()], LEX7)
    with pytest.raises(InputError):
        point_ideal_intersection(
            [(Fraction(1),), (Fraction(1),)], var_names=("x1",)
        )


def _basis_items(G):
    return [[(mono, type(c), c) for mono, c in g.terms.items()] for g in G.elements]


def test_int_fraction_and_mixed_coordinates_give_one_basis():
    # an int coordinate is kept as it is and an integral Fraction becomes its
    # numerator, so the three spellings of one point set give the same
    # generators, term order and coefficient types included
    rng = random.Random(4040)
    values = [Fraction(v, d) for v in range(-3, 4) for d in (1, 1, 1, 2, 3)]
    for _ in range(200):
        m = rng.randint(1, 3)
        cells = list({tuple(rng.choice(values) for _ in range(m)) for _ in range(rng.randint(1, 7))})
        order = rng.choice([TermOrder.grevlex(m), TermOrder.lex(m)])
        ints = [tuple(int(a) if a.denominator == 1 else a for a in p) for p in cells]
        mixed = [tuple(a if rng.random() < 0.5 else b for a, b in zip(p, q))
                 for p, q in zip(cells, ints)]
        expected = _basis_items(point_ideal_intersection(cells, x_order=order))
        for points in (ints, mixed):
            assert _basis_items(point_ideal_intersection(points, x_order=order)) == expected


@pytest.mark.parametrize(
    "coordinate, message",
    [(True, "booleans are not field elements"), (False, "booleans are not field elements"),
     (1.0, "cannot coerce 1.0 into QQ"), (0.5, "cannot coerce 0.5 into QQ")],
)
def test_rational_points_refuse_booleans_and_floats(coordinate, message):
    with pytest.raises(CoefficientFieldError, match=f"^{re.escape(message)}$"):
        point_ideal_intersection([(2, Fraction(1, 3)), (coordinate, 1)])


# -- the reduction and division of the earlier release, kept as references ----


def _reference_division(f, divisors, order):
    """Divide f by ``divisors``, each term by the earliest divisor whose lead
    divides it, adding each quotient term into the cofactors as it goes."""
    leads = [g.leading_term(order) for g in divisors]
    p = dict(f.terms)
    remainder = {}
    cofactors = [{} for _ in divisors]
    while p:
        m = max(p, key=order.key)
        c = p[m]
        i = next((i for i, (lm, _) in enumerate(leads) if _divides(lm, m)), None)
        if i is None:
            remainder[m] = c
            del p[m]
            continue
        gm, gc = leads[i]
        q = tuple(a - b for a, b in zip(m, gm))
        qc = c * gc**-1
        cof = cofactors[i]
        v = cof.get(q)
        v = qc if v is None else v + qc
        if v:
            cof[q] = v
        else:
            cof.pop(q, None)
        for te, tc in divisors[i].terms.items():
            e = tuple(a + b for a, b in zip(q, te))
            v = p.get(e, 0) - qc * tc
            if v:
                p[e] = v
            else:
                p.pop(e, None)
    ring = f.ring
    return Polynomial(ring, remainder), [Polynomial(ring, c) for c in cofactors]


def _reference_reduce_basis(G):
    """Minimalize, then divide each kept element, in ascending order, by all
    the others, the earlier ones already reduced."""
    order = G.order
    elements = sorted(
        (g.monic(order) for g in G.elements),
        key=lambda g: order.key(g.leading_monomial(order)),
    )
    kept = []
    for g in elements:
        lm = g.leading_monomial(order)
        if not any(_divides(k.leading_monomial(order), lm) for k in kept):
            kept.append(g)
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1 :]
        kept[i] = _reference_division(kept[i], others, order)[0].monic(order)
    return GroebnerBasis(order, tuple(kept))


REFERENCE_ORDERS = {
    "lex": TermOrder.lex(3),
    "grevlex": TermOrder.grevlex(3),
    "block": TermOrder.block([((2,), "grevlex"), ((0, 1), "lex")]),
}


def _random_coefficient(rng, field):
    if field is None:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return CyclotomicNumber(field.order, (rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)))


def _random_nonzero(rng, field):
    while not (c := _random_coefficient(rng, field)):
        pass
    return c


def _random_polynomial(rng, ring, terms):
    field = None if ring.field == cyclotomic.QQ else ring.field
    return ring.poly(
        {
            tuple(rng.randint(0, 2) for _ in range(ring.nvars)): _random_coefficient(rng, field)
            for _ in range(terms)
        }
    )


def _perturbed(rng, G):
    """G scaled, with multiples of earlier elements added to later tails,
    with redundant elements added, and shuffled: a basis of the same ideal
    whose reduced basis is G's."""
    order = G.order
    field = None if G.ring.field == cyclotomic.QQ else G.ring.field
    elements = [g * _random_nonzero(rng, field) for g in G.elements]
    for j in range(1, len(elements)):
        lead = order.key(elements[j].leading_monomial(order))
        i = rng.randrange(j)
        u = tuple(rng.randint(0, 1) for _ in range(G.ring.nvars))
        h = elements[i].mul_term(u, _random_nonzero(rng, field))
        if order.key(h.leading_monomial(order)) < lead:
            elements[j] = elements[j] + h
    for _ in range(rng.randint(1, 3)):
        u = tuple(rng.randint(0, 1) for _ in range(G.ring.nvars))
        extra = rng.choice(elements).mul_term(u, _random_nonzero(rng, field))
        extra += rng.choice(elements) * _random_nonzero(rng, field)
        if extra:
            elements.append(extra)
    rng.shuffle(elements)
    return GroebnerBasis(order, tuple(elements))


def _loose_basis(rng, ring, order):
    """Up to seven polynomials whose leads divide no other lead, their tails
    mostly multiples of lower leads: in general no Groebner basis, so what a
    tail reduces to depends on which divisors reduce it."""
    field = None if ring.field == cyclotomic.QQ else ring.field
    box = list(itertools.product(range(4), repeat=3))
    leads = []
    for e in rng.sample(box, len(box)):
        if 0 < sum(e) <= 4 and len(leads) < 7:
            if not any(_divides(lead, e) or _divides(e, lead) for lead in leads):
                leads.append(e)
    elements = []
    for lead in leads:
        below = [e for e in box if order.key(e) < order.key(lead)]
        multiples = [e for e in below if any(_divides(other, e) for other in leads)]
        terms = {lead: _random_nonzero(rng, field)}
        for _ in range(rng.randint(2, 4)):
            pool = multiples if multiples and rng.random() < 0.7 else below
            if pool:
                terms[rng.choice(pool)] = _random_nonzero(rng, field)
        elements.append(ring.poly(terms))
    rng.shuffle(elements)
    return GroebnerBasis(order, tuple(elements))


def _reference_cases(field, order, seed):
    """A design ideal on random points, perturbed, and a loose basis."""
    rng = random.Random(seed)
    if field is None:
        cells = rng.sample(list(itertools.product((-1, 1), repeat=3)), rng.randint(2, 7))
        G = point_ideal_intersection([tuple(map(Fraction, c)) for c in cells], x_order=order)
    else:
        cells = rng.sample(list(itertools.product(range(3), repeat=3)), rng.randint(2, 12))
        points = [tuple(omega(3, k) for k in c) for c in cells]
        G = point_ideal_intersection(points, field=field, x_order=order)
    return G, _perturbed(rng, G), _loose_basis(rng, G.ring, order)


@pytest.mark.parametrize("field", [None, cyclotomic_field(3)], ids=["QQ", "QQw3"])
@pytest.mark.parametrize("order", list(REFERENCE_ORDERS.values()), ids=list(REFERENCE_ORDERS))
def test_reduce_basis_matches_the_per_element_reference(field, order):
    # 6 x 20 seeds x 2 bases: 240 bases, half of them loose; on a Groebner
    # basis the reduced basis is unique, so only the loose ones tell which
    # divisors each tail was reduced by
    for seed in range(20):
        G, perturbed, loose = _reference_cases(field, order, seed)
        for basis in (perturbed, loose):
            got = reduce_basis(basis)
            want = _reference_reduce_basis(basis)
            assert [g.terms for g in got.elements] == [g.terms for g in want.elements], seed
        assert reduce_basis(perturbed).elements == G.elements


@pytest.mark.parametrize("field", [None, cyclotomic_field(3)], ids=["QQ", "QQw3"])
def test_normal_form_matches_the_cofactor_accumulating_reference(field):
    rng = random.Random(37)
    ring = PolyRing(("x1", "x2", "x3"), *([field] if field else []))
    for _ in range(150):
        divisors = [
            g for g in (_random_polynomial(rng, ring, rng.randint(1, 3)) for _ in range(4)) if g
        ]
        if not divisors:
            continue
        # a repeated lead: of the two divisors, only the earlier one divides
        g = rng.choice(divisors)
        divisors.insert(rng.randrange(len(divisors) + 1), g * _random_nonzero(rng, field) + 1)
        f = _random_polynomial(rng, ring, rng.randint(1, 6)) * _random_polynomial(rng, ring, 2)
        order = rng.choice(list(REFERENCE_ORDERS.values()))
        r, cofactors = normal_form(f, divisors, order)
        want_r, want_cofactors = _reference_division(f, divisors, order)
        assert r.terms == want_r.terms
        assert [c.terms for c in cofactors] == [c.terms for c in want_cofactors]
