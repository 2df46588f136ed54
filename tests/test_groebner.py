import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algdoe import (
    Budget,
    BudgetError,
    Design,
    InputError,
    NonZeroDimensionalError,
    PolyRing,
    Polynomial,
    ScaleError,
    TermOrder,
    buchberger,
    design_ideal,
    ideal_membership,
    point_ideal_intersection,
    reduce_basis,
    s_polynomial,
    standard_monomials,
)
from algdoe.groebner import (
    GroebnerBasis,
    _certify_vanishing_ideal,
    spolynomials_reduce_to_zero,
)
from algdoe.polynomials import mono_divides, normal_form

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
        if not any(mono_divides(lm, e) for lm in leads)
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
    points = three_level_complex.points()
    G = design_ideal(three_level_complex, order)
    gens, est = list(G.elements), list(standard_monomials(G))
    _certify_vanishing_ideal(gens, est, points, order)
    gens[-1] = _with_tail_coefficient_changed(gens[-1], order)
    with pytest.raises(AssertionError, match="does not vanish on the input point"):
        _certify_vanishing_ideal(gens, est, points, order)


def test_certifying_self_check():
    gb = buchberger(parse_gens(BASIS_2_7_4), GREV7)
    assert spolynomials_reduce_to_zero(gb)


def test_budget_error():
    with pytest.raises(BudgetError):
        buchberger(parse_gens(BASIS_2_7_4), LEX7, budget=Budget(max_pairs=3))


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
