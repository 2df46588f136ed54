import random
import re
from fractions import Fraction

import pytest

from algdoe import (
    Budget,
    BudgetError,
    InputError,
    NonZeroDimensionalError,
    PolyRing,
    TermOrder,
    buchberger,
    ideal_membership,
    point_ideal_intersection,
    reduce_basis,
    s_polynomial,
    standard_monomials,
)
from algdoe.groebner import GroebnerBasis, spolynomials_reduce_to_zero
from algdoe.polynomials import normal_form

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
    assert gb.reduced


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
    scaled = GroebnerBasis(LEX7, tuple(g * 3 for g in gb.elements), reduced=False)
    assert [g.terms for g in reduce_basis(scaled).elements] == [
        g.terms for g in gb.elements
    ]


def test_reduce_basis_drops_redundant_generator():
    R1 = PolyRing(["x1"])
    lex = TermOrder.lex(1)
    gb = GroebnerBasis(
        lex, (R1.parse("x1^2-1"), R1.parse("x1^4-1")), reduced=False
    )
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
