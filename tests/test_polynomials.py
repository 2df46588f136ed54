import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from algdoe import (
    CoefficientFieldError,
    CyclotomicNumber,
    DimensionError,
    InputError,
    PolyRing,
    QQ,
    TermOrder,
    ZeroPolynomialError,
    cyclotomic_field,
    normal_form,
    omega,
)

R7 = PolyRing([f"x{i}" for i in range(1, 8)])
LEX7 = TermOrder.lex(7)
GREV7 = TermOrder.grevlex(7)


def test_additive_inverse():
    f = R7.parse("x1^2-1")
    assert (f + (1 - R7.var("x1") ** 2)).is_zero()


def test_difference_of_squares():
    x1 = R7.var("x1")
    assert (x1 - 1) * (x1 + 1) == R7.parse("x1^2-1")


def test_product_constant_term_is_sixteenth():
    f = (
        Fraction(1, 16)
        * (1 - R7.parse("x1*x2*x3"))
        * (1 - R7.parse("x1*x4*x5"))
        * (1 - R7.parse("x2*x4*x6"))
        * (1 + R7.parse("x1*x2*x4*x7"))
    )
    assert f.constant_term() == Fraction(1, 16)
    assert len(f.terms) == 16


def test_leading_term_fixtures():
    f = R7.parse("x3+x5*x6")
    mono, coeff = f.leading_term(LEX7)
    assert (mono, coeff) == ((0, 0, 1, 0, 0, 0, 0), 1)
    five = R7.const(5)
    assert five.leading_term(LEX7) == ((0,) * 7, 5)
    g = R7.parse("x4-x5*x6*x7")
    mono, coeff = g.leading_term(GREV7)
    assert mono == (0, 0, 0, 0, 1, 1, 1)
    assert coeff == -1
    with pytest.raises(ZeroPolynomialError):
        R7.zero().leading_term(LEX7)


def test_field_mixing_is_an_error():
    ring3 = PolyRing(["x1", "x2"], cyclotomic_field(3))
    f = ring3.var("x1") * omega(3)
    g = PolyRing(["x1", "x2"]).var("x1")
    with pytest.raises(CoefficientFieldError):
        f + g
    embedded = ring3.embed(g)
    assert (f + embedded).ring.field == cyclotomic_field(3)


def test_normal_form_member_of_divisors(l8=None):
    f = R7.parse("x1^2-1")
    r, cofs = normal_form(f, [f], LEX7)
    assert r.is_zero()
    assert cofs[0] == R7.one()


def test_normal_form_no_divisible_leading_term():
    f = R7.parse("x1*x2")
    divisors = [R7.parse("x1^2-1"), R7.parse("x2^2-1")]
    r, cofs = normal_form(f, divisors, LEX7)
    assert r == f
    assert all(c.is_zero() for c in cofs)


def test_text_round_trip_fixtures():
    for text in (
        "x7^2-1",
        "x3+x5*x6",
        "x4-x5*x6*x7",
        "1/2*x1*x2*x3+1/2",
        "-3/4*x1+x2^3-5",
        "0",
    ):
        f = R7.parse(text)
        assert f.text(LEX7) == text or R7.parse(f.text(LEX7)) == f


def test_cyclotomic_text_round_trip():
    ring = PolyRing(["x1", "x2"], cyclotomic_field(3))
    f = ring.parse("(1/2+1/2*w)*x1^2+(-1+w^2)*x2-2")
    order = TermOrder.grevlex(2)
    assert ring.parse(f.text(order)) == f


def test_evaluate_computes_each_power_once(monkeypatch):
    # the terms share x1^2 and x2: three distinct powers, where taking each
    # term's powers anew takes six
    ring = PolyRing(["x1", "x2"], cyclotomic_field(3))
    f = ring.parse("x1^2*x2+x1^2+(w)*x2+x1*x2")
    w, w2 = omega(3), omega(3, 2)
    expected = w**2 * w2 + w**2 + w * w2 + w * w2
    power, calls = CyclotomicNumber.__pow__, []

    def counted(self, n):
        calls.append(n)
        return power(self, n)

    monkeypatch.setattr(CyclotomicNumber, "__pow__", counted)
    assert f.evaluate((w, w2)) == expected
    assert sorted(calls) == [1, 1, 2]


def test_parenthesised_coefficients():
    assert R7.parse("(2)*x1") == 2 * R7.var("x1")
    assert R7.parse("-(1/2-3/2)*x1*(2)") == 2 * R7.var("x1")
    ring = PolyRing(["x1"], cyclotomic_field(3))
    w = omega(3)
    assert ring.parse("(w)*x1") == ring.var("x1") * w
    assert ring.parse("(w^3)") == ring.one()
    # 1 + w + w^2 = 0 in Q(w3)
    assert ring.parse("(1+w+w^2)*x1+(w*w)") == ring.const(w**2)


@pytest.mark.parametrize(
    "text",
    ["(w)", "(w)*x1", "(1+w)", "(x1)", "(2", "2)", "()", "x1+", "x8", "2 x1", "1/0*x1",
     "1/4+(1/0)*x1"],
)
def test_rational_ring_rejects(text):
    with pytest.raises(InputError):
        R7.parse(text)


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
small_polys = st.dictionaries(
    st.tuples(*([st.integers(0, 3)] * 3)), coeffs, min_size=0, max_size=6
).map(lambda d: PolyRing(["x1", "x2", "x3"]).poly(d))
orders3 = st.sampled_from(
    [TermOrder.lex(3), TermOrder.grlex(3), TermOrder.grevlex(3)]
)


@given(small_polys, small_polys, small_polys)
def test_arithmetic_is_exact_and_associative(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(small_polys, small_polys)
def test_commutativity(f, g):
    assert f + g == g + f
    assert f * g == g * f


@given(small_polys, orders3)
def test_parse_print_round_trip(f, order):
    ring = f.ring
    assert ring.parse(f.text(order)) == f


@given(small_polys, st.lists(small_polys, min_size=1, max_size=3), orders3)
def test_division_identity_and_idempotence(f, divisors, order):
    divisors = [g for g in divisors if not g.is_zero()]
    if not divisors:
        return
    r, cofs = normal_form(f, divisors, order)
    total = r
    for c, g in zip(cofs, divisors):
        total = total + c * g
    assert total == f
    r2, _ = normal_form(r, divisors, order)
    assert r2 == r


def _cyclotomic_polys(order):
    coords = st.tuples(*([coeffs] * (order - 1)))
    elements = coords.map(lambda c: CyclotomicNumber(order, c))
    ring = PolyRing(["x1", "x2", "x3"], cyclotomic_field(order))
    return st.dictionaries(
        st.tuples(*([st.integers(0, 3)] * 3)), elements, min_size=0, max_size=5
    ).map(ring.poly)


@pytest.mark.parametrize("order", [3, 5])
@given(data=st.data())
def test_cyclotomic_parse_print_round_trip(order, data):
    f = data.draw(_cyclotomic_polys(order))
    term_order = data.draw(orders3)
    assert f.ring.parse(f.text(term_order)) == f


def _random_polynomial(rng, ring):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))]
    if ring.field != QQ:
        coeffs.append(omega(ring.field.order, rng.randint(0, ring.field.order - 1)))
    return ring.poly({
        tuple(rng.randint(0, 2) for _ in range(ring.nvars)): rng.choice(coeffs)
        for _ in range(rng.randint(0, 3))
    })


def test_power_and_product_are_repeated_multiplication():
    # the public operators no package code calls, checked term by term
    rng = random.Random(4418)
    rings = [PolyRing(["x", "y"]), PolyRing(["x", "y", "z"], cyclotomic_field(3))]
    for ring in rings:
        for _ in range(25):
            f, g = _random_polynomial(rng, ring), _random_polynomial(rng, ring)
            by_terms = ring.zero()
            for e1, c1 in f.terms.items():
                for e2, c2 in g.terms.items():
                    by_terms = by_terms + ring.monomial(tuple(map(operator.add, e1, e2)), c1 * c2)
            assert f * g == by_terms == g * f
            for n in range(5):
                assert f**n == functools.reduce(operator.mul, [f] * n, ring.one())
            assert f * 0 == 0 * f == ring.zero()
            assert f * Fraction(1, 2) == Fraction(1, 2) * f == f.mul_term((0,) * ring.nvars, Fraction(1, 2))
        with pytest.raises(InputError, match="negative polynomial powers are not defined"):
            ring.one() ** -1


def test_ring_constructors():
    R = PolyRing(["x", "y", "z"])
    assert R.zero().terms == {} and not R.zero()
    assert R.one().terms == {(0, 0, 0): 1} and R.one() == 1
    assert R.const(Fraction(2, 4)).terms == {(0, 0, 0): Fraction(1, 2)}
    assert R.const(0) == R.zero()
    assert R.var("y").terms == {(0, 1, 0): 1} == R.var(1).terms
    assert R.var(-1) == R.var("z")
    with pytest.raises(IndexError):
        R.var(3)
    with pytest.raises(InputError, match="unknown indeterminate 'w'"):
        R.var("w")
    assert R.monomial([1, 0, 2]).terms == {(1, 0, 2): 1}
    assert R.monomial((1, 0, 2), -3) == R.var("x") * R.var("z") ** 2 * -3
    assert R.monomial((0, 0, 0), 0) == R.zero()
    with pytest.raises(DimensionError, match="bad exponent vector"):
        R.monomial((1, 0))
    assert {type(c) for f in (R.one(), R.var(0), R.monomial((1, 1, 1), 2)) for c in f.terms.values()} == {Fraction}
    # embed: the same terms, each coefficient coerced into the new field
    F = cyclotomic_field(5)
    R5 = PolyRing(R.names, F)
    f = R.parse("1/2*x*y-z^2+3")
    g = R5.embed(f)
    assert g.ring == R5 and g == R5.parse("(1/2)*x*y-z^2+3")
    assert g.terms.keys() == f.terms.keys()
    assert all(g.terms[e] == F.coerce(c) and g.terms[e].order == 5 for e, c in f.terms.items())
    assert R.embed(f) == f
    with pytest.raises(DimensionError, match="cannot embed between different universes"):
        PolyRing(["x", "y"], F).embed(f)
