import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from algdoe import (
    CoefficientFieldError, CyclotomicNumber, InputError, QQ, cyclotomic_field, embed, omega,
)
from algdoe import linalg
from algdoe.cyclotomic import Echelon, is_prime

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def test_root_sum_is_zero():
    w = omega(3)
    assert 1 + w + w**2 == 0
    assert not (1 + w + w**2)


def test_root_power_cycles():
    w = omega(3)
    assert w**3 == 1
    assert w**4 == w
    w5 = omega(5)
    assert w5**5 == 1
    assert sum((w5**k for k in range(5)), cyclotomic_field(5).zero) == 0


def test_order_two_degenerates_to_rational():
    w = omega(2)
    assert w == Fraction(-1)
    assert w * w == 1
    assert w.is_rational()


@given(rationals, rationals, rationals)
def test_three_coords_zero_iff_equal(q1, q2, q3):
    w = omega(3)
    value = q1 + q2 * w + q3 * w**2
    assert (not value) == (q1 == q2 == q3)


@given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
def test_inverse(a, b, s):
    z = cyclotomic_field(s).coerce(a) + b * omega(s)
    if not z:
        return
    assert z * z.inverse() == 1
    assert z**-1 == z.inverse()


@pytest.mark.parametrize("s", [p for p in range(32) if is_prime(p)])
def test_inverse_matches_the_galois_norm(s):
    rng = random.Random(f"inverse:{s}")
    for _ in range(3):
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(s - 1)]
        coords[rng.randrange(s - 1)] += 5  # nonzero
        z = CyclotomicNumber(s, tuple(coords))
        assert z.inverse() == _field_inverse(z)


def test_composite_order_rejected():
    with pytest.raises(InputError):
        omega(4)
    with pytest.raises(InputError):
        cyclotomic_field(6)


def test_embed_and_mixing():
    f3 = cyclotomic_field(3)
    e = embed(Fraction(2, 3), f3)
    assert e == Fraction(2, 3)
    assert e.is_rational()
    with pytest.raises(CoefficientFieldError) as err:
        QQ.coerce(omega(3))
    assert str(err.value) == "cannot coerce w into QQ: it has no rational value"
    with pytest.raises(CoefficientFieldError):
        omega(3) + omega(5)


def test_rational_valued_hash_matches_fraction():
    z = cyclotomic_field(3).coerce(Fraction(7, 2))
    assert hash(z) == hash(Fraction(7, 2))


@given(rationals, rationals, rationals, rationals)
def test_field_axioms_sampled(a1, a2, b1, b2):
    w = omega(3)
    x = a1 + a2 * w
    y = b1 + b2 * w
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x


def _field_inverse(a):
    """1/a without Echelon: over Q(w_s), the product of the other Galois
    conjugates of a divided by the rational norm of a."""
    if not isinstance(a, CyclotomicNumber):
        return 1 / a
    s, F = a.order, cyclotomic_field(a.order)
    rest = F.one
    for k in range(2, s):  # w -> w^k
        rest *= sum((c * omega(s, j * k) for j, c in enumerate(a.coords)), F.zero)
    return rest * (1 / (a * rest).rational_part())


class _FractionEchelon:
    """The field-division echelon that the fraction-free one replaced:
    every row is scaled to a pivot of one, as the oracle for its answers,
    which are relations: vec + sum(a * kept) = 0."""

    def __init__(self):
        self._rows = []

    def insert(self, vec, label):
        vec = list(vec)
        combo = {}
        for k, row, row_combo in self._rows:
            f = vec[k]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
                for lab, c in row_combo.items():
                    combo[lab] = combo.get(lab, 0) + f * c
        k = next((i for i, a in enumerate(vec) if a), None)
        if k is None:
            return {lab: -c for lab, c in combo.items() if c}
        inv = _field_inverse(vec[k])
        row_combo = {lab: -c * inv for lab, c in combo.items() if c}
        row_combo[label] = inv
        self._rows.append((k, [a * inv for a in vec], row_combo))
        return None


def _echelon_vectors(rng, kind, width):
    """Seeded int or rational vectors: fresh ones, zero ones, and
    combinations of earlier ones, so that inserts are both independent and
    dependent."""

    def entry():
        if kind == "int":
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-2**61, 2**61), rng.randint(1, 2**61))

    choices = (-2, -1, 1, 3) if kind == "int" else (-2, 1, Fraction(1, 7))
    kept = []
    for _ in range(3 * width):
        pick = rng.random()
        if pick < 0.1 or not kept:
            vec = [entry() * 0 for _ in range(width)]
        elif pick < 0.5:
            vec = [entry() for _ in range(width)]
        else:
            parts = rng.sample(kept, min(len(kept), rng.randint(1, 3)))
            coeffs = [rng.choice(choices) for _ in parts]
            vec = [sum((c * v[i] for c, v in zip(coeffs, parts)), entry() * 0)
                   for i in range(width)]
        kept.append(vec)
        yield vec


def _exponent_vectors(rng, s, width):
    """Seeded vectors of powers of w_s, as their exponents: fresh ones, and
    earlier ones times a power of w.  There are three times as many as the
    width, so fresh ones are dependent too, once width of them are kept."""
    kept = []
    for _ in range(3 * width):
        if kept and rng.random() < 0.3:
            k = rng.randrange(s)
            vec = [(e + k) % s for e in rng.choice(kept)]
        else:
            vec = [rng.randrange(s) for _ in range(width)]
        kept.append(vec)
        yield vec


@pytest.mark.parametrize("kind, s", [
    pytest.param("int", None, id="int"),
    pytest.param("rational", None, id="rational"),
    pytest.param("cyclotomic", 2, id="cyclotomic2"),
    pytest.param("cyclotomic", 3, id="cyclotomic"),
    pytest.param("cyclotomic", 5, id="cyclotomic5"),
    pytest.param("cyclotomic", 7, id="cyclotomic7"),
])
def test_echelon_matches_fraction_division_oracle(kind, s):
    # int and rational vectors on linalg.Echelon, vectors of powers of w on
    # cyclotomic.Echelon(s); the oracle divides in the field
    rng = random.Random(f"echelon:{kind}:{s}")
    dependent = 0
    for trial in range(12):
        width = rng.randint(1, 7)
        oracle = _FractionEchelon()
        if s is None:
            ech = rational = linalg.Echelon()
            vectors = _echelon_vectors(rng, kind, width)
        else:
            ech = Echelon(s)
            rational = ech._rational
            vectors = _exponent_vectors(rng, s, width)
        for label, vec in enumerate(vectors):
            values = [Fraction(a) for a in vec] if s is None else [omega(s, e) for e in vec]
            expected = oracle.insert(values, label)
            got = ech.insert(vec, label)
            assert got == expected, (kind, s, trial, label)
            if got is not None:
                dependent += 1
                field_type = CyclotomicNumber if s else Fraction
                assert all(type(c) is field_type for c in got.values())
        # fraction-free rows: primitive integer vectors, positive pivots
        for k, row, _ in rational._rows:
            assert row[k] > 0 and gcd(*row) == 1
    assert dependent >= 12


# -- primality ----------------------------------------------------------------


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    assert [is_prime(n) for n in range(-3, limit)] == [False] * 3 + sieve


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
])
def test_is_prime_refuses_strong_pseudoprimes(n):
    # each is a strong pseudoprime to every prime base below some bound
    assert not is_prime(n)


@pytest.mark.parametrize("n", [10**12 + 39, 10**14 + 31, 2**61 - 1, 18446744073709551557])
def test_is_prime_on_large_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_to_guess_past_its_bound():
    bound = 3317044064679887385961981
    assert not is_prime(bound - 2)  # an odd composite just below
    with pytest.raises(InputError, match=f"only decided below {bound}"):
        is_prime(bound)


# -- arithmetic paths ---------------------------------------------------------


def test_division():
    F = cyclotomic_field(5)
    x = 2 + omega(5) - Fraction(1, 3) * omega(5, 3)
    y = omega(5, 2) - 1
    assert (x / y) * y == x
    assert x / 2 == x * Fraction(1, 2)
    assert 1 / y == y.inverse()
    assert Fraction(3, 4) / y == y.inverse() * Fraction(3, 4)
    assert F.zero / y == 0
    with pytest.raises(ZeroDivisionError, match="cyclotomic division by zero"):
        F.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        x / F.zero
    with pytest.raises(TypeError):
        x / "2"
    with pytest.raises(TypeError):
        "2" / x


def test_coercion_in_arithmetic():
    w = omega(3)
    half5 = cyclotomic_field(5).coerce(Fraction(1, 2))
    # a rational number of another order joins this one's field
    assert w + half5 == w + Fraction(1, 2)
    assert (w * half5).order == 3
    # anything that is no number is left to the other operand
    assert w.__add__("1") is NotImplemented
    assert w.__mul__(1.0) is NotImplemented
    with pytest.raises(TypeError):
        w + None
    # booleans are refused as the field refuses them
    with pytest.raises(CoefficientFieldError, match="booleans are not field elements"):
        w + True
    with pytest.raises(CoefficientFieldError, match="booleans are not field elements"):
        cyclotomic_field(3).coerce(False)
    # mixing orders names this field's order first, on either route
    with pytest.raises(CoefficientFieldError, match="orders 3 and 5"):
        w * omega(5)
    with pytest.raises(CoefficientFieldError, match="orders 3 and 5"):
        cyclotomic_field(3).coerce(omega(5))


def test_construction_and_text_errors():
    with pytest.raises(CoefficientFieldError, match="expected 2 coordinates, got 1"):
        CyclotomicNumber(3, (Fraction(1),))
    with pytest.raises(InputError, match="prime"):
        CyclotomicNumber.from_rational(1, 4)
    with pytest.raises(InputError, match="prime"):
        CyclotomicNumber.from_rational(1, 1)
    with pytest.raises(CoefficientFieldError, match="is not rational"):
        omega(3).rational_part()
    assert str(cyclotomic_field(3).zero) == "0"
    assert str(1 - omega(5, 2)) == "1-w^2"


def test_rational_field_coercion():
    value = QQ.coerce(cyclotomic_field(7).coerce(Fraction(-2, 3)))
    assert value == Fraction(-2, 3) and type(value) is Fraction
    for bad, match in ((True, "booleans"), ("1", "cannot coerce '1' into QQ")):
        with pytest.raises(CoefficientFieldError, match=match):
            QQ.coerce(bad)


def _reference_reduce(s, raw):
    """Fold any list of w-power coefficients onto 1, w, ..., w^(s-2): the
    general fold that _fold replaced, kept as the oracle for products."""
    out = [Fraction(0)] * (s - 1)
    carry = Fraction(0)
    for e, c in enumerate(raw):
        e %= s
        if e == s - 1:
            carry += c
        else:
            out[e] += c
    return tuple(c - carry for c in out)


def _reference_product(x, y):
    s = x.order
    raw = [Fraction(0)] * (2 * s - 3)
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            raw[i + j] += a * b
    return _reference_reduce(s, raw)


coordinates = st.one_of(st.just(Fraction(0)), rationals)


@given(st.sampled_from([3, 5, 7, 11]), st.data())
def test_product_and_omega_match_the_general_fold(s, data):
    x, y = (
        CyclotomicNumber(s, tuple(data.draw(st.lists(coordinates, min_size=s - 1, max_size=s - 1))))
        for _ in range(2)
    )
    product = x * y
    assert product.coords == _reference_product(x, y)
    assert all(type(c) is Fraction for c in product.coords)
    for k in range(-s, 2 * s + 1):
        unit = [Fraction(0)] * (k % s) + [Fraction(1)]
        assert omega(s, k).coords == _reference_reduce(s, unit)
        assert all(type(c) is Fraction for c in omega(s, k).coords)


def _random_cyclotomic(rng, s):
    return CyclotomicNumber(s, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                     for _ in range(s - 1)))


def test_division_and_reflected_operators_are_products_by_the_inverse():
    # the public operators no package code calls: a / b, q / b and q - a,
    # for numbers a, b and rationals q, against inverse() and negation
    rng = random.Random(4417)
    for s in (2, 3, 5, 7):
        for _ in range(30):
            a = _random_cyclotomic(rng, s)
            b = _random_cyclotomic(rng, s) or omega(s)
            q = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
            qs = CyclotomicNumber.from_rational(q, s)
            assert a / b == a * b.inverse()
            assert q / b == qs * b.inverse()
            assert q - a == qs + (-a) == qs - a
            assert (q / b).order == (q - a).order == s
            if q:
                assert a / q == a * qs.inverse() == a * (1 / Fraction(q))
    assert omega(3).__truediv__("1") is NotImplemented
    assert omega(3).__rtruediv__(1.0) is NotImplemented
