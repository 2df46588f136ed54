import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algdoe import (
    Design,
    InputError,
    InvalidIndicatorError,
    PolyRing,
    Word,
    classify_design,
    design_from_indicator,
    full_factorial,
    indicator_add_factors,
    indicator_from_design,
    regular_design_from_words,
)
from algdoe.designs import gf2_independent
from algdoe.indicators import FactorRelation, IndicatorFunction, extend_design, word_group

from conftest import L8_WORDS, random_two_level_design


def bits(m, *idx):
    return tuple(1 if i + 1 in idx else 0 for i in range(m))


def test_f1_indicator(f1):
    f = indicator_from_design(f1)
    assert f.coeffs == {
        bits(3): Fraction(1, 2),
        bits(3, 1, 2, 3): Fraction(1, 2),
    }


def test_f2_indicator(f2):
    # unique 0/1 interpolation of the three runs; x3 takes values (1,-1,-1)
    # on them, so its coefficient is -1/8
    f = indicator_from_design(f2)
    eighth = Fraction(1, 8)
    assert f.coeffs == {
        bits(3): Fraction(3, 8),
        bits(3, 1): eighth,
        bits(3, 2): eighth,
        bits(3, 3): -eighth,
        bits(3, 1, 2): -eighth,
        bits(3, 1, 3): eighth,
        bits(3, 2, 3): eighth,
        bits(3, 1, 2, 3): Fraction(3, 8),
    }


def test_f3_indicator(f3):
    quarter = Fraction(1, 4)
    f = indicator_from_design(f3)
    assert f.coeffs == {
        bits(3): Fraction(1, 2),
        bits(3, 1): quarter,
        bits(3, 2): quarter,
        bits(3, 3): quarter,
        bits(3, 1, 2, 3): -quarter,
    }


def test_full_factorial_indicator_is_one():
    f = indicator_from_design(full_factorial(3))
    assert f.coeffs == {bits(3): Fraction(1)}


def test_l8_indicator_equals_product_form(l8):
    # 1/16 (1 - x1x2x3)(1 - x1x4x5)(1 - x2x4x6)(1 + x1x2x4x7), squarefree
    R = PolyRing(l8.var_names)
    product = (
        Fraction(1, 16)
        * (1 - R.parse("x1*x2*x3"))
        * (1 - R.parse("x1*x4*x5"))
        * (1 - R.parse("x2*x4*x6"))
        * (1 + R.parse("x1*x2*x4*x7"))
    )
    # fold x_i^2 = 1: exponents reduce mod 2 on the plus-minus-one cube
    expected: dict = {}
    for e, c in product.terms.items():
        folded = tuple(v % 2 for v in e)
        expected[folded] = expected.get(folded, Fraction(0)) + c
    expected = {e: c for e, c in expected.items() if c}
    f = indicator_from_design(l8)
    assert f.coeffs == expected
    assert f.constant_term() == Fraction(l8.n, 2**7)


def test_round_trip_fixtures(f1, f2, f3, l8):
    for d in (f1, f2, f3, l8):
        assert design_from_indicator(indicator_from_design(d)).runs == tuple(
            sorted(d.runs)
        )


def test_design_from_indicator_fixtures(f1):
    f = IndicatorFunction(
        3, {bits(3): Fraction(1, 2), bits(3, 1, 2, 3): Fraction(1, 2)}
    )
    assert design_from_indicator(f).runs == tuple(sorted(f1.runs))
    const_one = IndicatorFunction(3, {bits(3): 1})
    assert design_from_indicator(const_one).runs == full_factorial(3).runs


def test_invalid_indicator_rejected():
    f = IndicatorFunction(2, {bits(2): Fraction(1, 3)})
    with pytest.raises(InvalidIndicatorError):
        design_from_indicator(f)
    g = IndicatorFunction(2, {bits(2, 1): Fraction(1)})
    with pytest.raises(InvalidIndicatorError):
        design_from_indicator(g)


def test_indicator_invariants_random_designs():
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(1, 7)
        d = random_two_level_design(rng, m)
        f = indicator_from_design(d)
        b0 = f.constant_term()
        assert b0 == Fraction(d.n, 2**m)
        assert all(abs(c) <= b0 for c in f.coeffs.values())
        assert design_from_indicator(f).runs == tuple(sorted(d.runs))
        if m <= 6:
            # independent reference: evaluate every term at every point
            runs = set(d.runs)
            for point in full_factorial(m).runs:
                assert f.evaluate(point) == (1 if point in runs else 0)


@pytest.mark.parametrize("corruption", ["mirror-x1", "perturb"])
def test_corrupted_spectrum_fails_certificate(monkeypatch, corruption):
    # m = 13 is above the size at which a full-factorial re-evaluation would
    # be affordable; the inverse-transform certificate still runs there
    from algdoe import indicators

    m = 13
    rng = random.Random(13)
    runs = tuple(
        tuple(1 - 2 * ((idx >> k) & 1) for k in range(m))
        for idx in rng.sample(range(2**m), 64)
    )
    d = Design(m, 2, runs, "pm1")
    transform = indicators._walsh_hadamard
    calls = []

    def corrupt_forward(values):
        out = transform(values)
        if not calls:
            if corruption == "mirror-x1":
                # a valid indicator, but of the design with x1 negated
                out = [-v if idx & 1 else v for idx, v in enumerate(out)]
            else:
                out[1] += 2
        calls.append(len(values))
        return out

    monkeypatch.setattr(indicators, "_walsh_hadamard", corrupt_forward)
    with pytest.raises(AssertionError):
        indicator_from_design(d)
    assert len(calls) == 2


def test_add_factors_regular_product_form(l8):
    # start from the full factorial on the basic factors x1, x2, x4 and add
    # the four defined columns; permuting back gives the published fraction
    base = indicator_from_design(full_factorial(3))
    rels = [
        FactorRelation(1, -1, (1, 1, 0)),  # x3 = -x1*x2
        FactorRelation(2, -1, (1, 0, 1)),  # x5 = -x1*x4
        FactorRelation(3, -1, (0, 1, 1)),  # x6 = -x2*x4
        FactorRelation(4, +1, (1, 1, 1)),  # x7 = x1*x2*x4
    ]
    f2 = indicator_add_factors(base, rels)
    # extended variable order: x1, x2, x4, y1=x3, y2=x5, y3=x6, y4=x7
    perm = (0, 1, 3, 2, 4, 5, 6)  # position in (x1,x2,x4,x3,x5,x6,x7) per L8 axis
    remapped = {}
    for e, c in f2.coeffs.items():
        new = [0] * 7
        for src, dst in enumerate(perm):
            new[dst] = e[src]
        remapped[tuple(new)] = c
    assert remapped == indicator_from_design(l8).coeffs


def test_add_factors_identity_and_derived_case(f2):
    base = indicator_from_design(f2)
    assert indicator_add_factors(base, []) == base
    rels = [FactorRelation(1, 1, (1, 1, 0))]
    combined = indicator_add_factors(base, rels)
    direct = indicator_from_design(extend_design(f2, rels))
    assert combined == direct


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_add_factors_matches_direct_indicator(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = rng.randint(1, 4)
    d = random_two_level_design(rng, m)
    k = rng.randint(1, 3)
    rels = []
    for i in range(k):
        word = tuple(rng.randint(0, 1) for _ in range(m))
        if not any(word):
            word = tuple(1 if j == 0 else 0 for j in range(m))
        rels.append(FactorRelation(i + 1, rng.choice((-1, 1)), word))
    combined = indicator_add_factors(indicator_from_design(d), rels)
    direct = indicator_from_design(extend_design(d, rels))
    assert combined == direct


def test_classification_fixtures(f1, f2, f3):
    c1 = classify_design(f1)
    assert c1.tag == "regular"
    assert [(w.bits, w.sign) for w in c1.words] == [((1, 1, 1), 1)]

    c2 = classify_design(f2)
    assert c2.tag == "subset-fractional"
    containing = regular_design_from_words(3, c2.words)
    assert set(f2.runs) < set(containing.runs)
    assert set(containing.runs) == set(f1.runs)
    assert c2.diagnostic is None

    c3 = classify_design(f3)
    assert c3.tag == "affinely-full-dimensional"
    assert c3.words == ()


def test_classification_full_factorial_and_l8(l8):
    assert classify_design(full_factorial(2)).tag == "full-factorial"
    cls = classify_design(l8)
    assert cls.tag == "regular"
    rebuilt = regular_design_from_words(7, cls.words)
    assert set(rebuilt.runs) == set(l8.runs)


def test_classification_large_regular_fractions_match_reconstruction():
    # the witness words are checked on the runs; the full-factorial rebuild
    # is the reference, for regular fractions and for one run removed
    rng = random.Random(1016)
    for m in (10, 12, 14, 16):
        k = rng.randint(m - 8, m - 2)
        words, bits_list = [], []
        while len(words) < k:
            bits = tuple(rng.randint(0, 1) for _ in range(m))
            if any(bits) and gf2_independent(bits_list + [bits]):
                bits_list.append(bits)
                words.append(Word(bits, rng.choice((-1, 1))))
        runs = list(regular_design_from_words(m, words).runs)
        rng.shuffle(runs)
        for d in (Design(m, 2, tuple(runs), "pm1"), Design(m, 2, tuple(runs[1:]), "pm1")):
            cls = classify_design(d)
            containing = regular_design_from_words(m, cls.words)
            assert cls.diagnostic is None
            assert set(d.runs) <= set(containing.runs)
            expected = "regular" if containing.n == d.n else "subset-fractional"
            assert cls.tag == expected
            if cls.tag == "regular":
                assert word_group(cls.words) == word_group(words)


def test_classification_word_group_matches(l8):
    cls = classify_design(l8)
    assert word_group(cls.words) == word_group(L8_WORDS)


def test_rejects_non_two_level():
    d3 = Design(2, 3, ((0, 0), (1, 2)), "integer")
    with pytest.raises(InputError):
        indicator_from_design(d3)
    with pytest.raises(InputError):
        classify_design(d3)
