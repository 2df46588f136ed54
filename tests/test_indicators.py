import copy
import hashlib
import itertools
import math
import operator
import pickle
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algdoe import (
    Design,
    InputError,
    InvalidIndicatorError,
    PolyRing,
    ScaleError,
    Word,
    classify_design,
    design_from_indicator,
    full_factorial,
    indicator_add_factors,
    indicator_from_design,
    regular_design_from_words,
)
from algdoe import designs, indicators
from algdoe.designs import RUN_LEVELS, WORD_LEVELS, product_index
from algdoe.indicators import FactorRelation, IndicatorFunction

from conftest import (L8_WORDS, extend_design, gf2_independent, product_element,
                      random_two_level_design, term)


def word_group(words) -> set[tuple[tuple[int, ...], int]]:
    """All products of subsets of the words, excluding the identity."""
    words = list(words)
    if not words:
        return set()
    m = len(words[0].bits)
    group = {0: 1}
    for w in words:
        idx = product_index(w.bits, WORD_LEVELS)
        group.update({g ^ idx: sign * w.sign for g, sign in group.items()})
    group.pop(0)
    return {(product_element(g, m, WORD_LEVELS), sign) for g, sign in group.items()}


def random_words(rng, m, k):
    """k random words on m factors, independent over GF(2), with random signs."""
    words, bits_list = [], []
    while len(words) < k:
        bits = tuple(rng.randint(0, 1) for _ in range(m))
        if any(bits) and gf2_independent(bits_list + [bits]):
            bits_list.append(bits)
            words.append(Word(bits, rng.choice((-1, 1))))
    return words


def test_f1_indicator(f1):
    f = indicator_from_design(f1)
    assert f.coeffs == {
        term(3): Fraction(1, 2),
        term(3, 1, 2, 3): Fraction(1, 2),
    }


def test_f2_indicator(f2):
    # unique 0/1 interpolation of the three runs; x3 takes values (1,-1,-1)
    # on them, so its coefficient is -1/8
    f = indicator_from_design(f2)
    eighth = Fraction(1, 8)
    assert f.coeffs == {
        term(3): Fraction(3, 8),
        term(3, 1): eighth,
        term(3, 2): eighth,
        term(3, 3): -eighth,
        term(3, 1, 2): -eighth,
        term(3, 1, 3): eighth,
        term(3, 2, 3): eighth,
        term(3, 1, 2, 3): Fraction(3, 8),
    }


def test_f3_indicator(f3):
    quarter = Fraction(1, 4)
    f = indicator_from_design(f3)
    assert f.coeffs == {
        term(3): Fraction(1, 2),
        term(3, 1): quarter,
        term(3, 2): quarter,
        term(3, 3): quarter,
        term(3, 1, 2, 3): -quarter,
    }


def test_full_factorial_indicator_is_one():
    f = indicator_from_design(full_factorial(3))
    assert f.coeffs == {term(3): Fraction(1)}


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
        3, {term(3): Fraction(1, 2), term(3, 1, 2, 3): Fraction(1, 2)}
    )
    assert design_from_indicator(f).runs == tuple(sorted(f1.runs))
    const_one = IndicatorFunction(3, {term(3): 1})
    assert design_from_indicator(const_one).runs == full_factorial(3).runs


def test_design_from_indicator_reads_exponents_that_equal_but_are_not_ints(f1):
    # 1.0 and Fraction(1) pass the {0,1} exponent check but are no byte values
    half = Fraction(1, 2)
    f = IndicatorFunction(3, {(0.0, Fraction(0), 0): half, (1.0, Fraction(1), 1): half})
    expected = design_from_indicator(IndicatorFunction(3, {term(3): half, term(3, 1, 2, 3): half}))
    assert design_from_indicator(f) == expected
    assert expected.runs == tuple(sorted(f1.runs))


def test_invalid_indicator_rejected():
    f = IndicatorFunction(2, {term(2): Fraction(1, 3)})
    with pytest.raises(InvalidIndicatorError):
        design_from_indicator(f)
    g = IndicatorFunction(2, {term(2, 1): Fraction(1)})
    with pytest.raises(InvalidIndicatorError):
        design_from_indicator(g)


@pytest.mark.parametrize("call, error, match", [
    (lambda: FactorRelation(1, 0, (1, 0)), InputError, "relation sign must be"),
    (lambda: FactorRelation(1, 1, (2, 0)), InputError, "must be square-free"),
    (lambda: FactorRelation(1, 1, (0, 0)), InputError, "must be nonzero"),
    (lambda: FactorRelation(0, 1, (1, 0)), InputError, "index is 1-based"),
    (lambda: indicator_add_factors(IndicatorFunction(2, {(0, 0): 1}),
                                   [FactorRelation(1, 1, (1, 1, 0))]),
     InputError, "does not match the base factor count"),
    (lambda: indicator_add_factors(IndicatorFunction(2, {(0, 0): 1}),
                                   [FactorRelation(2, 1, (1, 1))]),
     InputError, "relation at position 1 carries index 2"),
    (lambda: design_from_indicator(IndicatorFunction(2, {})),
     InvalidIndicatorError, "identically zero"),
])
def test_indicator_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize(
    "c", [10**30, -(10**30), Fraction(3, 2), Fraction(-3, 2), Fraction(5, 3)]
)
def test_inverse_refuses_coefficients_above_one(c):
    # |b_a| <= b_0 <= 1 on every indicator; the refusal names the term, and
    # comes before the check of the denominator
    f = IndicatorFunction(3, {term(3): Fraction(1, 2), term(3, 1, 3): c})
    with pytest.raises(InvalidIndicatorError, match=rf"^coefficient {c} of x1\*x3 exceeds 1"):
        design_from_indicator(f)
    # |c| = 1 passes this check and fails on the values
    g = IndicatorFunction(3, {term(3): 1, term(3, 1, 3): -1})
    with pytest.raises(InvalidIndicatorError, match="not 0/1-valued"):
        design_from_indicator(g)


def test_indicator_function_checks_its_exponents():
    f = IndicatorFunction(2, {(0, 1): 1, (1, 1): Fraction(0), (0, 0): Fraction(-1, 2)})
    assert f.coeffs == {(0, 1): Fraction(1), (0, 0): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in f.coeffs.values())
    # other sequences are converted to tuples; exponents need only equal 0 or 1
    g = IndicatorFunction(2, {range(2): 1, (True, 0.0): Fraction(1, 4)})
    assert list(g.coeffs) == [(0, 1), (1, 0)]
    assert type(list(g.coeffs)[0]) is tuple
    assert IndicatorFunction(0, {(): 1}).coeffs == {(): Fraction(1)}
    assert IndicatorFunction(3, {}).coeffs == {}
    # 48 and 49, such as b"01" read as a tuple, are the bytes of the digits '0' and '1'
    for bad in ({(0, 1, 0): 1}, {(0,): 1}, {(0, 2): 1}, {(0, -1): 1}, {(1, 0): 1, "01": 1},
                {(0, 48): 1}, {(48, 49): 1}, {b"01": 1}, {(1, 0): 1, (1, 1.0): 0, (49, 0): 1}):
        with pytest.raises(InputError, match=r"^indicator exponents must lie in \{0,1\}\^2$"):
            IndicatorFunction(2, bad)


def test_indicator_function_is_frozen():
    # the packed keys are those of coeffs for good: neither the table nor an
    # attribute can be changed, and copies and pickles are built again
    f = indicator_from_design(full_factorial(2))
    with pytest.raises(TypeError):
        f.coeffs[(1, 1)] = Fraction(1, 2)
    for name in ("m", "coeffs", "_digits"):
        with pytest.raises(AttributeError, match=f"^IndicatorFunction is frozen: cannot set {name}$"):
            setattr(f, name, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert f.coeffs == {(0, 0): Fraction(1)}
    assert design_from_indicator(f) == full_factorial(2)
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and g is not f and repr(g) == repr(f) and g._digits == f._digits


def test_indicator_keeps_its_packed_keys():
    # every constructor path keeps the digits of the keys it stores, which
    # the inverse and addfactors read in place of packing the keys again
    half = Fraction(1, 2)
    d = regular_design_from_words(4, [Word((1, 1, 1, 0), 1)])
    built = [
        IndicatorFunction(2, {(0, 1): 1, (1, 1): half}),  # int keys
        IndicatorFunction(2, {(0.0, 1.0): 1, (Fraction(1), Decimal(1)): half}),  # no ints
        IndicatorFunction(2, {(0, 1): 1, (1, 1): 0, (1, 0): half}),  # a zero dropped
        IndicatorFunction(2, {(1.0, 1): 0, (0, True): half}),  # both
        IndicatorFunction(2, {range(2): half}),  # keys made tuples
        IndicatorFunction(0, {(): 1}),
        IndicatorFunction(3, {}),
        indicator_from_design(d),
        indicator_from_design(Design(3, 2, ((1, 1, 1), (-1, 1, 1), (1, -1, -1)), "pm1")),
        indicator_add_factors(indicator_from_design(d), [FactorRelation(1, -1, (1, 0, 0, 1))]),
    ]
    for f in built:
        assert f._digits == designs._pack(f.coeffs, WORD_LEVELS)
        assert {type(b) for bits in f.coeffs for b in bits} <= {int}
    assert list(built[1].coeffs) == [(0, 1), (1, 1)] and list(built[2].coeffs) == [(0, 1), (1, 0)]
    assert list(built[3].coeffs) == [(0, 1)] and type(list(built[3].coeffs)[0][1]) is int
    # the exponents are checked before the coefficients are read and zeros dropped
    for bad in ({(0, 2): 0}, {(0, 1): 1, (0.5, 0): 0}, {(0, -1): Fraction(0)},
                {(0, 2): "not a number"}):
        with pytest.raises(InputError, match=r"^indicator exponents must lie in \{0,1\}\^2$"):
            IndicatorFunction(2, bad)


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


def test_design_from_indicator_lists_runs_in_order():
    rng = random.Random(12)
    for m in range(1, 13):
        pool = list(full_factorial(m).runs)
        runs = rng.sample(pool, rng.randint(1, min(len(pool), 200)))
        f = indicator_from_design(Design(m, 2, tuple(runs), "pm1"))
        assert design_from_indicator(f).runs == tuple(sorted(runs))


def test_indicator_matches_defining_sum_random_designs():
    # b_a = 2^(-m) * sum over the runs of x^a, term by term, and the inverse
    # returns the sorted runs; runs drawn level by level, not through the index map
    rng = random.Random(1212)
    for m in range(1, 13):
        for _ in range(4):
            n = rng.randint(1, min(2**m, 24 if m <= 8 else 6))
            runs = set()
            while len(runs) < n:
                runs.add(tuple(rng.choice((-1, 1)) for _ in range(m)))
            d = Design(m, 2, tuple(runs), "pm1")
            expected = {}
            for a in itertools.product((0, 1), repeat=m):
                total = sum(math.prod(itertools.compress(x, a)) for x in d.runs)
                if total:
                    expected[a] = Fraction(total, 2**m)
            f = indicator_from_design(d)
            assert f.coeffs == expected
            assert design_from_indicator(f).runs == tuple(sorted(d.runs))


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
    # on no factors the one exponent tuple is ()
    for const in (IndicatorFunction(0, {(): Fraction(1, 2)}), IndicatorFunction(0, {})):
        assert indicator_add_factors(const, []) == const
    rels = [FactorRelation(1, 1, (1, 1, 0))]
    combined = indicator_add_factors(base, rels)
    direct = indicator_from_design(extend_design(f2, rels))
    assert combined == direct


def test_expansions_capped_before_building_the_table():
    # a table of 2^21 entries takes some 16 MB; the refusals take none of it
    d = Design(21, 2, ((1,) * 21, (-1,) * 21), "pm1")
    f = IndicatorFunction(21, {(0,) * 21: Fraction(1, 2)})
    tracemalloc.start()
    try:
        for expand, arg in ((indicator_from_design, d), (design_from_indicator, f)):
            with pytest.raises(ScaleError, match=r"^indicator expansion capped at m <= 20$"):
                expand(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_add_factors_capped_before_expanding():
    # 21 relations on the indicator 1 would make 2^21 coefficients
    base = IndicatorFunction(21, {(0,) * 21: 1})
    rels = [
        FactorRelation(i + 1, 1, tuple(int(j == i) for j in range(21)))
        for i in range(21)
    ]
    with pytest.raises(ScaleError, match=r"1\*2\^21 coefficients"):
        indicator_add_factors(base, rels)
    assert len(indicator_add_factors(base, rels[:2]).coeffs) == 4


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


def _add_factors_corpus():
    """Seeded (f1, relations) pairs for m = 1..8 and k = 0..3, with relations
    of both signs: f1 is the indicator of a random design, a function with
    random dyadic coefficients, or the zero function."""
    rng = random.Random(42)
    for m in range(1, 9):
        for k in range(4):
            for first_sign in (1, -1):
                rels = []
                for i in range(k):
                    word = tuple(rng.randint(0, 1) for _ in range(m))
                    if not any(word):
                        word = term(m, rng.randint(1, m))
                    rels.append(FactorRelation(i + 1, first_sign * (-1) ** i, word))
                exponents = list(itertools.product((0, 1), repeat=m))
                picked = rng.sample(exponents, rng.randint(1, len(exponents)))
                yield IndicatorFunction(m, {
                    a: Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, m + 1))
                    for a in picked}), rels
                yield indicator_from_design(random_two_level_design(rng, m)), rels
                yield IndicatorFunction(m, {}), rels
    # exponents that equal 0 and 1 but are not ints
    yield (IndicatorFunction(3, {(True, 0.0, 1): Fraction(1, 2), (0.0, Fraction(0), 0): 1}),
           [FactorRelation(1, -1, (1, 1, 0)), FactorRelation(2, 1, (0, 1, 1))])


# sha256 of the corpus's extended indicators as the per-relation product
# computed them before the spread over the relations' word group replaced it
ADD_FACTORS_SHA256 = "dfa6e6fee8f0af9c19cddfbe4a007a411837d4e28d57b7757e7babf188dd5244"


def test_add_factors_output_is_pinned():
    digest = hashlib.sha256()
    for f1, rels in _add_factors_corpus():
        f2 = indicator_add_factors(f1, rels)
        digest.update(f"{f2.m} {sorted(f2.coeffs.items())!r}\n".encode())
    assert digest.hexdigest() == ADD_FACTORS_SHA256


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
        words = random_words(rng, m, k)
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


def _coefficient_route_classify(d):
    """Reference classifier on the indicator coefficients: the words are the
    smallest GF(2)-independent exponents with |b_a| = b_0, in sorted order."""
    if d.n == 2**d.m:
        return "full-factorial", (), None
    f = _reference_indicator(d)
    b0 = f.constant_term()
    big = sorted(
        (bits, 1 if c > 0 else -1)
        for bits, c in f.coeffs.items()
        if any(bits) and abs(c) == b0
    )
    if not big:
        return "affinely-full-dimensional", (), None
    words = []
    for bits, sign in big:
        if gf2_independent([w for w, _ in words] + [bits]):
            words.append((bits, sign))
    all_extreme = all(abs(c) == b0 for c in f.coeffs.values())
    contained = all(
        math.prod(itertools.compress(run, bits)) == sign
        for bits, sign in words
        for run in d.runs
    )
    if all_extreme and contained and d.n << len(words) == 1 << d.m:
        return "regular", tuple(words), None
    if contained:
        return "subset-fractional", tuple(words), None
    return "subset-fractional", tuple(words), "witness words do not contain the design"


def _classified(d):
    cls = classify_design(d)
    return cls.tag, tuple((w.bits, w.sign) for w in cls.words), cls.diagnostic


def test_classification_matches_coefficient_route():
    rng = random.Random(2003)
    for m in range(1, 9):
        for n in range(1, 2**m + 1):
            d = random_two_level_design(rng, m, n)
            assert _classified(d) == _coefficient_route_classify(d), d.runs
    for m in range(2, 13):
        for _ in range(4):
            k = rng.randint(1, m - 1)
            words = random_words(rng, m, k)
            runs = regular_design_from_words(m, words).runs
            subset = rng.sample(runs, rng.randint(1, len(runs)))
            for d in (Design(m, 2, runs, "pm1"), Design(m, 2, tuple(subset), "pm1")):
                assert _classified(d) == _coefficient_route_classify(d), d.runs


def test_classification_beyond_the_indicator_cap():
    # m = 24 is past the transform cap; the words come from the runs alone
    rng = random.Random(24)
    words = random_words(rng, 24, 12)
    d = regular_design_from_words(24, words)
    assert d.n == 4096
    cls = classify_design(d)
    assert (cls.tag, cls.diagnostic) == ("regular", None)
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


def _reference_walsh_hadamard(values):
    """One Python int per entry, in constant geometry: each of the log2(n)
    passes applies the kernel to the lowest index bit and moves that bit to
    the top, so after the last pass every bit is back in place."""
    out = list(values)
    for _ in range(len(out).bit_length() - 1):
        even, odd = out[::2], out[1::2]
        out = [*map(operator.add, even, odd), *map(operator.sub, even, odd)]
    return out


def test_walsh_hadamard_matches_reference():
    # 0/1 tables and small values take 32-bit lanes, |v| >= 2^29 64-bit ones;
    # from m = 11 (32-bit) or m = 10 (64-bit) the table spans several chunks
    rng = random.Random(1714)
    for m in range(15):
        n = 1 << m
        for v in (
            [rng.randint(0, 1) for _ in range(n)],
            [rng.randint(-9, 9) for _ in range(n)],
            [rng.choice((-1, 1)) * rng.randint(2**29, 2**40) for _ in range(n)],
        ):
            assert indicators._walsh_hadamard(v) == _reference_walsh_hadamard(v)


@pytest.mark.parametrize("total", [2**29 - 1, 2**29, 2**61 - 1])
def test_walsh_hadamard_at_the_lane_bounds(total):
    # every output reaches +-total for one concentrated input; random signs
    # spread the same total over the table
    rng = random.Random(total)
    for m in (0, 3, 11):
        n = 1 << m
        for sign in (1, -1):
            v = [0] * n
            v[rng.randrange(n)] = sign * total
            assert indicators._walsh_hadamard(v) == _reference_walsh_hadamard(v)
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        v = [rng.choice((-1, 1)) * (b - a) for a, b in zip([0, *cuts], [*cuts, total])]
        assert sum(map(abs, v)) == total
        assert indicators._walsh_hadamard(v) == _reference_walsh_hadamard(v)


def test_walsh_hadamard_refuses_inputs_past_64_bit_lanes():
    for v in ([2**61], [2**60, 0, -(2**60), 0]):
        with pytest.raises(ScaleError, match="past the 2\\^61"):
            indicators._walsh_hadamard(v)


def test_indicator_spot_checks_at_large_m():
    # b_a against the defining sum on the runs, for 25 terms of the indicator
    # and 25 random a (mostly zero), and the round trip; on a regular fraction
    # and on a union of three random cosets of its run group: a non-regular
    # design whose 2^12 possible terms keep the Fraction work small next to
    # the 2^m-entry transform
    rng = random.Random(2018)
    for m in (18, 20):
        bits_list = []
        while len(bits_list) < 12:
            w = tuple(rng.randint(0, 1) for _ in range(m))
            if any(w) and gf2_independent(bits_list + [w]):
                bits_list.append(w)
        cosets = [
            regular_design_from_words(m, [Word(w, rng.choice((-1, 1))) for w in bits_list])
            for _ in range(3)
        ]
        union = {run for coset in cosets for run in coset.runs}
        assert len(union) == 3 * cosets[0].n
        for d in (cosets[0], Design(m, 2, tuple(union), "pm1")):
            f = indicator_from_design(d)
            terms = rng.sample(sorted(f.coeffs), min(25, len(f.coeffs)))
            for a in terms + [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(25)]:
                total = sum(math.prod(itertools.compress(x, a)) for x in d.runs)
                assert f.coefficient(a) == Fraction(total, 2**m)
            assert design_from_indicator(f).runs == tuple(sorted(d.runs))


def test_walsh_hadamard_matches_the_defining_sum():
    rng = random.Random(64)
    for m in range(7):
        n = 1 << m
        v = [rng.randint(-9, 9) for _ in range(n)]
        expected = [
            sum((-1) ** bin(a & x).count("1") * v[x] for x in range(n))
            for a in range(n)
        ]
        assert indicators._walsh_hadamard(v) == expected


# -- the transforms over the span against the full 2^m transforms -------------


def _reference_indicator(d):
    """The forward transform over all 2^m entries: the 0/1 table of the runs,
    one transform, and the coefficients read off the product at its nonzero
    entries."""
    m = d.m
    table = [0] * (1 << m)
    for run in d.runs:
        table[product_index(run, RUN_LEVELS)] = 1
    spectrum = _reference_walsh_hadamard(table)
    keys = itertools.compress(itertools.product(WORD_LEVELS, repeat=m), spectrum)
    return IndicatorFunction(m, zip(keys, (Fraction(v, 1 << m) for v in spectrum if v)))


def _reference_design(f):
    """The inverse over all 2^m entries, with its checks in their order: each
    distinct coefficient object above 1 in absolute value, then its
    denominator, then the values at the 2^m runs, then the empty set of runs."""
    m = f.m
    denom = 1 << m
    scaled = [0] * denom
    checked = {}
    for bits, c in f.coeffs.items():
        if id(c) not in checked:
            checked[id(c)] = c
            owner = next(b for b, v in f.coeffs.items() if v is c)
            if abs(c.numerator) > c.denominator:
                raise InvalidIndicatorError(
                    f"coefficient {c} of {indicators.monomial_name(owner)} exceeds 1 in "
                    "absolute value, so it cannot belong to a 0/1-valued indicator")
            if denom % c.denominator:
                raise InvalidIndicatorError(
                    f"coefficient {c} cannot belong to a 0/1-valued indicator")
        scaled[product_index(bits, WORD_LEVELS)] = int(c * denom)
    values = _reference_walsh_hadamard(scaled)
    for v in values:
        if v not in (0, denom):
            raise InvalidIndicatorError(
                f"polynomial is not 0/1-valued on the full factorial (value {Fraction(v, denom)})")
    runs = tuple(itertools.compress(
        itertools.product(RUN_LEVELS[::-1], repeat=m), reversed(values)))
    if not runs:
        raise InvalidIndicatorError("indicator is identically zero")
    return Design(m, 2, runs, "pm1")


def _span_corpus(rng):
    """Designs on m = 1..10 factors of every affine dimension: random subsets,
    regular fractions for every number k of words (k = 0 is the full factorial,
    k = m a single run), random subsets of them, unions of cosets of one run
    group, a single run and the full factorial; runs shuffled."""
    for m in range(1, 11):
        pool = list(full_factorial(m).runs)
        cases = [[rng.choice(pool)], pool]
        cases += [rng.sample(pool, rng.randint(1, len(pool))) for _ in range(3)]
        for k in range(m + 1):
            words = random_words(rng, m, k)
            runs = regular_design_from_words(m, words).runs
            cases += [runs, rng.sample(runs, rng.randint(1, len(runs)))]
            signs = rng.sample(list(itertools.product((-1, 1), repeat=k)),
                               rng.randint(1, 2**k))
            cases.append([run for sign in signs for run in regular_design_from_words(
                m, [Word(w.bits, c) for w, c in zip(words, sign)]).runs])
        for runs in cases:
            runs = list(runs)
            rng.shuffle(runs)
            yield Design(m, 2, tuple(runs), "pm1")


def test_transforms_over_the_span_match_the_full_transforms():
    rng = random.Random(3911)
    count = 0
    for _ in range(3):
        for d in _span_corpus(rng):
            f = indicator_from_design(d)
            # equal coefficients in the same key order
            assert list(f.coeffs.items()) == list(_reference_indicator(d).coeffs.items()), d.runs
            assert design_from_indicator(f).runs == _reference_design(f).runs
            count += 1
    assert count >= 600


def _outcome(call, f):
    try:
        return call(f).runs
    except InvalidIndicatorError as error:
        return str(error)


def test_invalid_indicators_on_a_span_fail_as_over_the_full_factorial():
    # a regular indicator spans k < m dimensions; with one coefficient halved,
    # negated or dropped it is mostly no indicator (negating x^w at k = 1 gives
    # the other half), and the error names the value at the lowest run of the
    # full factorial where it is not 0 or 1
    rng = random.Random(3912)
    invalid = 0
    while invalid < 240:
        m = rng.randint(2, 10)
        words = random_words(rng, m, rng.randint(1, m - 1))
        f = indicator_from_design(regular_design_from_words(m, words))
        key = rng.choice(list(f.coeffs))
        change = rng.choice((lambda c: c / 2, operator.neg, lambda c: 0))
        g = IndicatorFunction(m, {**f.coeffs, key: change(f.coeffs[key])})
        expected = _outcome(_reference_design, g)
        assert _outcome(design_from_indicator, g) == expected
        invalid += isinstance(expected, str)


def test_the_lowest_failing_run_names_the_value():
    # x1/4 - x2/4 on 3 factors spans 2 dimensions; it is 0 at (1,1,.), 1/2 at
    # (1,-1,.), the lower run, and -1/2 at (-1,1,.)
    f = IndicatorFunction(3, {term(3, 1): Fraction(1, 4), term(3, 2): Fraction(-1, 4)})
    message = "polynomial is not 0/1-valued on the full factorial (value 1/2)"
    assert _outcome(_reference_design, f) == _outcome(design_from_indicator, f) == message


@pytest.mark.parametrize("coeffs", [
    {},
    {(0, 0, 0): Fraction(1, 2)},
    {(0, 0, 0): Fraction(1, 2), (1, 1, 0): Fraction(3, 2), (0, 1, 1): Fraction(1, 3)},
    {(0, 0, 0): Fraction(1, 2), (1, 1, 0): Fraction(1, 3), (0, 1, 1): Fraction(3, 2)},
    {(0, 0, 0): Fraction(1, 16), (1, 1, 0): Fraction(1, 2)},
    {(0, 0, 0): Fraction(-1, 2), (1, 1, 0): Fraction(1, 2)},
])
def test_coefficient_and_empty_checks_keep_their_order(coeffs):
    f = IndicatorFunction(3, coeffs)
    expected = _outcome(_reference_design, f)
    assert isinstance(expected, str)
    assert _outcome(design_from_indicator, f) == expected


def test_zero_factors_keep_their_errors():
    for coeffs, error in (({}, InvalidIndicatorError), ({(): 1}, InputError),
                          ({(): Fraction(1, 2)}, InvalidIndicatorError)):
        f = IndicatorFunction(0, coeffs)
        with pytest.raises(error) as got:
            design_from_indicator(f)
        with pytest.raises(error) as want:
            _reference_design(f)
        assert str(got.value) == str(want.value)


def test_transforms_run_over_the_span(monkeypatch):
    # the inputs' lengths, counted: 2^r forward for r the dimension of the
    # runs' affine span, 2^s inverse for s that of the exponents' span; n = 2^r
    # runs (a regular fraction, a single run) fill the projected table, so
    # the forward neither reads their indices nor transforms
    lengths, reads = [], []
    transform, base2_reads = indicators._walsh_hadamard, indicators._base2_reads
    monkeypatch.setattr(indicators, "_walsh_hadamard",
                        lambda values: lengths.append(len(values)) or transform(values))
    monkeypatch.setattr(indicators, "_base2_reads",
                        lambda *args: reads.append(args[2]) or base2_reads(*args))
    rng = random.Random(3913)
    regular = regular_design_from_words(16, random_words(rng, 16, 3))
    f = indicator_from_design(regular)
    assert (lengths, reads) == ([], [])
    assert design_from_indicator(f) == regular
    assert lengths == [2**3]
    lengths.clear()
    reads.clear()
    indicator_from_design(Design(10, 2, ((1, -1) * 5,), "pm1"))
    assert (lengths, reads) == ([], [])
    dense = random_two_level_design(rng, 8, 40)
    assert classify_design(dense).tag == "affinely-full-dimensional"
    assert design_from_indicator(indicator_from_design(dense)) == Design(8, 2, dense.runs, "pm1")
    assert lengths == [2**8, 2**8]


def _peak(call, arg):
    tracemalloc.start()
    try:
        out = call(arg)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_word_groups_build_no_table_over_all_factors():
    # a 2^(20-12) fraction: 256 runs and 4 096 terms, spread over the group
    # of its 12 words; a list of 2^20 entries alone takes 8 MB
    d = regular_design_from_words(20, random_words(random.Random(3914), 20, 12))
    f, forward = _peak(indicator_from_design, d)
    back, inverse = _peak(design_from_indicator, f)
    assert (len(f.coeffs), back) == (4096, d)
    assert forward < 4 << 20 and inverse < 4 << 20, (forward, inverse)
