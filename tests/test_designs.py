import itertools
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import algdoe
from algdoe import (
    Design,
    InputError,
    RankError,
    ScaleError,
    TermOrder,
    Word,
    alias_table,
    buchberger,
    build_covariate_matrix,
    classify_design,
    design_ideal,
    est_monomials,
    format_design,
    full_factorial,
    indicator_from_design,
    is_confounded,
    parse_design,
    point_ideal_intersection,
    regular_design_from_words,
    standard_monomials,
)
from algdoe import designs, groebner
from algdoe.designs import (
    RUN_LEVELS,
    WORD_LEVELS,
    _base2_reads,
    _product,
    _unpack,
    parse_monomial,
    parse_signed_monomial,
    product_index,
    read_header,
)
from algdoe.errors import int_bits
from algdoe.groebner import normal_form, reduce_basis, spolynomials_reduce_to_zero
from algdoe.linalg import gf2_dependencies
from algdoe.orders import monomial_name

from conftest import (L8_WORDS, extend_design, gf2_independent, product_element,
                      random_two_level_design, term)


def test_index_map_is_the_product_position():
    for m in range(9):
        for levels in (RUN_LEVELS, WORD_LEVELS):
            for idx, element in enumerate(itertools.product(levels, repeat=m)):
                assert product_index(element, levels) == idx
                assert product_element(idx, m, levels) == element
            # the batch decoder, in one call, in any order, with repeats
            elements = list(itertools.product(levels, repeat=m))
            assert _unpack(range(2**m), m, levels) == elements
            assert _unpack([0, 2**m - 1, 0], m, levels) == [elements[0], elements[-1], elements[0]]
            assert _unpack([], m, levels) == []


def test_batch_decoder_matches_the_string_decoder():
    # the decoder _unpack replaced, kept as its reference, on wide keys
    def by_bin(idx, m, levels):
        return tuple([levels[c == "1"] for c in bin(idx | 1 << m)[3:]])

    rng = random.Random(4444)
    for m in (1, 16, 33):
        for levels in (RUN_LEVELS, WORD_LEVELS):
            keys = [rng.getrandbits(m) for _ in range(500)]
            got = _unpack(keys, m, levels)
            assert got == [by_bin(i, m, levels) for i in keys]
            assert {type(v) for e in got for v in e} == {int}


def test_packed_digits_read_in_base_2_are_the_product_positions():
    # the one encoder: random runs and exponent tuples, read back as their
    # product positions; exponents that equal 0 and 1 but are not ints are
    # no bytes, so the packing refuses a float, and int_bits reads them all
    # as the ints they equal
    rng = random.Random(4203)
    same = {0: (0, 0.0, False), 1: (1, True, 1.0)}
    for m in range(9):
        for levels in (RUN_LEVELS, WORD_LEVELS):
            table = list(itertools.product(levels, repeat=m))
            for count in (0, 1, rng.randint(2, 40)):
                elements = rng.choices(table, k=count)
                if levels == WORD_LEVELS and rng.random() < 0.5:
                    given = [tuple(rng.choice(same[v]) for v in e) for e in elements]
                    read = [int_bits(e) for e in given]
                    assert read == elements and {type(v) for e in read for v in e} <= {int}
                    if any(type(v) is float for e in given for v in e):
                        with pytest.raises(TypeError):
                            designs._pack(given, levels)
                digits = designs._pack(elements, levels)
                assert len(digits) == m * count
                positions = [table.index(e) for e in elements]
                assert [product_index(e, levels) for e in elements] == positions
                assert _base2_reads(digits, count, range(m)) == positions


def test_regular_design_reproduces_published_table(l8):
    built = regular_design_from_words(7, L8_WORDS)
    assert built.runs == l8.runs


def test_regular_design_small_fixtures(f1):
    assert regular_design_from_words(3, [Word((1, 1, 1), 1)]).runs == tuple(
        sorted(f1.runs)
    )
    assert regular_design_from_words(3, []).runs == full_factorial(3).runs


def test_regular_design_matches_full_factorial_filter():
    # every m at no word and at m words (one run), then 300 seeded sizes; each
    # word's sign drawn at random
    rng = random.Random(41)
    sizes = [(m, k) for m in range(1, 13) for k in (0, m)]
    sizes += [(m, rng.randint(0, m)) for m in (rng.randint(1, 12) for _ in range(300))]
    for m, k in sizes:
        words = []
        while len(words) < k:
            bits = tuple(rng.randint(0, 1) for _ in range(m))
            if any(bits) and gf2_independent([w.bits for w in words] + [bits]):
                words.append(Word(bits, rng.choice((-1, 1))))
        expected = tuple(
            point
            for point in itertools.product((-1, 1), repeat=m)
            if all(
                math.prod(v for v, b in zip(point, w.bits) if b) == w.sign
                for w in words
            )
        )
        assert regular_design_from_words(m, words).runs == expected


def test_regular_design_input_checks():
    with pytest.raises(InputError):
        regular_design_from_words(3, [Word((1, 1), 1)])
    with pytest.raises(ScaleError):
        regular_design_from_words(21, [])


def test_regular_design_run_cap_not_factor_cap():
    # 24 factors and 12 independent words: a 4096-run fraction, accepted
    # because the cap is on the run count
    rng = random.Random(24)
    words = []
    while len(words) < 12:
        w = Word(tuple(rng.randint(0, 1) for _ in range(24)), rng.choice((-1, 1)))
        if any(w.bits) and gf2_independent([v.bits for v in words] + [w.bits]):
            words.append(w)
    d = regular_design_from_words(24, words)
    assert d.n == 4096
    assert list(d.runs) == sorted(d.runs)
    for w in words:
        for run in d.runs:
            assert math.prod(v for v, b in zip(run, w.bits) if b) == w.sign
    with pytest.raises(ScaleError, match=r"2\^21 runs"):
        regular_design_from_words(21, [])


def test_run_cap_names_the_count_symbolically():
    # 2^20000 has more digits than Python's int-to-str limit allows
    with pytest.raises(ScaleError, match=r"2\^20000 runs"):
        regular_design_from_words(20000, [])


def test_dependent_words_rejected():
    # x1x3 = x1x2 * x2x3: dependent with the sign that follows, and with the other
    for sign in (1, -1):
        with pytest.raises(RankError):
            regular_design_from_words(
                3, [Word((1, 1, 0), 1), Word((0, 1, 1), 1), Word((1, 0, 1), sign)]
            )
    # dependence is refused before the run cap, which 2^28 runs also exceed
    word = Word((1, 1) + (0,) * 28, 1)
    with pytest.raises(RankError):
        regular_design_from_words(30, [word, word])


def test_design_validation():
    with pytest.raises(InputError):
        Design(2, 2, ((1, 1), (1, 1)), "pm1")  # replicated
    with pytest.raises(InputError):
        Design(2, 2, ((1, 0),), "pm1")  # bad level
    with pytest.raises(InputError):
        Design(2, 4, ((0, 0),), "integer")  # composite level count
    with pytest.raises(InputError):
        Design(2, 3, ((1, 1),), "pm1")  # coding mismatch


@pytest.mark.parametrize("args, match", [
    ((0, 2, ((),), "pm1"), "at least one factor"),
    ((1, 3, ((0,),), "binary"), "unknown coding 'binary'"),
    ((1, 2, ((0,), (1,)), "integer"), "two-level designs use plus-minus-one coding"),
    ((1, 2, (), "pm1"), "at least one run"),
    ((2, 2, ((1, 1), (1,)), "pm1"), r"run \(1,\) has wrong length"),
])
def test_design_input_errors(args, match):
    with pytest.raises(InputError, match=match):
        Design(*args)


@pytest.mark.parametrize("bits, sign, match", [
    ((1, 0), 0, "sign must be"),
    ((1, 2), 1, "exponents must be 0/1"),
    ((0, 0), 1, "empty word"),
])
def test_word_input_errors(bits, sign, match):
    with pytest.raises(InputError, match=match):
        Word(bits, sign)


@pytest.mark.parametrize("call, match", [
    (lambda d: is_confounded((1, 0), (0, 1), d), "confounding analysis is defined for two-level"),
    (lambda d: alias_table(d), "alias tables are defined for two-level"),
    (lambda d: design_ideal(d, TermOrder.grevlex(2)), "need coding=complex for ideals"),
    (lambda d: design_ideal(Design(2, 3, d.runs, "complex"), TermOrder.lex(3)),
     "term order universe does not match"),
])
def test_three_level_operation_errors(call, match):
    with pytest.raises(InputError, match=match):
        call(Design(2, 3, ((0, 0), (1, 2)), "integer"))


LEVEL_SAMPLE = [
    0, 1, 2, -1, 3, 4, True, False, 2.0, 4.0, -0.0, Fraction(2), Fraction(1, 2),
    Decimal(1), Decimal("1.5"), Decimal("NaN"), Decimal("Infinity"), 0.5, "1", None,
    float("nan"), float("inf"), -float("inf"), complex(1, 0), complex(1, 1), b"1", (1,),
]


@pytest.mark.parametrize("s", [3, 5])
def test_integer_levels_are_what_range_contains(s):
    for v in LEVEL_SAMPLE:
        try:
            Design(1, s, ((v,),), "integer")
            accepted = True
        except InputError:
            accepted = False
        assert accepted == (v in range(s)), v


@pytest.mark.parametrize("s", [2, 3, 5])
def test_accepted_levels_are_stored_as_ints(s):
    valid = (-1, 1) if s == 2 else range(s)
    coding = "pm1" if s == 2 else "integer"
    for v in LEVEL_SAMPLE:
        if v in valid:
            other = next(w for w in valid if w != v)
            d = Design(2, s, ((v, other), (other, v)), coding)
            assert all(type(a) is int for run in d.runs for a in run), v
            assert d.runs == ((v, other), (other, v))
            assert parse_design(format_design(d)) == d
    # True equals the int level 1 that comes before it in the table
    low = valid[0]
    assert type(Design(2, s, ((1, low), (low, True)), coding).runs[1][1]) is int


def test_complex_ideal_of_non_int_levels_is_that_of_their_ints():
    order = TermOrder.lex(1)
    # the ideal is cached per design, and equal designs share an entry
    designs._design_ideal.cache_clear()
    got = design_ideal(Design(1, 3, ((Fraction(1),), (2.0,), (0,)), "complex"), order)
    designs._design_ideal.cache_clear()
    assert got == design_ideal(Design(1, 3, ((1,), (2,), (0,)), "complex"), order)


def test_runs_held_in_lists_are_stored_as_a_tuple_of_tuples():
    # a design kept a list as given, so it could not be hashed by the ideal's
    # cache, nor its list runs by the replicated-runs check
    order = TermOrder.grevlex(2)
    d = Design(2, 2, ((1, 1), (-1, 1), (1, -1)), "pm1")
    for runs in ([(1, 1), (-1, 1), (1, -1)], [[1, 1], [-1, 1], [1, -1]],
                 ([1, 1], [-1, 1], [1.0, -1])):
        given = Design(2, 2, runs, "pm1")
        assert given == d and type(given.runs) is tuple
        assert all(type(run) is tuple for run in given.runs)
        assert design_ideal(given, order) == design_ideal(d, order)
    assert Design(2, 2, d.runs, "pm1").runs is d.runs  # a tuple of tuples is kept
    assert Design(1, 3, [[0], [2]], "complex").runs == ((0,), (2,))
    with pytest.raises(InputError, match="^replicated runs are not allowed$"):
        Design(2, 2, [[1, 1], [1, 1]], "pm1")
    with pytest.raises(InputError, match=r"^run \(1, 0\) has an invalid coded level$"):
        Design(2, 2, [[1, 1], [1, 0]], "pm1")


class _CountingFloat(float):
    """A float that counts the equality tests made on it."""

    calls = 0

    def __eq__(self, other):
        _CountingFloat.calls += 1
        return float.__eq__(self, other)

    __hash__ = float.__hash__


def test_level_test_is_not_a_scan_of_range():
    # range(s) would compare a non-int level with each of its s items
    s = 10000019
    _CountingFloat.calls = 0
    with pytest.raises(InputError, match="invalid coded level"):
        Design(1, s, ((_CountingFloat(0.5),),), "integer")
    assert _CountingFloat.calls <= 2  # the table check, then naming the run
    _CountingFloat.calls = 0
    assert Design(1, s, ((0,), (_CountingFloat(s - 1),)), "integer").n == 2
    assert _CountingFloat.calls <= 1


def test_fifteen_digit_prime_level_count():
    assert Design(1, 100000000000031, ((0,), (5,)), "integer").s == 100000000000031


LARGE_PRIME_LEVELS_PROBE = """
import sys
from algdoe import Design, InputError
from algdoe.cli import run
s = 1000000000039
assert Design(1, s, ((0,), (5,)), "integer").s == s
try:
    Design(1, s, ((s,),), "integer")
except InputError:
    pass
else:
    raise AssertionError("a level equal to s was accepted")
sys.exit(run(["classify", "--design", sys.argv[1]]))
"""


def test_large_prime_level_count_checks_levels_one_by_one(tmp_path):
    # a set of all s levels would not fit in memory; the probe runs in a child
    # process under a 1 GB address-space limit, so such a set fails fast there
    resource = pytest.importorskip("resource")
    path = tmp_path / "large-s.design"
    path.write_text("m=1 s=1000000000039 coding=integer\n0\n")
    env = dict(os.environ)
    src = str(Path(algdoe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-c", LARGE_PRIME_LEVELS_PROBE, str(path)], env=env,
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=120,
    )
    # classify refuses the design as an input error (exit 2), not by dying
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr


def test_design_file_round_trip(l8, three_level_integer):
    for d in (l8, three_level_integer):
        assert parse_design(format_design(d)) == d


def test_design_ideal_lex_fixture(l8):
    lex = TermOrder.lex(7)
    gb = design_ideal(l8, lex)
    assert {g.text(lex) for g in gb.elements} == {
        "x7^2-1", "x6^2-1", "x5^2-1",
        "x3+x5*x6", "x2+x5*x7", "x1+x6*x7", "x4-x5*x6*x7",
    }


def test_design_ideal_single_run():
    d = Design(3, 2, ((1, 1, 1),), "pm1")
    lex = TermOrder.lex(3)
    gb = design_ideal(d, lex)
    assert {g.text(lex) for g in gb.elements} == {"x1-1", "x2-1", "x3-1"}


def test_design_ideal_equals_word_presentation(l8):
    # the obvious generators (squares + defining words) present the same ideal
    from algdoe import buchberger
    from algdoe.polynomials import PolyRing

    R = PolyRing(l8.var_names)
    lex = TermOrder.lex(7)
    gens = [R.parse(f"x{i}^2-1") for i in range(1, 8)] + [
        R.parse("x1*x2*x3+1"),
        R.parse("x1*x4*x5+1"),
        R.parse("x2*x4*x6+1"),
        R.parse("x1*x2*x4*x7-1"),
    ]
    direct = buchberger(gens, lex)
    via_points = design_ideal(l8, lex)
    assert [g.terms for g in direct.elements] == [g.terms for g in via_points.elements]


def test_est_fixtures(l8):
    lex_set = est_monomials(l8, TermOrder.lex(7))
    assert [monomial_name(m) for m in lex_set] == [
        "1", "x7", "x6", "x6*x7", "x5", "x5*x7", "x5*x6", "x5*x6*x7",
    ]
    grev_set = est_monomials(l8, TermOrder.grevlex(7))
    assert [monomial_name(m) for m in grev_set] == [
        "1", "x7", "x6", "x5", "x4", "x3", "x2", "x1",
    ]
    single = Design(3, 2, ((1, 1, 1),), "pm1")
    assert est_monomials(single, TermOrder.lex(3)) == ((0, 0, 0),)


def test_est_cardinality_random_orders(l8):
    rng = random.Random(7)
    for _ in range(6):
        kind = rng.choice(["lex", "grlex", "grevlex"])
        precedence = tuple(rng.sample(range(7), 7))
        order = TermOrder(kind, precedence)
        assert len(est_monomials(l8, order)) == l8.n


def test_est_twenty_factors_no_box_cap():
    # the pure squares bound a box of 2^20 monomials, but only 24 are standard
    rng = random.Random(2020)
    runs = set()
    while len(runs) < 24:
        runs.add(tuple(rng.choice((-1, 1)) for _ in range(20)))
    d = Design(20, 2, tuple(sorted(runs)), "pm1")
    est = est_monomials(d, TermOrder.grevlex(20))
    assert len(est) == 24
    assert est[0] == (0,) * 20
    assert all(sum(mono) == 1 for mono in est[1:21])


def test_est_block_order_matches_base_design(f1):
    # adding a factor y = x1*x2 and ordering {y} ahead of {x} leaves the
    # identifiable set of the base design unchanged
    from algdoe.indicators import FactorRelation

    ext = extend_design(f1, [FactorRelation(1, 1, (1, 1, 0))])
    tau = TermOrder.grevlex(3)
    sigma = TermOrder.block([((3,), "grevlex"), ((0, 1, 2), "grevlex")])
    est_tau = est_monomials(f1, tau)
    est_sigma = est_monomials(ext, sigma)
    projected = {m[:3] for m in est_sigma}
    assert {m for m in est_tau} == projected
    assert len(est_sigma) == ext.n == f1.n


def test_is_confounded_fixtures(l8, d22):
    assert is_confounded(term(7, 3), term(7, 1, 2), l8) == -1
    assert is_confounded(term(7, 1), term(7, 1), l8) == 1
    assert is_confounded(term(2, 1), term(2, 2), d22) is None


def _membership_answer(a1, a2, gb):
    """+1 or -1 when x^a1 -+ x^a2 has normal form zero modulo the design
    ideal, None when neither does."""
    x1, x2 = gb.ring.monomial(a1), gb.ring.monomial(a2)
    for sign in (1, -1):
        if normal_form(x1 - sign * x2, gb.elements, gb.order)[0].is_zero():
            return sign
    return None


def _evaluation_answer(a1, a2, d):
    values = {
        math.prod(itertools.compress(run, a1)) * math.prod(itertools.compress(run, a2))
        for run in d.runs
    }
    return values.pop() if len(values) == 1 else None


def test_confounding_membership_equals_evaluation_exhaustive(l8):
    gb = design_ideal(l8, TermOrder.grevlex(7))
    monos = [m for m in itertools.product((0, 1), repeat=7) if sum(m) <= 3]
    pairs = list(itertools.combinations(monos, 2))
    assert len(pairs) == 2016
    for a1, a2 in pairs:
        expected = _evaluation_answer(a1, a2, l8)
        assert _membership_answer(a1, a2, gb) == expected
        assert is_confounded(a1, a2, l8) == expected


def test_is_confounded_equals_membership_random_designs():
    # membership in the design ideal is the definition of complete
    # confounding; is_confounded decides by evaluation, under any order
    rng = random.Random(1616)
    answers = set()
    for _ in range(60):
        m = rng.randint(1, 7)
        d = random_two_level_design(rng, m, rng.randint(1, min(2**m, 12)))
        pairs = [
            tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(2))
            for _ in range(8)
        ]
        for order in (TermOrder.lex(m), TermOrder.grlex(m), TermOrder.grevlex(m)):
            gb = design_ideal(d, order)
            for a1, a2 in pairs:
                answer = is_confounded(a1, a2, d)
                assert answer == _membership_answer(a1, a2, gb), (d.runs, a1, a2)
                answers.add(answer)
    assert answers == {1, -1, None}


def test_alias_table_l8(l8):
    classes = alias_table(l8, 2)
    by_rep = {cls[0][0]: cls for cls in classes}
    x3_class = by_rep[term(7, 3)]
    assert (term(7, 1, 2), -1) in x3_class


def test_alias_table_full_factorial_all_singletons():
    classes = alias_table(full_factorial(3), 3)
    assert all(len(cls) == 1 for cls in classes)


def test_alias_table_w16_interactions_share_class(w16):
    classes = alias_table(w16, 2)
    cls = next(c for c in classes if (term(7, 1, 2), 1) in c or
               any(m == term(7, 1, 2) for m, _ in c))
    members = {m for m, _ in cls}
    assert term(7, 4, 5) in members


def test_alias_table_generates_only_low_degree_monomials():
    # 2^40 square-free monomials exist; only the 1 + 40 + 780 of degree <= 2
    # are generated, split by parity of degree on the runs (-1,...,-1), (1,...,1)
    d = Design(40, 2, ((-1,) * 40, (1,) * 40), "pm1")
    classes = alias_table(d, 2)
    assert sum(len(cls) for cls in classes) == 821
    assert len(classes) == 2
    assert [cls[0] for cls in classes] == [((0,) * 40, 1), (term(40, 1), 1)]


def _reading_key(mono):
    return sum(mono), tuple(-e for e in mono)


def test_alias_table_order_is_reading_order():
    # members and classes come out in (degree, reversed exponents) order of
    # the monomials and representatives, with no sort in alias_table
    rng = random.Random(311)
    for m in range(1, 12):
        d = random_two_level_design(rng, m, rng.randint(1, min(2**m, 16)))
        for max_degree in range(4):
            classes = alias_table(d, max_degree)
            for cls in classes:
                keys = [_reading_key(mono) for mono, _ in cls]
                assert keys == sorted(keys)
                assert cls[0][1] == 1
            reps = [_reading_key(cls[0][0]) for cls in classes]
            assert reps == sorted(reps)
            count = sum(math.comb(m, k) for k in range(max_degree + 1))
            assert sum(map(len, classes)) == count


def test_alias_table_rejects_negative_degree(l8):
    with pytest.raises(InputError, match="max_degree"):
        alias_table(l8, -1)


def _alias_classes_by_evaluation(d, max_degree):
    """alias_table's classes, keyed by each monomial's values on the runs
    times its value on the first run."""
    groups = {}
    for degree in range(max_degree + 1):
        for factors in itertools.combinations(range(d.m), degree):
            values = [math.prod(run[j] for j in factors) for run in d.runs]
            canon = tuple(v * values[0] for v in values)
            a = term(d.m, *(j + 1 for j in factors))
            groups.setdefault(canon, []).append((a, values[0]))
    return [[(a, s * members[0][1]) for a, s in members] for members in groups.values()]


def _shuffled_designs(rng):
    """Two-level designs past one 64-bit word of runs, in shuffled run order:
    full factorials, single runs, random subsets and regular fractions up to
    m = 16, each whole and as a random subset."""
    yield full_factorial(7)
    yield Design(16, 2, (tuple(rng.choice((-1, 1)) for _ in range(16)),), "pm1")
    for m in (1, 3):
        yield Design(m, 2, ((1,) * m,), "pm1")
    for m, n in ((7, 65), (8, 130), (9, 300), (10, 1000)):
        yield random_two_level_design(rng, m, n)
    for m, k in ((8, 1), (10, 3), (12, 5), (16, 9), (16, 7), (16, 3)):
        while True:
            bits = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(k)]
            if all(map(any, bits)) and gf2_independent(bits):
                break
        d = regular_design_from_words(m, [Word(b, rng.choice((-1, 1))) for b in bits])
        yield d
        yield Design(m, 2, tuple(rng.sample(d.runs, rng.randint(65, d.n - 1))), "pm1")


def test_packed_columns_match_evaluation_on_the_runs():
    # is_confounded and alias_table read packed columns; the reference
    # multiplies the factor values run by run
    rng = random.Random(1919)
    answers = set()
    for d in _shuffled_designs(rng):
        runs = list(d.runs)
        rng.shuffle(runs)
        d = Design(d.m, 2, tuple(runs), "pm1")
        max_degree = 1 if d.n > 2000 else 2
        classes = alias_table(d, max_degree)
        assert classes == _alias_classes_by_evaluation(d, max_degree), d.runs[:2]
        # random pairs, and pairs across each alias class, which are confounded
        pairs = [
            tuple(tuple(rng.randint(0, 1) for _ in range(d.m)) for _ in range(2))
            for _ in range(10)
        ]
        pairs += [(cls[0][0], a) for cls in classes for a, _ in cls[1:3]]
        for a1, a2 in pairs:
            answer = is_confounded(a1, a2, d)
            assert answer == _evaluation_answer(a1, a2, d), (a1, a2)
            answers.add(answer)
    assert answers == {1, -1, None}


def test_packed_table_matches_evaluation_on_the_runs():
    # a column's bit n-1-r is run r's value of x^a (set at -1), and run r's
    # index is its position in itertools.product(RUN_LEVELS, repeat=m)
    rng = random.Random(2020)
    for d in _shuffled_designs(rng):
        runs = list(d.runs)
        rng.shuffle(runs)
        d = Design(d.m, 2, tuple(runs), "pm1")
        columns = d._columns
        factors = [tuple(int(i == j) for i in range(d.m)) for j in range(d.m)]
        monos = factors + [tuple(rng.randint(0, 1) for _ in range(d.m)) for _ in range(5)]
        for a in monos:
            column = _product(columns, a)
            values = [-1 if column >> d.n - 1 - r & 1 else 1 for r in range(d.n)]
            assert values == [math.prod(itertools.compress(run, a)) for run in d.runs], a
        assert _base2_reads(d._digits, d.n, range(d.m)) == [
            product_index(run, RUN_LEVELS) for run in d.runs]
        # read at some factors alone, a run's index is that of its levels there
        kept = sorted(rng.sample(range(d.m), rng.randint(0, d.m)))
        assert _base2_reads(d._digits, d.n, kept) == [
            product_index([run[j] for j in kept], RUN_LEVELS) for run in d.runs]


class _ColumnCount(bytes):
    """A packed run table that records the factor of each column read off it."""

    def __getitem__(self, key):
        if isinstance(key, slice) and key.step == self.m:
            self.reads.append(key.start)
        return super().__getitem__(key)


def test_readers_pack_the_runs_once(l8, monkeypatch):
    # every two-level reader, in any order, reads the design's one packed
    # table, and its m columns off that table once; the forward transform
    # reads its run indices at the independent factors alone
    calls = []
    pack = designs._pack

    def counted(runs, levels):
        calls.append((runs, levels))
        table = _ColumnCount(pack(runs, levels))
        table.m, table.reads = len(runs[0]), []
        return table

    monkeypatch.setattr(designs, "_pack", counted)
    queries = [(term(7, 1), term(7, 2, 3)), (term(7, 4), term(7, 5)), (term(7), term(7, 1, 6, 7))]
    readers = [
        lambda d: [is_confounded(a1, a2, d) for a1, a2 in queries],
        alias_table,
        classify_design,
        indicator_from_design,
        lambda d: build_covariate_matrix(d, [term(7), term(7, 1), term(7, 4), term(7, 1, 4)]),
    ]
    for order in itertools.permutations(readers):
        d = Design(7, 2, l8.runs[:6], "pm1")
        for read in order:
            read(d)
        assert calls == [(d.runs, RUN_LEVELS)]
        calls.clear()
        free = gf2_dependencies(d._columns, d.n)[1]
        assert len(free) == 3
        assert sorted(d._digits.reads) == sorted([*range(d.m), *free])


def test_design_ideal_of_the_int_runs_is_that_of_their_fractions():
    # a pm1 design's points are its int runs; the same runs as Fractions give
    # the same generators, term order and coefficient types included
    rng = random.Random(4141)
    for _ in range(40):
        d = random_two_level_design(rng, rng.randint(1, 4))
        order = TermOrder.grevlex(d.m, tuple(rng.sample(range(d.m), d.m)))
        assert d.points() == list(d.runs)
        fractions = [tuple(map(Fraction, run)) for run in d.runs]
        got, want = design_ideal(d, order), point_ideal_intersection(fractions, x_order=order)
        assert [list(g.terms.items()) for g in got.elements] == [
            list(g.terms.items()) for g in want.elements]
        assert {type(c) for g in got.elements for c in g.terms.values()} == {Fraction}


def _est_route_corpus():
    """320 seeded designs, each with an order: random and regular pm1
    fractions in m <= 7 factors and complex designs over Q(w3) and Q(w5) in
    m <= 3, under lex, grevlex, a two-block order, or a kind with a shuffled
    precedence as ``--vars`` gives it."""
    rng = random.Random(4404)
    for i in range(320):
        kind = ("random", "regular", "complex")[i % 3]
        if kind == "random":
            m = rng.randint(1, 7)
            d = random_two_level_design(rng, m, rng.randint(1, min(2**m, 32)))
        elif kind == "regular":
            m = rng.randint(2, 7)
            k, words = rng.randint(1, m - 1), []
            while len(words) < k:
                bits = tuple(rng.randint(0, 1) for _ in range(m))
                if any(bits) and gf2_independent([w.bits for w in words] + [bits]):
                    words.append(Word(bits, rng.choice((1, -1))))
            d = regular_design_from_words(m, words)
        else:
            m, s = rng.randint(1, 3), rng.choice((3, 5))
            pool = list(itertools.product(range(s), repeat=m))
            d = Design(m, s, tuple(rng.sample(pool, rng.randint(1, min(len(pool), 12)))), "complex")
        h = rng.randint(1, m - 1) if m > 1 else 1
        order = (
            TermOrder.lex(m),
            TermOrder.grevlex(m),
            TermOrder.block([(range(h), "grevlex"), (range(h, m), "lex")]) if m > 1
            else TermOrder.grlex(1),
            TermOrder(rng.choice(("lex", "grlex", "grevlex")), tuple(rng.sample(range(m), m))),
        )[i // 3 % 4]
        yield kind, d, order


def test_est_of_the_walk_is_the_staircase_of_its_basis():
    # the second route to Est: the standard monomials of the basis, walked
    # from its leads and sorted
    kinds = {}
    for i, (kind, d, order) in enumerate(_est_route_corpus()):
        est = est_monomials(d, order)
        G = design_ideal(d, order)
        assert est == standard_monomials(G), (kind, d, order)
        if kind == "complex" and i % 5 == 0:
            # the levels the walk reads give the basis of the points w^k
            assert G == point_ideal_intersection(d.points(), d.field(), x_order=order)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) >= 100


def test_one_staircase_walk_per_cold_design_ideal_and_none_for_a_cached_est(
    monkeypatch, l8, three_level_complex
):
    walks = []
    staircase = groebner._staircase

    def walk(*args):
        walks.append(args)
        return staircase(*args)

    monkeypatch.setattr(groebner, "_staircase", walk)
    for d, order in ((l8, TermOrder.grevlex(7)), (three_level_complex, TermOrder.lex(3))):
        for first, second in ((design_ideal, est_monomials), (est_monomials, design_ideal)):
            designs._design_ideal.cache_clear()
            walks.clear()
            first(d, order)
            second(d, order)
            # the certificate's walk, stopped after n monomials
            assert [args[2] for args in walks] == [d.n]
            est = est_monomials(d, order)
            assert est_monomials(d, order) is est
            assert len(walks) == 1


def test_complex_design_ideal_builds_no_point(monkeypatch, three_level_complex):
    def called(*args):
        raise AssertionError("a point or a root of unity was built or read back")

    order = TermOrder.grevlex(3)
    want = point_ideal_intersection(
        three_level_complex.points(), three_level_complex.field(), x_order=order)
    designs._design_ideal.cache_clear()
    monkeypatch.setattr(Design, "points", called)
    monkeypatch.setattr(groebner, "_levels", called)
    monkeypatch.setattr(groebner, "omega", called)
    assert design_ideal(three_level_complex, order) == want
    assert len(est_monomials(three_level_complex, order)) == three_level_complex.n


def test_random_designs_est_size_matches_runs():
    rng = random.Random(123)
    for _ in range(5):
        d = random_two_level_design(rng, rng.randint(2, 4))
        order = TermOrder.grevlex(d.m, tuple(rng.sample(range(d.m), d.m)))
        assert len(est_monomials(d, order)) == d.n


def test_parse_monomial():
    assert parse_monomial("x1*x3", 3) == (1, 0, 1)
    assert parse_monomial("1", 3) == (0, 0, 0)
    with pytest.raises(InputError):
        parse_monomial("x9", 3)


@pytest.mark.parametrize(
    "text, expected",
    [("1", (0, 0, 0)), ("x1*x1", (2, 0, 0)), (" x1 * x3^2 ", (1, 0, 2)), ("(1)*x2", (0, 1, 0))],
)
def test_monomials_accepted(text, expected):
    assert parse_monomial(text, 3) == expected


@pytest.mark.parametrize("text", ["2*x1", "-x1", "x1+x2", "x0", "(w)*x1", "x1*x2-x1*x2", ""])
def test_monomials_rejected(text):
    with pytest.raises(InputError):
        parse_monomial(text, 3)


@pytest.mark.parametrize(
    "text, expected",
    [("-x1*x2", ((1, 1, 0), -1)), ("+x3", ((0, 0, 1), 1)), ("x2", ((0, 1, 0), 1))],
)
def test_relations_accepted(text, expected):
    assert parse_signed_monomial(text, 3) == expected


@pytest.mark.parametrize("text", ["2*x1", "-1/2*x1", "x1-x2", "x4", "(w)"])
def test_relations_rejected(text):
    with pytest.raises(InputError):
        parse_signed_monomial(text, 3)


def test_read_header_fields_and_body():
    header, body = read_header("\n order=lex  vars=x,y \n\n x^2-1 \ny\n", "generator", ("vars",))
    assert header == {"order": "lex", "vars": "x,y"}
    assert body == ["x^2-1", "y"]


@pytest.mark.parametrize("text", ["", "order=lex\nx\n", "vars\nx\n"])
def test_read_header_missing_key(text):
    with pytest.raises(InputError):
        read_header(text, "generator", ("vars",))


def test_design_ideal_bases_certify(l8, f2):
    from algdoe.groebner import spolynomials_reduce_to_zero

    for d, order in ((l8, TermOrder.lex(7)), (f2, TermOrder.grevlex(3))):
        gb = design_ideal(d, order)
        assert reduce_basis(gb).elements == gb.elements
        assert spolynomials_reduce_to_zero(gb)


def _random_orders(rng, m):
    k = rng.randint(1, m - 1)
    return [
        TermOrder.lex(m),
        TermOrder.grevlex(m),
        TermOrder.grlex(m, tuple(rng.sample(range(m), m))),
        TermOrder.block([(tuple(range(k)), "grevlex"), (tuple(range(k, m)), "lex")]),
    ]


def test_design_ideal_matches_indicator_presentation():
    # x_i^2 - 1 and 1 - F, with F the indicator function, generate the design
    # ideal because it is radical; Buchberger on them shares nothing with the
    # point-evaluation route
    rng = random.Random(2010)
    for _ in range(8):
        m = rng.randint(2, 4)
        d = random_two_level_design(rng, m, rng.randint(1, 2**m - 1))
        R = d.ring()
        gens = [R.parse(f"x{i}^2-1") for i in range(1, m + 1)]
        gens.append(R.one() - indicator_from_design(d).to_polynomial(R))
        for order in _random_orders(rng, m):
            via_points = design_ideal(d, order)
            direct = buchberger(gens, order)
            assert [g.terms for g in via_points.elements] == [
                g.terms for g in direct.elements
            ]


def test_complex_design_ideals_certify():
    # over Q(w3), Q(w5) and Q(w7); the checks do not go through the echelon
    rng = random.Random(1004)
    for s, designs, max_m, max_n in ((3, 4, 3, 26), (5, 2, 2, 10), (7, 1, 2, 8)):
        for _ in range(designs):
            m = rng.randint(2, max_m)
            pool = list(full_factorial(m, s).runs)
            runs = tuple(sorted(rng.sample(pool, rng.randint(2, min(len(pool) - 1, max_n)))))
            d = Design(m, s, runs, "complex")
            for order in _random_orders(rng, m):
                gb = design_ideal(d, order)
                assert all(not g.evaluate(p) for g in gb.elements for p in d.points())
                assert len(est_monomials(d, order)) == d.n
                assert spolynomials_reduce_to_zero(gb)
