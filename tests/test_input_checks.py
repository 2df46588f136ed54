"""Input checks that no other test reaches: each refuses its input with its
error class and its message."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from algdoe import (
    Budget,
    ChainConfig,
    CovariateMatrix,
    Design,
    DimensionError,
    FactorRelation,
    GlmFit,
    IndicatorFunction,
    InputError,
    MarkovBasis,
    PolyRing,
    SearchSpec,
    TermOrder,
    Word,
    ZeroPolynomialError,
    alias_table,
    build_covariate_matrix,
    buchberger,
    d_criterion,
    d_optimal_search,
    design_from_indicator,
    enumerate_fiber,
    exact_p_value,
    fit_null_glm,
    format_design,
    full_factorial,
    is_confounded,
    mh_sample,
    normal_form,
    parse_design,
    point_ideal_intersection,
    recode_integer,
    test_statistic,
)
from algdoe.linalg import int_det
from algdoe.orders import monomial_name

from conftest import THREE_LEVEL_RUNS

XY = PolyRing(["x", "y"])
X, Y = XY.var("x"), XY.var("y")
F23 = full_factorial(3)
TWO_BY_TWO = full_factorial(2)
THREE_LEVEL = Design(3, 3, THREE_LEVEL_RUNS, "integer")
MAIN_EFFECTS = build_covariate_matrix(TWO_BY_TWO, [(0, 0), (1, 0), (0, 1)])
MOVE = MarkovBasis(4, ((1, -1, -1, 1),))


def _not_an_intercept():
    A = build_covariate_matrix(TWO_BY_TWO, [(0, 0), (1, 0)])
    return CovariateMatrix(A.design, A.terms, A.contrast, A.labels, A.columns[::-1])


def _means(runs):
    return GlmFit((0.0,), (1.5,) * runs)


def _chains(count, fit=None):
    return mh_sample(MAIN_EFFECTS, (1, 1, 1, 1), MOVE, "pearson",
                     ChainConfig(seed=1, burn_in=0, samples=1), chains=count, fit=fit)


def _exact_with_means(runs):
    return exact_p_value(MAIN_EFFECTS, (1, 1, 1, 1), "pearson", fit=_means(runs))


# total 2 against y0's 3, so of another fiber, with a mean -1 where y0 is 0:
# the deviance has no term for it at a positive count
NEGATIVE_MEAN = GlmFit((0.0,), (-1.0, 1.0, 1.0, 1.0))
OTHER_FIBER = "the fit is not of the fiber of y0: A'mu misses A'y0 by 1 in a recoded coordinate"


CASES = {
    "confounding-length": (lambda: is_confounded((1, 0), (0, 0, 0), F23),
                           InputError, "monomial does not match the factor count"),
    "confounding-square": (lambda: is_confounded((2, 0, 0), (0, 0, 0), F23),
                           InputError, "effects are square-free monomials"),
    "buchberger-rings": (lambda: buchberger([X, PolyRing(["x", "z"]).var("z")], TermOrder.lex(2)),
                         InputError, "generators over different rings"),
    "buchberger-order": (lambda: buchberger([X], TermOrder.lex(3)),
                         InputError, "term order universe does not match the ring"),
    "division-by-zero": (lambda: normal_form(X, [XY.zero()], TermOrder.lex(2)),
                         ZeroPolynomialError, "division by a zero polynomial"),
    "points-none": (lambda: point_ideal_intersection([]),
                    InputError, "need at least one point"),
    "points-dimensions": (lambda: point_ideal_intersection([(1, 2), (1,)]),
                          InputError, "points of unequal dimension"),
    "points-order": (lambda: point_ideal_intersection([(1, 2)], x_order=TermOrder.grevlex(3)),
                     InputError, "x_order universe does not match the points"),
    "ring-var": (lambda: XY.var("z"), InputError, "unknown indeterminate 'z'"),
    "ring-exponents": (lambda: XY.poly({(1,): 1}),
                       DimensionError, f"bad exponent vector (1,) for {XY!r}"),
    "ring-negative-exponent": (lambda: XY.poly({(-1, 0): 1}),
                               DimensionError, f"bad exponent vector (-1, 0) for {XY!r}"),
    # an exponent is an int, by the rule of the sizes and counts
    "ring-half-exponent": (lambda: XY.poly({(0.5, 1): 1}),
                           DimensionError, f"bad exponent vector (0.5, 1) for {XY!r}"),
    "ring-fraction-exponent": (lambda: XY.poly({(Fraction(1, 2), 0): 1}), DimensionError,
                               f"bad exponent vector (Fraction(1, 2), 0) for {XY!r}"),
    "ring-embed": (lambda: XY.embed(PolyRing(["x", "z"]).var("x")),
                   DimensionError, "cannot embed between different universes"),
    "negative-power": (lambda: (X + Y) ** -1,
                       InputError, "negative polynomial powers are not defined"),
    "evaluate-length": (lambda: X.evaluate((1,)),
                        DimensionError, "point length does not match the universe"),
    "contrast": (lambda: build_covariate_matrix(THREE_LEVEL, [(0, 0, 0), (1, 0, 0)], "helmert"),
                 InputError, "unknown contrast 'helmert'"),
    "recode-intercept": (lambda: recode_integer(_not_an_intercept()),
                         InputError, "recoding requires the all-ones intercept column"),
    "search-runs": (lambda: SearchSpec(3, 0),
                    InputError, "need at least one run and one factor"),
    "d-criterion-levels": (lambda: d_criterion(THREE_LEVEL),
                           InputError, "the D criterion is defined for two-level designs"),
    "statistic-length": (lambda: test_statistic("pearson", (1, 2), GlmFit((0.0,), (1.0,))),
                         InputError, "observation length does not match the fit"),
    "determinant-shape": (lambda: int_det([[1, 2]]),
                          InputError, "determinant of a non-square matrix"),
    "move-length": (lambda: MarkovBasis(3, ((1, -1),)),
                    InputError, "move length does not match the run count"),
    "move-entry": (lambda: MarkovBasis(4, ((0.5, -0.5, -0.5, 0.5),)), InputError,
                   "move entries must be integers, found 0.5 in (0.5, -0.5, -0.5, 0.5)"),
    "chains": (lambda: _chains(0), InputError, "need at least one chain"),
    # a fit of another run count is refused before its means are read
    "exact-fit-short": (lambda: _exact_with_means(3),
                        InputError, "observation length does not match the fit"),
    "exact-fit-long": (lambda: _exact_with_means(5),
                       InputError, "observation length does not match the fit"),
    "mh-fit-short": (lambda: _chains(1, _means(3)),
                     InputError, "observation length does not match the fit"),
    "mh-fit-long": (lambda: _chains(1, _means(5)),
                    InputError, "observation length does not match the fit"),
    # and a fit of another fiber before any of its terms is read
    "exact-fit-negative-mean": (
        lambda: exact_p_value(MAIN_EFFECTS, (0, 1, 1, 1), "deviance", fit=NEGATIVE_MEAN),
        InputError, OTHER_FIBER),
    "mh-fit-negative-mean": (
        lambda: mh_sample(MAIN_EFFECTS, (0, 1, 1, 1), MOVE, "deviance",
                          ChainConfig(seed=1), fit=NEGATIVE_MEAN),
        InputError, OTHER_FIBER),
    "indicator-point": (lambda: IndicatorFunction(2, {(0, 0): 1}).evaluate((1,)),
                        InputError, "point length does not match the factor count"),
    "indicator-coefficient-length": (
        lambda: IndicatorFunction(2, {(0, 0): 1}).coefficient((0, 0, 1)),
        InputError, "indicator exponents must lie in {0,1}^2"),
    "indicator-coefficient-entry": (
        lambda: IndicatorFunction(2, {(0, 0): 1}).coefficient((2, 0)),
        InputError, "indicator exponents must lie in {0,1}^2"),
    "indicator-ring": (lambda: IndicatorFunction(2, {(0, 0): 1}).to_polynomial(PolyRing("abc")),
                       InputError, "ring does not match the factor count"),
    "order-kind": (lambda: TermOrder("revlex", (0, 1)),
                   InputError, "unknown term order kind 'revlex'"),
    "order-blocks": (lambda: TermOrder("block", (0, 1), (((1, 0), "lex"),)),
                     InputError, "blocks must partition the precedence in order"),
    "order-inner-kind": (lambda: TermOrder("block", (0, 1), (((0,), "lex"), ((1,), "revlex"))),
                         InputError, "unknown inner order kind 'revlex'"),
    # a size that equals no int is refused when its record is built
    "design-m": (lambda: Design(2.5, 2, ((1, 1),), "pm1"),
                 InputError, "Design.m must be an integer, found 2.5"),
    "design-s": (lambda: Design(2, "2", ((1, 1),), "pm1"),
                 InputError, "Design.s must be an integer, found '2'"),
    "search-m": (lambda: SearchSpec(math.nan, 3),
                 InputError, "SearchSpec.m must be an integer, found nan"),
    "search-n": (lambda: SearchSpec(2, 3.5),
                 InputError, "SearchSpec.n must be an integer, found 3.5"),
    "search-restarts": (lambda: SearchSpec(2, 3, "greedy-exchange", restarts=1.5),
                        InputError, "SearchSpec.restarts must be an integer, found 1.5"),
    "chain-seed": (lambda: ChainConfig(seed=None),
                   InputError, "ChainConfig.seed must be an integer, found None"),
    "chain-burn-in": (lambda: ChainConfig(seed=1, burn_in=Fraction(1, 2)),
                      InputError, "ChainConfig.burn_in must be an integer, found Fraction(1, 2)"),
    "chain-samples": (lambda: ChainConfig(seed=1, samples=math.inf),
                      InputError, "ChainConfig.samples must be an integer, found inf"),
    "chain-thinning": (lambda: ChainConfig(seed=1, thinning=2 + 1j),
                       InputError, "ChainConfig.thinning must be an integer, found (2+1j)"),
    "budget-max-pairs": (lambda: Budget(max_pairs=1.5),
                         InputError, "Budget.max_pairs must be an integer, found 1.5"),
    "budget-max-terms": (lambda: Budget(max_terms=None),
                         InputError, "Budget.max_terms must be an integer, found None"),
    "markov-basis-n": (lambda: MarkovBasis(2.5, ()),
                       InputError, "MarkovBasis.n must be an integer, found 2.5"),
    "relation-index": (lambda: FactorRelation("1", 1, (1, 1)),
                       InputError, "FactorRelation.index must be an integer, found '1'"),
    "relation-half-index": (lambda: FactorRelation(1.5, 1, (1, 1)),
                            InputError, "FactorRelation.index must be an integer, found 1.5"),
    "indicator-m": (lambda: IndicatorFunction(1.5, {}),
                    InputError, "IndicatorFunction.m must be an integer, found 1.5"),
    "indicator-m-negative": (lambda: IndicatorFunction(-1, {}),
                             InputError, "IndicatorFunction.m must be nonnegative, found -1"),
    # and so is a size argument, by its name
    "alias-max-degree": (lambda: alias_table(F23, None),
                         InputError, "max_degree must be an integer, found None"),
    "chains-integer": (lambda: _chains(1.5), InputError, "chains must be an integer, found 1.5"),
    "fiber-max-total": (lambda: enumerate_fiber(MAIN_EFFECTS, (1, 1, 1, 1), max_total=10.5),
                        InputError, "max_total must be an integer, found 10.5"),
    "fiber-max-runs": (lambda: enumerate_fiber(MAIN_EFFECTS, (1, 1, 1, 1), max_runs="16"),
                       InputError, "max_runs must be an integer, found '16'"),
    "exact-max-total": (lambda: exact_p_value(MAIN_EFFECTS, (1, 1, 1, 1), "pearson",
                                              max_total=None),
                        InputError, "max_total must be an integer, found None"),
    # counts are n nonnegative integers, by one check that every entry point calls
    "counts-length": (lambda: MAIN_EFFECTS.sufficient_statistic((1, 1, 1)),
                      InputError, "expected 4 counts, found 3"),
    "counts-integer": (lambda: MAIN_EFFECTS.sufficient_statistic((1.7, 1, 1, 1)),
                       InputError, "counts must be integers, found 1.7"),
    "counts-negative": (lambda: MAIN_EFFECTS.sufficient_statistic((-1, 1, 1, 1)),
                        InputError, "counts must be nonnegative, found -1"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_input_is_refused_with_its_message(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is error


def _stored_as_two(two):
    """Each size given as ``two``, a value equal to 2, is the int 2, and each
    result is the one of the int arguments."""
    d = Design(two, two, ((1, 1), (-1, 1)), "pm1")
    assert (type(d.m), type(d.s), d.var_names) == (int, int, ("x1", "x2"))
    assert parse_design(format_design(d)) == d
    f = IndicatorFunction(two, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert type(f.m) is int and design_from_indicator(f) == Design(2, 2, ((-1, -1), (1, 1)), "pm1")
    spec = SearchSpec(two, 3.0, "greedy-exchange", restarts=two)
    assert [type(v) for v in (spec.m, spec.n, spec.restarts)] == [int] * 3
    assert d_optimal_search(spec) == d_optimal_search(SearchSpec(2, 3, "greedy-exchange",
                                                                 restarts=2))
    cfg = ChainConfig(seed=two, burn_in=two, samples=two, thinning=two)
    assert [type(v) for v in (cfg.seed, cfg.burn_in, cfg.samples, cfg.thinning)] == [int] * 4
    assert mh_sample(MAIN_EFFECTS, (1, 1, 1, 1), MOVE, "pearson", cfg) == mh_sample(
        MAIN_EFFECTS, (1, 1, 1, 1), MOVE, "pearson",
        ChainConfig(seed=2, burn_in=2, samples=2, thinning=2))


def test_sizes_that_equal_an_int_are_stored_as_that_int():
    # the rule of Design's levels and of the counts: 2.0, True, Fraction(2)
    # and 2+0j are the ints they equal, so later arithmetic sees ints
    for two in (2.0, Fraction(2), Decimal(2), 2 + 0j):
        _stored_as_two(two)
    assert Design(True, 2, ((1,),), "pm1").m == 1 and format_design(
        Design(True, 2, ((1,),), "pm1")).startswith("m=1 ")


def test_numpy_sizes_are_stored_as_ints():
    np = pytest.importorskip("numpy")
    for two in (np.int64(2), np.int32(2), np.float64(2)):
        _stored_as_two(two)


def test_counts_that_equal_an_int_are_read_as_that_int():
    # a count follows the rule of the sizes: Decimal(2), 2+0j and True are
    # the ints they equal, at the fit and at the exact test alike
    ints = (2, 2, 1, 0)
    for y in ((Decimal(2), 2, True, 0), (2 + 0j, 2.0, 1, Fraction(0)), (2, 2, True, 0)):
        assert fit_null_glm(MAIN_EFFECTS, y) == fit_null_glm(MAIN_EFFECTS, ints)
        assert exact_p_value(MAIN_EFFECTS, y, "pearson") == exact_p_value(
            MAIN_EFFECTS, ints, "pearson")


def test_exponents_and_moves_that_equal_an_int_are_stored_as_that_int():
    # an exponent or a move entry follows the rule of the sizes and counts,
    # also where an int of the same value sits in another term
    for terms, want in (({(1, 0): 1, (1.0, 1.0): 2}, X + 2 * X * Y),
                        ({(Fraction(2), True): 3}, 3 * X**2 * Y)):
        f = XY.poly(terms)
        assert f == want and {type(v) for e in f.terms for v in e} == {int}
    floats = MarkovBasis(4, ((1.0, -1.0, -1.0, 1.0),))
    assert floats == MOVE and type(floats.moves[0][0]) is int
    cfg = ChainConfig(seed=3, burn_in=5, samples=50)
    assert mh_sample(MAIN_EFFECTS, (1, 1, 1, 1), floats, "pearson", cfg) == mh_sample(
        MAIN_EFFECTS, (1, 1, 1, 1), MOVE, "pearson", cfg)


def test_pearson_skips_a_zero_mean_at_a_zero_count():
    # a zero mean adds nothing where the count is zero, and is infinitely far
    # from any other count
    fit = GlmFit((0.0,), (0.0, 2.0))
    assert test_statistic("pearson", (0, 3), fit) == 0.5
    assert test_statistic("pearson", (1, 3), fit) == math.inf


def test_records_store_the_ints_their_fields_equal():
    # signs and words are read by the rule of the sizes: 1.0 and True are
    # stored as 1, and a list word as a tuple, so the records hash
    word = Word([1, 1.0, Fraction(0)], True)
    assert (word.bits, word.sign) == ((1, 1, 0), 1) and hash(word) == hash(Word((1, 1, 0), 1))
    assert {type(b) for b in word.bits} | {type(word.sign)} == {int}
    relation = FactorRelation(1.0, True, [1, Decimal(1)])
    assert relation == FactorRelation(1, 1, (1, 1)) and hash(relation) == hash(
        FactorRelation(1, 1, (1, 1)))
    assert {type(v) for v in (relation.index, relation.sign, *relation.word)} == {int}


HALF = Design(2, 2, ((1, 1), (-1, -1)), "pm1")  # x1*x2 = 1
INDICATOR_EXPONENTS = "indicator exponents must lie in {0,1}^2"
# every entry point that reads a square-free exponent tuple, each given the
# exponents e: the call, what it gives for e = (1, 1) (the exponents it
# stores, or what it reads them as) and its refusal of e
SQUARE_FREE = {
    "indicator-key": (lambda e: next(iter(IndicatorFunction(2, {e: 1}).coeffs)), (1, 1),
                      lambda e: INDICATOR_EXPONENTS),
    "indicator-coefficient": (
        lambda e: IndicatorFunction(2, {(1, 1): Fraction(1, 2)}).coefficient(e), Fraction(1, 2),
        lambda e: INDICATOR_EXPONENTS),
    "confounding": (lambda e: is_confounded(e, (0, 0), HALF), 1,
                    lambda e: "effects are square-free monomials"),
    "word": (lambda e: Word(e, 1).bits, (1, 1), lambda e: "word exponents must be 0/1"),
    "relation": (lambda e: FactorRelation(1, 1, e).word, (1, 1),
                 lambda e: "relation word must be square-free"),
    "model-term": (lambda e: build_covariate_matrix(TWO_BY_TWO, [(0, 0), e]).terms[1], (1, 1),
                   lambda e: f"bad model term {monomial_name(e)}: not square-free"),
}


@pytest.mark.parametrize("name", list(SQUARE_FREE))
def test_square_free_exponents_follow_the_integer_rule(name):
    # an exponent that equals 0 or 1 is read, and stored, as that int; any
    # other is refused with the entry point's message
    call, want, message = SQUARE_FREE[name]
    for one in (1, 1.0, Fraction(1), Decimal(1)):
        got = call((1, one))
        assert got == want
        if isinstance(got, tuple):
            assert {type(b) for b in got} == {int}
    # 48 and 49 are the bytes of the digits '0' and '1'
    for bad in (2, 0.5, -1, 48, 49, 300, "1", None):
        with pytest.raises(InputError, match=f"^{re.escape(message((1, bad)))}$"):
            call((1, bad))
