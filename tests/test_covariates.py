import itertools
import math
import random
from fractions import Fraction

import pytest

from algdoe import (
    ChainConfig,
    Design,
    EstimabilityError,
    InputError,
    build_covariate_matrix,
    enumerate_fiber,
    exact_p_value,
    fiber_connected,
    fit_null_glm,
    markov_basis,
    mh_sample,
    recode_integer,
)
from algdoe.covariates import (
    CONTRASTS,
    _prime_level_columns,
    _two_level_columns,
    parse_model_terms,
)
from algdoe.cyclotomic import CyclotomicNumber, Echelon, omega
from algdoe.orders import monomial_name


def term(m, *idx):
    return tuple(1 if i + 1 in idx else 0 for i in range(m))


def main_effects(m):
    return [term(m)] + [term(m, j) for j in range(1, m + 1)]


PUBLISHED_COLUMNS = {
    # rows of the transposed 16-run covariate display
    "1": [1] * 16,
    "x1": [1] * 8 + [-1] * 8,
    "x2": [1, 1, 1, 1, -1, -1, -1, -1] * 2,
    "x3": [1, 1, -1, -1] * 4,
    "x6": [1, -1, -1, 1, 1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1],
    "x7": [1, -1, -1, 1, -1, 1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1],
}


def test_w16_main_effect_matrix_matches_published(w16):
    A = build_covariate_matrix(w16, main_effects(7))
    assert A.labels == ("1", "x1", "x2", "x3", "x4", "x5", "x6", "x7")
    assert A.n == 16 and A.ncols == 8
    by_label = dict(zip(A.labels, A.columns))
    for label, expected in PUBLISHED_COLUMNS.items():
        assert [int(v) for v in by_label[label]] == expected
    # every column beyond the intercept is the design column itself
    for j in range(7):
        assert [int(v) for v in A.columns[j + 1]] == [run[j] for run in w16.runs]


def test_w16_interaction_column(w16):
    A = build_covariate_matrix(w16, main_effects(7) + [term(7, 1, 2)])
    assert [int(v) for v in A.columns[8]] == [
        1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1,
    ]


def test_confounded_interactions_raise(w16):
    with pytest.raises(EstimabilityError) as exc:
        build_covariate_matrix(
            w16, main_effects(7) + [term(7, 1, 2), term(7, 4, 5)]
        )
    assert exc.value.aliased == ("x4*x5", "x1*x2")


def _alias_pair(labels, columns, j):
    """Find an earlier column that is a constant multiple of column j."""
    col = columns[j]
    for i in range(j):
        other = columns[i]
        ratio = None
        ok = True
        for a, b in zip(col, other):
            if bool(a) != bool(b):
                ok = False
                break
            if a:
                r = a * b**-1
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    ok = False
                    break
        if ok:
            return (labels[j], labels[i])
    return (labels[j], None)


def test_estimability_error_names_the_pair_a_ratio_scan_finds():
    # the error names the first dependent column, and the earlier column a
    # brute-force ratio scan finds to be a constant multiple of it, if any
    rng = random.Random(2110)
    seen = set()
    cases = [(2, None)] + [(s, c) for s in (3, 5) for c in CONTRASTS]
    for s, contrast in cases:
        for _ in range(40):
            m = rng.randint(2, 3)
            pool = list(itertools.product(range(s), repeat=m))
            runs = tuple(sorted(rng.sample(pool, rng.randint(2, min(len(pool), 6)))))
            if s == 2:
                d = Design(m, 2, tuple(tuple(1 - 2 * v for v in r) for r in runs), "pm1")
            else:
                d = Design(m, s, runs, "integer")
            words = [t for t in itertools.product((0, 1), repeat=m) if any(t)]
            terms = [term(m)] + rng.sample(words, rng.randint(1, len(words)))
            try:
                build_covariate_matrix(d, terms, contrast)
                continue
            except EstimabilityError as exc:
                error = exc
            if s == 2:
                labels, columns = _two_level_columns(d, terms)
            else:
                labels, columns = _prime_level_columns(d, terms, contrast)
            j = labels.index(error.aliased[0])
            ech = Echelon()
            assert all(ech.insert(col, i) is None for i, col in enumerate(columns[:j]))
            assert ech.insert(columns[j], j) is not None
            name, other = pair = _alias_pair(labels, columns, j)
            assert error.aliased == pair
            if other is None:
                assert str(error) == (f"term {name} is linearly dependent on the preceding "
                                      "columns; the model is not estimable on this design")
            else:
                assert str(error) == (f"term {name} is confounded with {other} on this design; "
                                      "they cannot be estimated simultaneously")
            seen.add((s, contrast, other is None))
    assert seen == {(s, c, dependent) for s, c in cases for dependent in (False, True)}


def _fraction_contrast(contrast, s, value, level):
    if contrast == "baseline":
        return Fraction(1 if value == level else 0)
    if value == level:
        return Fraction(s - 1)
    if value == s - 1:
        return Fraction(-1)
    return Fraction(0)


def _fraction_columns(d, terms, contrast):
    """Oracle: labels and columns built with a Fraction accumulator per entry."""
    s = d.s
    one = omega(s, 0) if contrast == "complex" else Fraction(1)
    labels, columns = ["1"], [tuple(one for _ in d.runs)]
    for t in terms[1:]:
        factors = [i for i, e in enumerate(t) if e]
        if s == 2:
            labels.append(monomial_name(t))
            columns.append(tuple(Fraction(math.prod(run[i] for i in factors))
                                 for run in d.runs))
            continue
        if contrast == "complex":
            subs = [(1,) + r for r in itertools.product(range(1, s), repeat=len(factors) - 1)]
        else:
            subs = list(itertools.product(range(s - 1), repeat=len(factors)))
        for sub in subs:
            labels.append(f"{monomial_name(t)}[{','.join(map(str, sub))}]")
            col = []
            for run in d.runs:
                if contrast == "complex":
                    col.append(omega(s, sum(p * run[i] for i, p in zip(factors, sub)) % s))
                    continue
                entry = Fraction(1)
                for i, lvl in zip(factors, sub):
                    entry *= _fraction_contrast(contrast, s, run[i], lvl)
                col.append(entry)
            columns.append(tuple(col))
    return labels, columns


def _fraction_recode(columns):
    """Oracle: scale each rational column by the lcm of its denominators,
    shift it nonnegative, divide by its gcd; drop zero and repeated columns."""
    rational = []
    for col in columns:
        if isinstance(col[0], CyclotomicNumber):
            rational += [[c.coords[k] for c in col] for k in range(col[0].order - 1)]
        else:
            rational.append([Fraction(c) for c in col])
    out = []
    for col in rational:
        denom = 1
        for c in col:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        ints = [int(c * denom) for c in col]
        low = min(ints)
        if low < 0:
            ints = [v - low for v in ints]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        tup = tuple(ints)
        if any(tup) and tup not in out:
            out.append(tup)
    return tuple(out)


def test_covariate_matrix_and_recoding_match_fraction_oracle():
    rng = random.Random(2210)
    seen = set()
    cases = [(2, None)] + [(s, c) for s in (3, 5) for c in CONTRASTS]
    for s, contrast in cases:
        for _ in range(30):
            m = rng.randint(1, 4 if s == 2 else 3 if s == 3 else 2)
            pool = list(itertools.product(range(s), repeat=m))
            runs = tuple(rng.sample(pool, rng.randint(1, min(len(pool), 12))))
            if s == 2:
                d = Design(m, 2, tuple(tuple(1 - 2 * v for v in r) for r in runs), "pm1")
            else:
                d = Design(m, s, runs, "integer")
            words = [t for t in itertools.product((0, 1), repeat=m) if any(t)]
            terms = [term(m)] + rng.sample(words, rng.randint(0, min(len(words), 3)))
            labels, columns = _fraction_columns(d, terms, contrast)
            ech = Echelon()
            j = next((j for j, col in enumerate(columns) if ech.insert(col, j) is not None),
                     None)
            seen.add((s, contrast, j is None))
            if j is not None:
                with pytest.raises(EstimabilityError) as exc:
                    build_covariate_matrix(d, terms, contrast)
                assert exc.value.aliased == _alias_pair(labels, columns, j)
                continue
            A = build_covariate_matrix(d, terms, contrast)
            assert list(A.labels) == labels
            assert A.columns == tuple(columns)
            assert [[type(e) for e in col] for col in A.columns] == [
                [type(e) for e in col] for col in columns
            ]
            assert recode_integer(A) == _fraction_recode(columns)
    assert seen == {(s, c, ok) for s, c in cases for ok in (False, True)}


def test_intercept_required(d22):
    with pytest.raises(InputError):
        build_covariate_matrix(d22, [term(2, 1)])


def test_three_level_baseline_columns(three_level_integer):
    A = build_covariate_matrix(
        three_level_integer, main_effects(3), "baseline"
    )
    assert A.ncols == 7
    assert [int(v) for v in A.columns[1]] == [1, 1, 1, 0, 0, 0, 0, 0, 0]
    assert [int(v) for v in A.columns[2]] == [0, 0, 0, 1, 1, 1, 0, 0, 0]


def test_three_level_symmetric_columns(three_level_integer):
    A = build_covariate_matrix(
        three_level_integer, main_effects(3), "symmetric"
    )
    assert [int(v) for v in A.columns[1]] == [2, 2, 2, 0, 0, 0, -1, -1, -1]
    assert [int(v) for v in A.columns[2]] == [0, 0, 0, 2, 2, 2, -1, -1, -1]


def test_three_level_complex_columns(three_level_integer):
    A = build_covariate_matrix(
        three_level_integer, main_effects(3), "complex"
    )
    assert A.ncols == 4
    w = omega(3)
    assert A.columns[1] == tuple(
        w ** run[0] for run in three_level_integer.runs
    )


def test_recode_pm1_column_becomes_binary(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    recoded = recode_integer(A)
    assert recoded[0] == (1, 1, 1, 1)
    # (1 + x)/2 scaling of the plus-minus-one columns
    assert recoded[1] == tuple((1 + run[0]) // 2 for run in d22.runs)
    assert recoded[2] == tuple((1 + run[1]) // 2 for run in d22.runs)


def test_recode_preserves_sufficient_statistic_kernel(three_level_integer):
    # kernels agree across codings: any integer vector with equal recoded
    # statistics has equal exact statistics
    import itertools

    mats = {
        c: build_covariate_matrix(three_level_integer, main_effects(3), c)
        for c in ("baseline", "symmetric", "complex")
    }
    recs = {c: recode_integer(A) for c, A in mats.items()}
    vectors = list(itertools.product((-1, 0, 1), repeat=9))[: 3**8]
    for z in vectors:
        in_kernel = {
            c: all(sum(a * b for a, b in zip(col, z)) == 0 for col in rec)
            for c, rec in recs.items()
        }
        assert len(set(in_kernel.values())) == 1


def test_parse_model_terms():
    terms, contrast = parse_model_terms("1\nx1\nx1*x2\ncontrast=symmetric\n", 3)
    assert terms == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    assert contrast == "symmetric"
    with pytest.raises(InputError):
        parse_model_terms("contrast=weird\n", 3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\nx1^2\n", "bad model term x1^2: not square-free"),
        ("1\nx1^0\n", "bad model term 1: the intercept may only come first"),
    ],
)
def test_bad_model_term_named_as_written(d22, text, message):
    terms, _ = parse_model_terms(text, 2)
    with pytest.raises(InputError) as err:
        build_covariate_matrix(d22, terms)
    assert str(err.value) == message


def test_model_term_of_another_length_rejected(d22):
    with pytest.raises(InputError, match="^bad model term x1: 3 exponents for 2 factors$"):
        build_covariate_matrix(d22, [term(2), (1, 0, 0)])


def test_duplicate_terms_rejected(d22):
    with pytest.raises(InputError):
        build_covariate_matrix(d22, [term(2), term(2, 1), term(2, 1)])


COUNT_ENTRY_POINTS = {
    "sufficient_statistic": lambda A, basis, y: A.sufficient_statistic(y),
    "fit_null_glm": lambda A, basis, y: fit_null_glm(A, y),
    "enumerate_fiber": lambda A, basis, y: enumerate_fiber(A, y),
    "fiber_connected": lambda A, basis, y: fiber_connected(A, y, basis),
    "mh_sample": lambda A, basis, y: mh_sample(
        A, y, basis, "pearson", ChainConfig(seed=1, burn_in=0, samples=10)
    ),
    "exact_p_value": lambda A, basis, y: exact_p_value(A, y, "pearson"),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
@pytest.mark.parametrize(
    "y", [(1.7, 1, 1, 1), (-1, 1, 1, 1), (1, 1, 1)], ids=["float", "negative", "length"]
)
def test_counts_rejected_at_every_entry_point(d22, entry, y):
    # int() used to truncate 1.7 to 1, so the fit and p-value were of (1, 1, 1, 1)
    A = build_covariate_matrix(d22, main_effects(2))
    with pytest.raises(InputError):
        COUNT_ENTRY_POINTS[entry](A, markov_basis(A), y)


def test_integral_counts_of_any_numeric_type_accepted(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    assert A.sufficient_statistic((2.0, Fraction(1), True, 0)) == A.sufficient_statistic(
        (2, 1, 1, 0)
    )
