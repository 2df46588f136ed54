import itertools
import math
import os
import random
import subprocess
import sys
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import algdoe

from algdoe import (
    GlmConvergenceError,
    build_covariate_matrix,
    fit_null_glm,
    full_factorial,
    test_statistic,
)
from algdoe import glm
from algdoe.glm import GlmFit, _total

from conftest import main_effects, random_two_level_design, term


def test_total_sums_left_to_right():
    # the built-in sum() of floats compensates since Python 3.12 and gives 1.0
    assert _total([1e16, 1.0, -1e16]) == 0.0


def test_intercept_only_closed_form():
    d = full_factorial(2)
    A = build_covariate_matrix(d, [term(2)])
    y = (3, 1, 4, 0)
    fit = fit_null_glm(A, y)
    for mu in fit.mu:
        assert mu == pytest.approx(2.0, abs=1e-9)


def test_saturated_model_fits_data_exactly(d22):
    A = build_covariate_matrix(d22, main_effects(2) + [term(2, 1, 2)])
    y = (3, 1, 4, 2)
    fit = fit_null_glm(A, y)
    for mu, yi in zip(fit.mu, y):
        assert mu == pytest.approx(yi, abs=1e-8)


def test_symmetric_fit(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    fit = fit_null_glm(A, (1, 1, 1, 1))
    for mu in fit.mu:
        assert mu == pytest.approx(1.0, abs=1e-10)


def test_score_residuals_random_instances():
    rng = random.Random(4)
    from algdoe.errors import EstimabilityError
    from algdoe.glm import design_matrix

    checked = 0
    while checked < 50:
        m = rng.randint(1, 4)
        d = random_two_level_design(rng, m, n=rng.randint(2, 2**m))
        terms = [term(m)] + [
            term(m, j) for j in range(1, m + 1) if rng.random() < 0.5
        ]
        try:
            A = build_covariate_matrix(d, terms)
        except EstimabilityError:
            continue
        y = tuple(rng.randint(1, 9) for _ in range(A.n))
        fit = fit_null_glm(A, y)
        X = design_matrix(A)
        residual = max(
            abs(sum(X[i][j] * (y[i] - fit.mu[i]) for i in range(A.n)))
            for j in range(len(X[0]))
        )
        assert residual <= 1e-8
        checked += 1


def test_fit_depends_only_on_sufficient_statistic(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    fit1 = fit_null_glm(A, (0, 2, 2, 0))
    fit2 = fit_null_glm(A, (1, 1, 1, 1))
    assert A.sufficient_statistic((0, 2, 2, 0)) == A.sufficient_statistic((1, 1, 1, 1))
    for a, b in zip(fit1.mu, fit2.mu):
        assert a == pytest.approx(b, abs=1e-9)


def test_all_zero_observations_raise(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    with pytest.raises(GlmConvergenceError):
        fit_null_glm(A, (0, 0, 0, 0))


def test_iteration_cap_raises(d22, monkeypatch):
    # one Newton step from the intercept-only start does not reach the score
    # tolerance on these counts
    A = build_covariate_matrix(d22, main_effects(2))
    monkeypatch.setattr(glm, "MAX_ITER", 1)
    with pytest.raises(GlmConvergenceError) as exc:
        fit_null_glm(A, (3, 1, 0, 2))
    assert str(exc.value) == (
        "no convergence in 1 iterations; the sufficient statistic may sit on the boundary"
    )


def test_boundary_statistic_converges_to_face(d22):
    # all counts on the x1 = +1 face: the maximum sits on the boundary and
    # the fitted means of the empty face vanish to numerical zero
    A = build_covariate_matrix(d22, main_effects(2))
    fit = fit_null_glm(A, (5, 5, 0, 0))
    assert fit.mu[0] == pytest.approx(5.0, abs=1e-6)
    assert fit.mu[2] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("scale", [1, 10, 100, 1000])
@pytest.mark.parametrize("interaction", [[], [term(2, 1, 2)]], ids=["main-effects", "saturated"])
def test_large_counts_converge(d22, interaction, scale):
    # the rounding of the score grows with the counts: near 40 000 it alone
    # passed the absolute SCORE_TOL, and no fit converged
    A = build_covariate_matrix(d22, main_effects(2) + interaction)
    y = tuple(scale * v for v in (4000, 3900, 4100, 4050))
    fit = fit_null_glm(A, y)
    for col in zip(*glm.design_matrix(A)):
        assert _total(map(mul, col, fit.mu)) == pytest.approx(_total(map(mul, col, y)), rel=1e-12)
    if interaction:  # the saturated model fits the counts themselves
        assert fit.mu == pytest.approx(y, rel=1e-12)


def test_cli_import_loads_no_numpy():
    env = dict(os.environ)
    src = str(Path(algdoe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, algdoe.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@st.composite
def boundary_counts(draw):
    # cells of a 2^m full factorial, with whole faces x_j = +-1 often empty
    m = draw(st.sampled_from([2, 3]))
    y = draw(st.lists(st.integers(0, 200 // 2**m), min_size=2**m, max_size=2**m))
    runs = full_factorial(m).runs
    for j, sign in draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from([-1, 1])),
                                 max_size=2)):
        y = [0 if run[j] == sign else v for v, run in zip(y, runs)]
    return m, tuple(y)


def assert_converges_or_raises_convergence_error(A, y):
    from algdoe.glm import design_matrix

    try:
        fit = fit_null_glm(A, y)
    except GlmConvergenceError:
        return
    X = design_matrix(A)
    residual = max(
        abs(sum(X[i][j] * (y[i] - fit.mu[i]) for i in range(A.n)))
        for j in range(len(X[0]))
    )
    assert residual <= 1e-8


@settings(max_examples=150, deadline=None)
@given(boundary_counts())
def test_boundary_fits_converge_or_raise_convergence_error(case):
    m, y = case
    A = build_covariate_matrix(full_factorial(m), main_effects(m))
    assert_converges_or_raises_convergence_error(A, y)


@pytest.mark.parametrize(
    "terms, y",
    [
        (list(itertools.product((0, 1), repeat=3)), (0, 0, 190040, 1, 0, 5, 0, 1)),
        (main_effects(3) + [term(3, 1, 2)], (1, 1, 1, 536702, 0, 0, 1, 0)),
    ],
    ids=["exp-overflow", "zero-mean"],
)
def test_extreme_counts_converge_or_raise_convergence_error(terms, y):
    # a full IRLS step here overflows exp() or drives a mean under a positive
    # count to zero; either must count as an infinite deviance and halve it
    A = build_covariate_matrix(full_factorial(3), terms)
    assert_converges_or_raises_convergence_error(A, y)


def test_solve_pivots_on_the_largest_entry():
    from algdoe.glm import _solve

    # the first nonzero pivot, 1e-20, would lose x1 entirely in floats
    x = _solve([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert x == pytest.approx([1.0, 1.0])
    with pytest.raises(GlmConvergenceError):
        _solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])


def test_statistics_at_fit_are_zero():
    fit = GlmFit((0.0,), (1.0, 1.0, 1.0, 1.0))
    assert test_statistic("pearson", (1, 1, 1, 1), fit) == 0.0
    assert test_statistic("deviance", (1, 1, 1, 1), fit) == 0.0


def test_pearson_fixture_values():
    fit = GlmFit((0.0,), (1.0, 1.0, 1.0, 1.0))
    assert test_statistic("pearson", (0, 2, 2, 0), fit) == pytest.approx(4.0)
    assert test_statistic("pearson", (2, 0, 0, 2), fit) == pytest.approx(4.0)


def test_deviance_handles_zero_counts():
    fit = GlmFit((0.0,), (1.0, 2.0))
    value = test_statistic("deviance", (0, 3), fit)
    assert value == pytest.approx(2 * (3 * math.log(3 / 2) - 1 + 1), abs=1e-12)


def test_infinite_statistic_when_mean_zero():
    fit = GlmFit((0.0,), (0.0, 1.0))
    assert test_statistic("pearson", (1, 1), fit) == math.inf
    assert test_statistic("deviance", (1, 1), fit) == math.inf


def _reference_statistic(kind, y, mu):
    """The statistic as two loops with early returns, summed left to right."""
    total = 0.0
    for yi, mi in zip(y, mu):
        if kind == "pearson":
            if mi == 0.0:
                if yi:
                    return math.inf
                continue
            total += (yi - mi) * (yi - mi) / mi
        elif yi > 0:
            if mi == 0.0:
                return math.inf
            total += yi * math.log(yi / mi) - (yi - mi)
        else:
            total += mi
    return total if kind == "pearson" else 2.0 * total


def _random_mean(rng):
    roll = rng.random()
    if roll < 0.1:
        return 0.0
    if roll < 0.2:
        return rng.choice((5e-324, 1e-310, 1e-300, 1e-20))
    if roll < 0.3:
        return rng.choice((1e20, 1e300, 1e307, 1.7e308))
    return rng.expovariate(0.2)


def test_statistic_table_matches_test_statistic_bit_for_bit():
    from algdoe.glm import _statistic_table

    rng = random.Random(29)
    checked = {kind: 0 for kind in glm.STATISTICS}
    infinite = zero_at_zero = 0
    for _ in range(1000):
        n = rng.randint(1, 9)
        fit = GlmFit((0.0,), tuple(_random_mean(rng) for _ in range(n)))
        top = rng.randint(0, 30)
        for kind in glm.STATISTICS:
            statistic = _statistic_table(kind, fit, top)
            for _ in range(10):
                y = tuple(rng.randint(0, top) for _ in range(n))
                want = test_statistic(kind, y, fit)
                # float.hex tells -0.0 from 0.0 and names inf
                assert statistic(y).hex() == want.hex(), (kind, y, fit.mu)
                assert want.hex() == _reference_statistic(kind, y, fit.mu).hex()
                checked[kind] += 1
                infinite += want == math.inf
                zero_at_zero += any(not yi and not mi for yi, mi in zip(y, fit.mu))
    assert min(checked.values()) >= 10_000
    assert infinite >= 1000 and zero_at_zero >= 100
