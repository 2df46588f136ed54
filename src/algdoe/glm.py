"""Poisson log-linear fitting and goodness-of-fit statistics.

This is the one floating-point corner of the package: maximum likelihood for
log mu = A beta by iteratively reweighted least squares with step halving.
The fitted means depend on the data only through the sufficient statistic
A'y, so a single fit serves an entire fiber.  Each statistic is a scale times
a sum of run terms, its entry (term, scale) in ``_TERMS``: the fit's deviance,
the formula :func:`test_statistic` and the per-run tables that score every
point of a conditional test (:func:`_statistic_table`) all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, getitem, mul, sub

from .covariates import CovariateMatrix
from .errors import GlmConvergenceError, InputError, int_counts
from .linalg import Echelon

SCORE_TOL = 1e-10
MAX_ITER = 100


@dataclass(frozen=True)
class GlmFit:
    """Converged Poisson fit: log mu = X beta with A'mu = A'y at the optimum."""

    beta: tuple[float, ...]
    mu: tuple[float, ...]


def design_matrix(A: CovariateMatrix) -> tuple[tuple[float, ...], ...]:
    """Real design matrix for the fit, as a tuple of rows.

    Rational matrices are used as-is (rank-checked at construction), so the
    coefficient vector aligns with the covariate columns.  A complex-contrast
    matrix is replaced by a column basis of its integer recoding, which spans
    the same rational space and therefore yields the identical fit.
    """
    columns = A.columns
    if not isinstance(columns[0][0], Fraction):
        ech = Echelon()
        columns = [col for j, col in enumerate(A.recoded)
                   if ech.insert(col, j) is None]
    return tuple(tuple(map(float, row)) for row in zip(*columns))


def _total(values) -> float:
    """Left-to-right float sum, (((0.0 + v1) + v2) + ...), in C.  Built-in
    sum() compensates its rounding since Python 3.12, which would change the
    printed statistics between Pythons; ``reduce`` with ``operator.add`` adds
    in the same order as a Python loop, with no per-item bytecode."""
    return reduce(add, values, 0.0)


def _solve(M, b):
    """Solve M x = b by Gaussian elimination with partial pivoting, as LAPACK
    gesv does; exact first-nonzero pivots would be unsafe in floats."""
    p = len(b)
    a = [list(row) + [bi] for row, bi in zip(M, b)]
    for c in range(p):
        r = max(range(c, p), key=lambda i: abs(a[i][c]))
        if a[r][c] == 0.0:
            raise GlmConvergenceError(f"singular information matrix: zero pivot {c + 1}")
        a[c], a[r] = a[r], a[c]
        for i in range(c + 1, p):
            f = a[i][c] / a[c][c]
            for k in range(c, p + 1):
                a[i][k] -= f * a[c][k]
    x = [0.0] * p
    for i in reversed(range(p)):
        x[i] = (a[i][p] - _total(map(mul, a[i][i + 1 : p], x[i + 1 :]))) / a[i][i]
    return x


def _pearson_term(yi, mi) -> float:
    """Run term of the Pearson statistic: (y - mu)^2 / mu; inf for a positive
    count at a zero mean, and 0.0 for a zero one, which leaves a sum begun at
    0.0 unchanged (such a sum of terms >= 0 is never -0.0)."""
    if mi == 0.0:
        return math.inf if yi else 0.0
    d = yi - mi
    return d * d / mi


def _deviance_term(yi, mi) -> float:
    """Run term of half the Poisson deviance: y log(y / mu) - (y - mu), or mu
    for a zero count; inf where a positive count meets a zero mean."""
    if yi > 0:
        if mi == 0.0:
            return math.inf
        return yi * math.log(yi / mi) - (yi - mi)
    return mi


_TERMS = {"pearson": (_pearson_term, 1.0), "deviance": (_deviance_term, 2.0)}
STATISTICS = tuple(_TERMS)


def fit_null_glm(A: CovariateMatrix, y0) -> GlmFit:
    """Poisson maximum likelihood for the null model defined by A.

    Raises :class:`GlmConvergenceError` when the score equations cannot be
    satisfied, which happens on boundary sufficient statistics.
    """
    y = int_counts(A.n, y0)
    X = design_matrix(A)
    n, p = len(X), len(X[0])
    if sum(y) == 0:
        raise GlmConvergenceError("all-zero observations lie on the boundary")
    dev_term, dev_scale = _TERMS["deviance"]
    # the rounding of a score entry grows with max|X| * sum(y) and passes
    # SCORE_TOL on large counts, so there the bound follows it
    tol = max(SCORE_TOL, 64 * 2.0**-52 * max(map(abs, chain.from_iterable(X))) * sum(y))

    def means_and_deviance(beta_):
        # a mean that overflows, or vanishes under a positive count, gives an
        # infinite deviance so that the step is halved
        try:
            mu_ = [math.exp(_total(map(mul, row, beta_))) for row in X]
        except OverflowError:
            return None, math.inf
        return mu_, dev_scale * _total(map(dev_term, y, mu_))

    # the recoded intercept is the first column and is identically one
    beta = [math.log(sum(y) / n)] + [0.0] * (p - 1)
    columns = list(zip(*X))
    mu, dev = means_and_deviance(beta)
    for _ in range(MAX_ITER):
        resid = list(map(sub, y, mu))
        score = [_total(map(mul, col, resid)) for col in columns]
        if max(map(abs, score)) <= tol:
            return GlmFit(tuple(beta), tuple(mu))
        weighted = [list(map(mul, col, mu)) for col in columns]
        XtWX = [[_total(map(mul, col, wcol)) for wcol in weighted] for col in columns]
        step = _solve(XtWX, score)
        # step halving keeps the deviance from increasing or diverging
        scale = 1.0
        for _ in range(40):
            candidate = [b + scale * s for b, s in zip(beta, step)]
            mu_new, dev_new = means_and_deviance(candidate)
            if math.isfinite(dev_new) and dev_new <= dev + 1e-12:
                break
            scale /= 2.0
        else:
            raise GlmConvergenceError("step halving failed to make progress")
        beta, mu, dev = candidate, mu_new, dev_new
    raise GlmConvergenceError(
        f"no convergence in {MAX_ITER} iterations; "
        "the sufficient statistic may sit on the boundary"
    )


def _check_statistic(kind: str) -> None:
    if kind not in STATISTICS:
        raise InputError(f"unknown statistic kind {kind!r}")


def test_statistic(kind: str, y, fit: GlmFit) -> float:
    """Deviance or Pearson statistic of y against the fitted means, by its
    formula: the reference that the tables of :func:`_statistic_table` match."""
    mu = fit.mu
    if len(y) != len(mu):
        raise InputError("observation length does not match the fit")
    _check_statistic(kind)
    term, scale = _TERMS[kind]
    return scale * _total(map(term, y, mu))


def _statistic_table(kind: str, fit: GlmFit, top: int):
    """``test_statistic(kind, y, fit)`` as a function of count vectors y with
    entries in 0..top, read from one table of run terms per run.

    Each table holds the terms that ``test_statistic`` adds for counts
    0..top, so T(y) adds the same floats in the same order and is the same
    float, inf included; only the per-run formulas are no longer evaluated
    per point.
    """
    term, scale = _TERMS[kind]
    tables = [[term(c, mi) for c in range(top + 1)] for mi in fit.mu]
    return lambda y: scale * reduce(add, map(getitem, tables, y), 0.0)


# not a unit test, despite the name pytest would otherwise collect
test_statistic.__test__ = False
