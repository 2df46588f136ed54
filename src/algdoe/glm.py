"""Poisson log-linear fitting and goodness-of-fit statistics.

This is the one floating-point corner of the package: maximum likelihood for
log mu = A beta by iteratively reweighted least squares with step halving.
The fitted means depend on the data only through the sufficient statistic
A'y, so a single fit serves an entire fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .covariates import CovariateMatrix, _check_counts
from .cyclotomic import Echelon
from .errors import GlmConvergenceError, InputError

SCORE_TOL = 1e-10
MAX_ITER = 100
STATISTICS = ("pearson", "deviance")


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
    """Left-to-right float sum: built-in sum() rounds floats differently
    since Python 3.12, which would change the printed statistics."""
    total = 0.0
    for v in values:
        total += v
    return total


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
        x[i] = (a[i][p] - _total(a[i][k] * x[k] for k in range(i + 1, p))) / a[i][i]
    return x


def _deviance(y, mu) -> float:
    """Poisson deviance of y against mu; inf where a positive count meets a zero mean."""
    total = 0.0
    for yi, mi in zip(y, mu):
        if yi > 0:
            if mi == 0.0:
                return math.inf
            total += yi * math.log(yi / mi) - (yi - mi)
        else:
            total += mi
    return 2.0 * total


def fit_null_glm(A: CovariateMatrix, y0) -> GlmFit:
    """Poisson maximum likelihood for the null model defined by A.

    Raises :class:`GlmConvergenceError` when the score equations cannot be
    satisfied, which happens on boundary sufficient statistics.
    """
    y = _check_counts(A.n, y0)
    X = design_matrix(A)
    n, p = len(X), len(X[0])
    if sum(y) == 0:
        raise GlmConvergenceError("all-zero observations lie on the boundary")

    def means_and_deviance(beta_):
        # a mean that overflows, or vanishes under a positive count, gives an
        # infinite deviance so that the step is halved
        try:
            mu_ = [math.exp(_total(x * b for x, b in zip(row, beta_))) for row in X]
        except OverflowError:
            return None, math.inf
        return mu_, _deviance(y, mu_)

    # the recoded intercept is the first column and is identically one
    beta = [math.log(sum(y) / n)] + [0.0] * (p - 1)
    mu, dev = means_and_deviance(beta)
    for _ in range(MAX_ITER):
        resid = [yi - mi for yi, mi in zip(y, mu)]
        score = [_total(row[j] * r for row, r in zip(X, resid)) for j in range(p)]
        if max(map(abs, score)) <= SCORE_TOL:
            return GlmFit(tuple(beta), tuple(mu))
        WX = [[x * mi for x in row] for row, mi in zip(X, mu)]
        XtWX = [[_total(row[j] * wrow[k] for row, wrow in zip(X, WX)) for k in range(p)]
                for j in range(p)]
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
    """Deviance or Pearson statistic of y against the fitted means."""
    mu = fit.mu
    if len(y) != len(mu):
        raise InputError("observation length does not match the fit")
    if kind == "pearson":
        total = 0.0
        for yi, mi in zip(y, mu):
            if mi == 0.0:
                if yi:
                    return math.inf
                continue
            d = yi - mi
            total += d * d / mi
        return total
    _check_statistic(kind)
    return _deviance(y, mu)


# not a unit test, despite the name pytest would otherwise collect
test_statistic.__test__ = False
