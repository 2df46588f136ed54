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

import numpy as np

from .covariates import CovariateMatrix, recode_integer
from .cyclotomic import Echelon
from .errors import GlmConvergenceError, InputError

SCORE_TOL = 1e-10
MAX_ITER = 100


@dataclass(frozen=True)
class GlmFit:
    """Converged Poisson fit: log mu = X beta with A'mu = A'y at the optimum."""

    beta: tuple[float, ...]
    mu: tuple[float, ...]
    converged: bool


def design_matrix(A: CovariateMatrix) -> np.ndarray:
    """Real design matrix for the fit.

    Rational matrices are used as-is (rank-checked at construction), so the
    coefficient vector aligns with the covariate columns.  A complex-contrast
    matrix is replaced by a column basis of its integer recoding, which spans
    the same rational space and therefore yields the identical fit.
    """
    if not isinstance(A.columns[0][0], Fraction):
        ech = Echelon()
        kept = [col for j, col in enumerate(recode_integer(A))
                if ech.insert(map(Fraction, col), j) is None]
        return np.array(kept, dtype=float).T
    return np.array([[float(v) for v in col] for col in A.columns], dtype=float).T


def fit_null_glm(A: CovariateMatrix, y0) -> GlmFit:
    """Poisson maximum likelihood for the null model defined by A.

    Raises :class:`GlmConvergenceError` when the score equations cannot be
    satisfied, which happens on boundary sufficient statistics.
    """
    y = np.asarray([int(v) for v in y0], dtype=float)
    if y.shape[0] != A.n:
        raise InputError("observation length does not match the run count")
    if np.any(y < 0):
        raise InputError("observations must be nonnegative")
    X = design_matrix(A)
    n, p = X.shape
    if y.sum() == 0:
        raise GlmConvergenceError("all-zero observations lie on the boundary")

    beta = np.zeros(p)
    beta[0] = math.log(y.mean())
    # the recoded intercept is the first column and is identically one
    eta = X @ beta
    mu = np.exp(eta)

    def deviance(mu_):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(y > 0, y * np.log(y / mu_), 0.0)
        return 2.0 * float(np.sum(term - (y - mu_)))

    dev = deviance(mu)
    for _ in range(MAX_ITER):
        score = X.T @ (y - mu)
        if float(np.max(np.abs(score))) <= SCORE_TOL:
            return GlmFit(tuple(map(float, beta)), tuple(map(float, mu)), True)
        W = mu
        XtWX = X.T @ (X * W[:, None])
        try:
            step = np.linalg.solve(XtWX, score)
        except np.linalg.LinAlgError as exc:
            raise GlmConvergenceError(f"singular information matrix: {exc}") from exc
        # step halving keeps the deviance from increasing or diverging
        scale = 1.0
        for _ in range(40):
            candidate = beta + scale * step
            mu_new = np.exp(X @ candidate)
            if np.all(np.isfinite(mu_new)):
                dev_new = deviance(mu_new)
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
    if kind == "deviance":
        total = 0.0
        for yi, mi in zip(y, mu):
            if yi > 0:
                if mi == 0.0:
                    return math.inf
                total += yi * math.log(yi / mi) - (yi - mi)
            else:
                total += mi
        return 2.0 * total
    raise InputError(f"unknown statistic kind {kind!r}")


# not a unit test, despite the name pytest would otherwise collect
test_statistic.__test__ = False
