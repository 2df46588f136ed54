"""Conditional goodness-of-fit tests: exact enumeration and Metropolis-Hastings.

Conditioning the Poisson null on the sufficient statistic leaves the law
pi(y) proportional to 1 / prod(y_i!) on the fiber.  The chain proposes a
uniformly chosen basis move with a uniform sign; proposals leaving the
nonnegative orthant count as rejections, which keeps the chain reversible.
P-values count every point at least as extreme as the observed one, ties
included: floating-point statistics that are equal in exact arithmetic can
differ in the last bits, so T(y) >= T(y_obs) is tested with the relative
tolerance REL_TOL, as R's fisher.test does.  The observed point is always
included.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .covariates import CovariateMatrix, _check_counts, recode_integer
from .errors import InputError
from .glm import GlmFit, fit_null_glm, test_statistic
from .markov import MarkovBasis, _residual, enumerate_fiber

DEFAULT_BURN_IN = 10_000
DEFAULT_SAMPLES = 100_000
REL_TOL = 1e-7


def _at_least_as_extreme(t: float, t_obs: float) -> bool:
    """T(y) >= T(y_obs), up to the relative tolerance REL_TOL."""
    return t >= t_obs - REL_TOL * abs(t_obs)


@dataclass(frozen=True)
class ChainConfig:
    seed: int
    burn_in: int = DEFAULT_BURN_IN
    samples: int = DEFAULT_SAMPLES
    thinning: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise InputError("samples must be at least 1")
        if self.burn_in < 0:
            raise InputError("burn-in must be nonnegative")
        if self.thinning < 1:
            raise InputError("thinning must be at least 1")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    std_error: float
    samples_used: int
    method: str  # "mcmc" or "exact-enumeration"
    p_exact: Fraction | None = None


def splitmix64(x: int) -> int:
    """64-bit mix used to derive independent per-chain seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def chain_seed(master: int, chain_index: int) -> int:
    return splitmix64((master + chain_index) & 0xFFFFFFFFFFFFFFFF)


def chain_states(y0, moves, cfg: ChainConfig, seed: int | None = None):
    """Generator of recorded fiber states, after burn-in and thinning.

    The stationary law is the conditional Poisson pi(y) ~ 1/prod(y_i!).
    Deterministic given the seed.
    """
    rng = random.Random(cfg.seed if seed is None else seed)
    y = list(y0)
    # each move as its (coordinate, entry) pairs on its support, in index
    # order: a step reads and writes only the coordinates the move changes
    supports = [tuple((i, b) for i, b in enumerate(z) if b) for z in moves]
    # a coordinate can pass the total before a later one of the same
    # proposal turns out negative, so the table reaches past the total
    reach = max((abs(b) for support in supports for _, b in support), default=0)
    lgam = [math.lgamma(k + 1) for k in range(sum(y) + reach + 1)]
    nmoves = len(supports)
    stride = cfg.thinning
    steps = cfg.burn_in + stride * cfg.samples
    recorded = 0
    for step in range(1, steps + 1):
        support = supports[rng.randrange(nmoves)]
        sign = 1 if rng.random() < 0.5 else -1
        # log acceptance ratio, summed in index order over the support; a
        # negative coordinate rejects the proposal with no acceptance draw
        logr = 0.0
        for i, b in support:
            v = y[i] + sign * b
            if v < 0:
                break
            logr += lgam[y[i]] - lgam[v]
        else:
            if logr >= 0.0 or rng.random() < math.exp(logr):
                for i, b in support:
                    y[i] += sign * b
        if step > cfg.burn_in and (step - cfg.burn_in) % stride == 0:
            recorded += 1
            yield tuple(y)
            if recorded >= cfg.samples:
                return


def _batch_means_se(indicators) -> float:
    m = len(indicators)
    b = math.isqrt(m)
    if b < 2 or m // b < 2:
        return 0.0
    nbatch = m // b
    means = []
    for k in range(nbatch):
        chunk = indicators[k * b : (k + 1) * b]
        means.append(sum(chunk) / b)
    grand = sum(means) / nbatch
    var = sum((x - grand) ** 2 for x in means) / (nbatch - 1)
    return math.sqrt(var / nbatch)


def mh_sample(
    A: CovariateMatrix,
    y0,
    basis: MarkovBasis,
    kind: str,
    cfg: ChainConfig,
    chains: int = 1,
    fit: GlmFit | None = None,
) -> TestResult:
    """Metropolis-Hastings estimate of the conditional p-value.

    Runs ``chains`` independent chains with seeds split from the master seed
    and pools their counts.  A degenerate fiber (no moves) returns p = 1.
    A move outside the kernel of A, which would leave the fiber, is refused.
    """
    if chains < 1:
        raise InputError("need at least one chain")
    y0 = _check_counts(A.n, y0)
    recoded = recode_integer(A)
    for z in basis.moves:
        if len(z) != A.n or any(_residual(recoded, z)):
            raise InputError(f"move {z} is not a kernel vector of A")
    if fit is None:
        fit = fit_null_glm(A, y0)
    t_obs = test_statistic(kind, y0, fit)
    if not basis.moves:
        return TestResult(t_obs, 1.0, 0.0, 0, "mcmc")
    hits = 0
    total = 0
    se_parts: list[float] = []
    # the indicator depends on the state alone, so each distinct state's
    # statistic is computed once; chains revisit a few states many times
    indicator_of: dict[tuple[int, ...], float] = {}
    for c in range(chains):
        indicators = []
        for state in chain_states(y0, basis.moves, cfg, seed=chain_seed(cfg.seed, c)):
            hit = indicator_of.get(state)
            if hit is None:
                t = test_statistic(kind, state, fit)
                hit = 1.0 if _at_least_as_extreme(t, t_obs) else 0.0
                indicator_of[state] = hit
            indicators.append(hit)
        hits += int(sum(indicators))
        total += len(indicators)
        se_parts.append(_batch_means_se(indicators))
    p = hits / total
    se = math.sqrt(sum(s * s for s in se_parts)) / chains
    return TestResult(t_obs, p, se, total, "mcmc")


def _multinomial_weights(fiber) -> list[int]:
    """N!/prod(y_i!) per fiber point: integers proportional to 1/prod(y_i!),
    since every point of a fiber has the same total N (the intercept)."""
    fact = [math.factorial(k) for k in range(sum(fiber[0]) + 1)]
    return [fact[-1] // math.prod(fact[v] for v in y) for y in fiber]


def exact_p_value(
    A: CovariateMatrix,
    y0,
    kind: str,
    max_total: int = 30,
    max_runs: int = 16,
    fit: GlmFit | None = None,
) -> TestResult:
    """Exact conditional p-value by complete fiber enumeration.

    The fiber weights 1/prod(y_i!) are handled exactly, as the integers
    N!/prod(y_i!); only the test statistic itself is floating point.
    """
    y0 = _check_counts(A.n, y0)
    fiber = enumerate_fiber(A, y0, max_total=max_total, max_runs=max_runs)
    at = bisect_left(fiber, y0)
    if at == len(fiber) or fiber[at] != y0:
        raise InputError("the observed vector is not in its own fiber")
    if fit is None:
        fit = fit_null_glm(A, y0)
    t_obs = test_statistic(kind, y0, fit)
    weights = _multinomial_weights(fiber)
    num = sum(
        w
        for y, w in zip(fiber, weights)
        if _at_least_as_extreme(test_statistic(kind, y, fit), t_obs)
    )
    p = Fraction(num, sum(weights))
    return TestResult(t_obs, float(p), 0.0, len(fiber), "exact-enumeration", p)


def fiber_distribution(A: CovariateMatrix, y0, **caps):
    """Exact conditional law on the fiber, as {y: Fraction} normalized."""
    fiber = enumerate_fiber(A, y0, **caps)
    weights = _multinomial_weights(fiber)
    den = sum(weights)
    return {y: Fraction(w, den) for y, w in zip(fiber, weights)}
