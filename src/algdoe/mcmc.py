"""Conditional goodness-of-fit tests: exact enumeration and Metropolis-Hastings.

Conditioning the Poisson null on the sufficient statistic leaves the law
pi(y) proportional to 1 / prod(y_i!) on the fiber.  The chain proposes a
uniformly chosen basis move with a uniform sign; proposals leaving the
nonnegative orthant count as rejections, which keeps the chain reversible.
The chains of one test intern the states they visit, one integer id per
distinct state, and resolve each proposal, a (state, move, sign) triple,
once, on its first use: it leaves the orthant (stay, no draw), has
log r >= 0 (accept, no draw), or owes one uniform draw against exp(log r).
A proposal met again replays that outcome with the same random draws, so the
stream is the one a chain that recomputes every step would give.  The
outcomes live in one flat list of 2 * len(moves) slots per visited state
(8 bytes each on a 64-bit build, so 144 bytes per state for 9 moves),
indexed by state id and proposal; a replayed step is one list read and one
sign test.  Memory grows with the distinct states visited times the moves,
and the step count bounds the states.  Every statistic of a test, the
observed one included, is read as a sum from one set of per-run tables of
the statistic's terms for counts 0..N (N the total of y0, which every point
of the fiber shares), once per distinct recorded state or fiber point.
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
from itertools import repeat

from .covariates import CovariateMatrix
from .errors import InputError, int_arg, int_counts, int_fields
from .glm import GlmFit, _check_statistic, _statistic_table, fit_null_glm
from .linalg import column_dots
from .markov import MAX_FIBER_RUNS, MAX_FIBER_TOTAL, MarkovBasis, enumerate_fiber

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
        int_fields(self, "seed", "burn_in", "samples", "thinning")
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


def _chain(y0, moves, cfg: ChainConfig, seeds):
    """Run one chain per seed, all from y0; returns ``(states, recorded)``.

    ``states`` lists each distinct state in order of first visit, so a
    state's index is its id; ``recorded[c]`` holds the ids of the states
    chain c keeps after burn-in and thinning.  The chains share the interned
    states and the resolved proposals.  Each step draws the move index k as
    ``Random.randrange(len(moves))`` does and the sign as ``random() < 0.5``.
    """
    nmoves = len(moves)
    if not nmoves:
        raise InputError("a chain needs at least one move")
    bits = nmoves.bit_length()
    width = 2 * nmoves
    # each move as its (coordinate, entry) pairs on its support, in index
    # order, for sign +1 at j = k and sign -1 at j = nmoves + k
    signed = [tuple((i, b) for i, b in enumerate(z) if b) for z in moves]
    signed += [tuple((i, -b) for i, b in support) for support in signed]
    # a coordinate can pass the total before a later one of the same
    # proposal turns out negative, so the table reaches past the total
    reach = max((abs(b) for support in signed for _, b in support), default=0)
    lgam = [math.lgamma(k + 1) for k in range(sum(y0) + reach + 1)]
    states = [tuple(y0)]
    ids = {states[0]: 0}
    unresolved = [-1] * width
    table = unresolved[:]
    probs: list[float] = []
    targets: list[int | None] = []

    def intern(y, support):
        target = list(y)
        for i, b in support:
            target[i] += b
        target = tuple(target)
        tid = ids.setdefault(target, len(states))
        if tid == len(states):
            states.append(target)
            table.extend(unresolved)
        return tid

    # Proposal j of state sid is resolved on its first use into the slot
    # table[sid * width + j], which holds -1 until then.  A state id >= 0 is
    # where the chain goes with no draw: the state itself if the proposal
    # leaves the orthant, the target if log r >= 0.  Otherwise the slot holds
    # -2 - d for the d-th proposal that owes one uniform draw against
    # probs[d] = exp(log r), whose target is interned when a draw first
    # accepts it (targets[d]).  The sign, not the probability, says whether a
    # draw is owed: exp(log r) can underflow to 0.0, or round to 1.0 with
    # log r < 0.
    stride = cfg.thinning
    steps = cfg.burn_in + stride * cfg.samples
    runs = []
    for seed in seeds:
        rng = random.Random(seed)
        getrandbits = rng.getrandbits
        uniform = rng.random
        recorded = []
        record = recorded.append
        sid = base = 0
        for _ in repeat(None, steps):
            k = getrandbits(bits)
            while k >= nmoves:
                k = getrandbits(bits)
            key = base + k
            if uniform() >= 0.5:
                key += nmoves
            nxt = table[key]
            if nxt < 0:
                if nxt == -1:
                    y = states[sid]
                    support = signed[key - base]
                    # log acceptance ratio, summed in index order over the support
                    logr = 0.0
                    for i, b in support:
                        v = y[i] + b
                        if v < 0:
                            nxt = sid
                            break
                        logr += lgam[y[i]] - lgam[v]
                    else:
                        if logr >= 0.0:
                            nxt = intern(y, support)
                        else:
                            nxt = -2 - len(probs)
                            probs.append(math.exp(logr))
                            targets.append(None)
                    table[key] = nxt
                if nxt < 0:
                    d = -2 - nxt
                    if uniform() < probs[d]:
                        nxt = targets[d]
                        if nxt is None:
                            nxt = targets[d] = intern(states[sid], signed[key - base])
                    else:
                        nxt = sid
            sid = nxt
            base = nxt * width
            record(nxt)
        # step t (from 1) is kept when t = burn_in + stride * s, s = 1..samples
        del recorded[: cfg.burn_in]
        if stride > 1:
            recorded[:] = recorded[stride - 1 :: stride]
        runs.append(recorded)
    return states, runs


def _check_fit(recoded, y0, fit: GlmFit) -> None:
    """Refuse a fit of another fiber.  A'y is an integer vector in the
    recoded coordinates, so two fibers differ by at least 1 there, while the
    fit of y0 meets A'mu = A'y0 to within the score tolerance."""
    for gap in column_dots(recoded, [y - mu for y, mu in zip(y0, fit.mu)]):
        if abs(gap) >= 0.5:
            raise InputError(
                f"the fit is not of the fiber of y0: A'mu misses A'y0 by {gap:.6g} "
                "in a recoded coordinate"
            )


def _scorer(A: CovariateMatrix, y0, kind: str, fit: GlmFit | None, top: int):
    """T(y0) against ``fit``, by default y0's own, and the one tie rule ``extreme(y)``,
    read from one table of run terms for counts 0..top, built once the fit is checked."""
    if fit is None:
        fit = fit_null_glm(A, y0)
    if len(fit.mu) != len(y0):
        raise InputError("observation length does not match the fit")
    _check_fit(A.recoded, y0, fit)
    statistic = _statistic_table(kind, fit, top)
    t_obs = statistic(y0)
    return t_obs, lambda y: _at_least_as_extreme(statistic(y), t_obs)


def _batch_means_se(indicators) -> float:
    """Batch-means standard error of the mean of 0/1 ints, from the integer
    batch counts with one final division, so no float sum sets its digits."""
    b = math.isqrt(len(indicators))
    if b < 2:  # else nb >= b >= 2, as b * b <= len(indicators)
        return 0.0
    nb = len(indicators) // b
    counts = [sum(indicators[k * b : (k + 1) * b]) for k in range(nb)]
    spread = nb * sum(c * c for c in counts) - sum(counts) ** 2
    return math.sqrt(spread / (b * b * nb * nb * (nb - 1)))


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
    and pools their counts.  A degenerate fiber (no moves) is y0 alone: p = 1.
    A move outside the kernel of A, which would leave the fiber, is refused,
    and so is a ``fit`` of another fiber than y0's.
    """
    _check_statistic(kind)
    chains = int_arg("chains", chains)
    if chains < 1:
        raise InputError("need at least one chain")
    y0 = int_counts(A.n, y0)
    for z in basis.moves:
        if len(z) != A.n or any(column_dots(A.recoded, z)):
            raise InputError(f"move {z} is not a kernel vector of A")
    t_obs, extreme = _scorer(A, y0, kind, fit, sum(y0) if basis.moves else max(y0))
    if not basis.moves:
        return TestResult(t_obs, 1.0, 0.0, 0, "mcmc")
    seeds = [chain_seed(cfg.seed, c) for c in range(chains)]
    states, runs = _chain(y0, basis.moves, cfg, seeds)
    # the indicator depends on the state alone, so it is computed once per
    # distinct recorded state, by id, over all chains
    hit_of: list[int | None] = [None] * len(states)
    for sid in set().union(*runs):
        hit_of[sid] = int(extreme(states[sid]))
    hits = 0
    total = 0
    se_parts: list[float] = []
    for recorded in runs:
        indicators = list(map(hit_of.__getitem__, recorded))
        hits += sum(indicators)
        total += len(indicators)
        se_parts.append(_batch_means_se(indicators))
    p = hits / total
    se = math.sqrt(math.fsum(s * s for s in se_parts)) / chains
    return TestResult(t_obs, p, se, total, "mcmc")


def _multinomial_weights(fiber) -> list[int]:
    """N!/prod(y_i!) per fiber point: integers proportional to 1/prod(y_i!),
    since every point of a fiber has the same total N (the intercept)."""
    fact = [math.factorial(k) for k in range(sum(fiber[0]) + 1)]
    return [fact[-1] // math.prod(map(fact.__getitem__, y)) for y in fiber]


def exact_p_value(
    A: CovariateMatrix,
    y0,
    kind: str,
    max_total: int = MAX_FIBER_TOTAL,
    max_runs: int = MAX_FIBER_RUNS,
    fit: GlmFit | None = None,
) -> TestResult:
    """Exact conditional p-value by complete fiber enumeration.

    The fiber weights 1/prod(y_i!) are handled exactly, as the integers
    N!/prod(y_i!); only the test statistic itself is floating point.  A
    ``fit`` of another fiber than y0's is refused.
    """
    _check_statistic(kind)
    y0 = int_counts(A.n, y0)
    fiber = enumerate_fiber(A, y0, max_total=max_total, max_runs=max_runs)
    at = bisect_left(fiber, y0)
    if at == len(fiber) or fiber[at] != y0:
        raise InputError("the observed vector is not in its own fiber")
    t_obs, extreme = _scorer(A, y0, kind, fit, sum(y0))
    weights = _multinomial_weights(fiber)
    num = sum(w for y, w in zip(fiber, weights) if extreme(y))
    p = Fraction(num, sum(weights))
    return TestResult(t_obs, float(p), 0.0, len(fiber), "exact-enumeration", p)


def fiber_distribution(A: CovariateMatrix, y0, **caps):
    """Exact conditional law on the fiber, as {y: Fraction} normalized."""
    fiber = enumerate_fiber(A, y0, **caps)
    weights = _multinomial_weights(fiber)
    den = sum(weights)
    return {y: Fraction(w, den) for y, w in zip(fiber, weights)}
