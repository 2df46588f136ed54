import hashlib
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from algdoe import (
    ChainConfig,
    Design,
    GlmFit,
    InputError,
    build_covariate_matrix,
    enumerate_fiber,
    exact_p_value,
    full_factorial,
    fiber_distribution,
    markov_basis,
    mh_sample,
)
from algdoe.glm import fit_null_glm, test_statistic
from algdoe.mcmc import (
    _at_least_as_extreme,
    _batch_means_se,
    _chain,
    chain_seed,
    splitmix64,
)

from conftest import main_effects, term


def chain_states(y0, moves, cfg: ChainConfig, seed: int | None = None):
    """Generator of recorded fiber states, after burn-in and thinning.

    The stationary law is the conditional Poisson pi(y) ~ 1/prod(y_i!).
    Deterministic given the seed.
    """
    states, (recorded,) = _chain(y0, moves, cfg, [cfg.seed if seed is None else seed])
    for sid in recorded:
        yield states[sid]


@pytest.fixture(scope="module")
def setup_2x2():
    d = Design(2, 2, ((1, 1), (1, -1), (-1, 1), (-1, -1)), "pm1")
    A = build_covariate_matrix(d, main_effects(2))
    return A, markov_basis(A)


def test_exact_distribution_on_three_point_fiber(setup_2x2):
    A, _ = setup_2x2
    dist = fiber_distribution(A, (1, 1, 1, 1))
    assert dist == {
        (0, 2, 2, 0): Fraction(1, 6),
        (1, 1, 1, 1): Fraction(4, 6),
        (2, 0, 0, 2): Fraction(1, 6),
    }


def test_exact_p_values(setup_2x2):
    A, _ = setup_2x2
    res = exact_p_value(A, (1, 1, 1, 1), "pearson")
    assert res.p_exact == 1
    assert res.statistic == pytest.approx(0.0)
    assert res.method == "exact-enumeration"
    assert res.std_error == 0.0

    res = exact_p_value(A, (0, 2, 2, 0), "pearson")
    assert res.p_exact == Fraction(1, 3)
    assert res.statistic == pytest.approx(4.0)


def test_exact_p_saturated_model():
    d = Design(2, 2, ((1, 1), (1, -1), (-1, 1), (-1, -1)), "pm1")
    A = build_covariate_matrix(d, main_effects(2) + [term(2, 1, 2)])
    res = exact_p_value(A, (1, 2, 3, 4), "pearson")
    assert res.p_exact == 1
    assert res.samples_used == 1


def test_exact_p_intercept_only_two_cells():
    d = Design(1, 2, ((1,), (-1,)), "pm1")
    A = build_covariate_matrix(d, [term(1)])
    res = exact_p_value(A, (0, 2), "pearson")
    assert res.p_exact == Fraction(1, 2)
    assert res.statistic == pytest.approx(2.0)


def test_exact_p_counts_ties():
    # symmetric fiber points tie with the observed statistic in exact
    # arithmetic but come out a few ulps lower in floating point
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    for kind in ("deviance", "pearson"):
        res = exact_p_value(A, (3, 1, 0, 2, 2, 0, 1, 3), kind)
        assert res.p_exact == Fraction(1704, 5929)


def test_mh_matches_exact_within_three_se(setup_2x2):
    A, basis = setup_2x2
    cfg = ChainConfig(seed=20240809, burn_in=2000, samples=40_000)
    for y0 in ((0, 2, 2, 0), (1, 1, 1, 1), (2, 0, 0, 2)):
        exact = exact_p_value(A, y0, "pearson")
        approx = mh_sample(A, y0, basis, "pearson", cfg)
        tolerance = max(3 * approx.std_error, 0.005)
        assert abs(approx.p_value - float(exact.p_exact)) <= tolerance


def test_mh_deterministic_given_seed(setup_2x2):
    A, basis = setup_2x2
    cfg = ChainConfig(seed=99, burn_in=100, samples=5000)
    a = mh_sample(A, (0, 2, 2, 0), basis, "pearson", cfg)
    b = mh_sample(A, (0, 2, 2, 0), basis, "pearson", cfg)
    assert a == b
    c = mh_sample(A, (0, 2, 2, 0), basis, "pearson", ChainConfig(seed=100, burn_in=100, samples=5000))
    assert c.p_value != a.p_value or c.std_error != a.std_error


def test_long_run_frequencies_match_conditional_law(setup_2x2):
    A, basis = setup_2x2
    cfg = ChainConfig(seed=11, burn_in=0, samples=1_000_000)
    counts = Counter(chain_states((1, 1, 1, 1), basis.moves, cfg))
    total = sum(counts.values())
    expected = {
        (0, 2, 2, 0): Fraction(1, 6),
        (1, 1, 1, 1): Fraction(4, 6),
        (2, 0, 0, 2): Fraction(1, 6),
    }
    tv = sum(
        abs(counts.get(y, 0) / total - float(p)) for y, p in expected.items()
    ) / 2
    assert tv <= 0.01


def test_degenerate_fiber(setup_2x2):
    from algdoe.markov import MarkovBasis

    A, _ = setup_2x2
    empty = MarkovBasis(4, ())
    res = mh_sample(A, (1, 1, 1, 1), empty, "pearson", ChainConfig(seed=1))
    assert res.p_value == 1.0 and res.std_error == 0.0
    assert res.samples_used == 0


def test_degenerate_fiber_tabulates_no_count_above_y0s_largest():
    # the saturated 2x2 model: the fiber is y0 alone, so its statistic needs
    # terms up to 41 000 per run, not up to the total 160 500 (about 21 MB)
    # fit_null_glm does not converge at these counts, so the exact fit is given
    from algdoe.markov import MarkovBasis

    d = Design(2, 2, ((1, 1), (1, -1), (-1, 1), (-1, -1)), "pm1")
    A = build_covariate_matrix(d, main_effects(2) + [term(2, 1, 2)])
    y0 = (40000, 39000, 41000, 40500)
    fit = GlmFit((0.0,) * 4, tuple(map(float, y0)))
    tracemalloc.start()
    try:
        res = mh_sample(A, y0, MarkovBasis(4, ()), "deviance", ChainConfig(seed=1), fit=fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.statistic, res.p_value, res.samples_used) == (0.0, 1.0, 0)
    assert peak < 8e6


def test_mh_sample_rejects_moves_outside_the_kernel(setup_2x2):
    from algdoe.markov import MarkovBasis

    A, _ = setup_2x2
    cfg = ChainConfig(seed=1, burn_in=10, samples=100)
    # a move that changes the total leaves the fiber
    with pytest.raises(InputError, match=r"move \(1, 0, 0, 0\)"):
        mh_sample(A, (1, 1, 1, 1), MarkovBasis(4, ((1, 0, 0, 0),)), "pearson", cfg)
    # a move for three runs against a four-run matrix
    with pytest.raises(InputError, match=r"move \(1, -1, 0\)"):
        mh_sample(A, (1, 1, 1, 1), MarkovBasis(3, ((1, -1, 0),)), "pearson", cfg)


# 2^3 main effects: the fit of FIT_POINT belongs to another fiber than
# OBSERVED's (totals 12 and 6); with it, Pearson's p_exact would read 7/25
# where the observed point's own fit gives 4/25
FIT_POINT = (3, 1, 0, 2, 2, 0, 1, 3)
OBSERVED = (1, 2, 0, 0, 0, 1, 2, 0)


def test_fit_of_another_fiber_is_refused():
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    other = fit_null_glm(A, FIT_POINT)
    assert exact_p_value(A, OBSERVED, "pearson").p_exact == Fraction(4, 25)
    with pytest.raises(InputError, match="not of the fiber of y0"):
        exact_p_value(A, OBSERVED, "pearson", fit=other)
    cfg = ChainConfig(seed=1, burn_in=10, samples=100)
    with pytest.raises(InputError, match="not of the fiber of y0"):
        mh_sample(A, OBSERVED, markov_basis(A), "pearson", cfg, fit=other)


def test_fit_of_another_point_of_the_fiber_is_accepted():
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    fiber = enumerate_fiber(A, OBSERVED)
    point = next(y for y in fiber if y != OBSERVED)
    fit = fit_null_glm(A, point)
    for kind in ("pearson", "deviance"):
        own = exact_p_value(A, OBSERVED, kind)
        assert exact_p_value(A, OBSERVED, kind, fit=fit).p_exact == own.p_exact
    cfg = ChainConfig(seed=1, burn_in=10, samples=100)
    basis = markov_basis(A)
    assert (mh_sample(A, OBSERVED, basis, "pearson", cfg, fit=fit).p_value
            == mh_sample(A, OBSERVED, basis, "pearson", cfg).p_value)


def test_chain_needs_a_move():
    with pytest.raises(InputError, match="at least one move"):
        _chain((1, 1, 1, 1), (), ChainConfig(seed=1, samples=10), [1])


def test_unknown_statistic_refused_before_any_work(monkeypatch):
    # 2^4 main effects, y0 = (2,0,0,1)x4: a 7 830-point fiber to enumerate
    from algdoe import mcmc
    from algdoe.markov import MarkovBasis

    def refuse(*args, **kwargs):
        raise AssertionError("work was done before the statistic kind was checked")

    monkeypatch.setattr(mcmc, "enumerate_fiber", refuse)
    monkeypatch.setattr(mcmc, "fit_null_glm", refuse)
    A = build_covariate_matrix(full_factorial(4), main_effects(4))
    y0 = (2, 0, 0, 1) * 4
    with pytest.raises(InputError, match="unknown statistic kind 'chi2'"):
        exact_p_value(A, y0, "chi2")
    with pytest.raises(InputError, match="unknown statistic kind 'chi2'"):
        mh_sample(A, y0, MarkovBasis(16, ()), "chi2", ChainConfig(seed=1))


def test_chain_pooling_and_seed_split(setup_2x2):
    A, basis = setup_2x2
    assert splitmix64(0) != splitmix64(1)
    assert chain_seed(42, 0) != chain_seed(42, 1)
    cfg = ChainConfig(seed=5, burn_in=100, samples=2000)
    pooled = mh_sample(A, (0, 2, 2, 0), basis, "pearson", cfg, chains=4)
    assert pooled.samples_used == 8000
    single = mh_sample(A, (0, 2, 2, 0), basis, "pearson", cfg, chains=1)
    assert single.samples_used == 2000


def test_thinning_and_burn_in_change_the_stream(setup_2x2):
    A, basis = setup_2x2
    thin = list(
        chain_states((1, 1, 1, 1), basis.moves, ChainConfig(seed=3, burn_in=0, samples=50, thinning=3))
    )
    dense = list(
        chain_states((1, 1, 1, 1), basis.moves, ChainConfig(seed=3, burn_in=0, samples=150, thinning=1))
    )
    assert thin == dense[2::3]


@pytest.mark.parametrize(
    "kwargs", [{"thinning": 0}, {"thinning": -1}, {"burn_in": -1}, {"samples": 0}]
)
def test_chain_config_rejects_bad_values(kwargs):
    with pytest.raises(InputError):
        ChainConfig(seed=1, **kwargs)


def _reference_chain_states(y0, moves, cfg: ChainConfig, seed: int | None = None):
    """The dense chain: builds and scans the whole candidate at every step."""
    rng = random.Random(cfg.seed if seed is None else seed)
    y = list(y0)
    n = len(y)
    total = sum(y)
    lgam = [math.lgamma(k + 1) for k in range(total + 1)]
    moves = [tuple(z) for z in moves]
    nmoves = len(moves)
    stride = cfg.thinning
    steps = cfg.burn_in + stride * cfg.samples
    recorded = 0
    for step in range(1, steps + 1):
        z = moves[rng.randrange(nmoves)]
        sign = 1 if rng.random() < 0.5 else -1
        candidate = [a + sign * b for a, b in zip(y, z)]
        if min(candidate) >= 0:
            # log acceptance ratio: sum over changed coordinates only
            logr = 0.0
            for i in range(n):
                if z[i]:
                    logr += lgam[y[i]] - lgam[candidate[i]]
            if logr >= 0.0 or rng.random() < math.exp(logr):
                y = candidate
        if step > cfg.burn_in and (step - cfg.burn_in) % stride == 0:
            recorded += 1
            yield tuple(y)
            if recorded >= cfg.samples:
                return


def _reference_mh_sample(A, y0, basis, kind, cfg, chains=1):
    """mh_sample with the statistic computed at every recorded state."""
    from algdoe.mcmc import TestResult

    fit = fit_null_glm(A, y0)
    t_obs = test_statistic(kind, y0, fit)
    hits = 0
    total = 0
    se_parts = []
    for c in range(chains):
        indicators = []
        for state in _reference_chain_states(
            y0, basis.moves, cfg, seed=chain_seed(cfg.seed, c)
        ):
            t = test_statistic(kind, state, fit)
            indicators.append(int(_at_least_as_extreme(t, t_obs)))
        hits += sum(indicators)
        total += len(indicators)
        se_parts.append(_batch_means_se(indicators))
    p = hits / total
    se = math.sqrt(math.fsum(s * s for s in se_parts)) / chains
    return TestResult(t_obs, p, se, total, "mcmc")


def _chain_cases():
    ff3 = full_factorial(3)
    me3 = main_effects(3)
    models = [
        build_covariate_matrix(ff3, me3),
        build_covariate_matrix(ff3, me3 + [term(3, 1, 2)]),
        build_covariate_matrix(full_factorial(4), main_effects(4)),
    ]
    for contrast in ("baseline", "symmetric", "complex"):
        models.append(
            build_covariate_matrix(full_factorial(2, 3), main_effects(2), contrast)
        )
    cases = [(A, markov_basis(A).moves) for A in models]
    # an entry of absolute value 2: the move leaves the orthant from y_0 = 1
    A = build_covariate_matrix(full_factorial(1, 3), [term(1)])
    cases.append((A, markov_basis(A).moves + ((2, -1, -1),)))
    return cases


def _random_counts(rng, n, total):
    y = [0] * n
    for _ in range(total):
        y[rng.randrange(n)] += 1
    return tuple(y)


def test_chain_states_match_dense_reference():
    rng = random.Random(7)
    for _, moves in _chain_cases():
        n = len(moves[0])
        for seed in (1, 2, 3):
            y0 = _random_counts(rng, n, rng.randint(1, 3 * n))
            for burn_in in (0, 25):
                for thinning in (1, 3):
                    cfg = ChainConfig(
                        seed=seed, burn_in=burn_in, samples=400, thinning=thinning
                    )
                    assert list(chain_states(y0, moves, cfg)) == list(
                        _reference_chain_states(y0, moves, cfg)
                    )
    # log r = 2 lgamma(1001) - lgamma(2001), about -1382, so exp(log r) is 0.0,
    # yet the reference still makes the acceptance draw; a chain that read
    # "no draw" off a zero probability would fall out of step here.  (The
    # other float edge, log r < 0 with exp(log r) == 1.0, cannot occur: every
    # nonzero lgamma(k + 1) is at least ln 2, so all table entries and their
    # sums are multiples of 2^-53, and exp(-2^-53) < 1.0.)
    moves = ((2000, -1000, -1000, 0, 0), (0, 0, 0, 1, -1))
    cfg = ChainConfig(seed=4, burn_in=0, samples=3000)
    y0 = (0, 1000, 1000, 5, 5)
    assert list(chain_states(y0, moves, cfg)) == list(
        _reference_chain_states(y0, moves, cfg)
    )


def test_mh_sample_matches_per_state_statistic():
    rng = random.Random(8)
    for A, _ in _chain_cases()[:6]:
        basis = markov_basis(A)
        y0 = _random_counts(rng, A.n, 2 * A.n)
        cfg = ChainConfig(seed=rng.randrange(2**31), burn_in=50, samples=600)
        for kind in ("deviance", "pearson"):
            for chains in (1, 3):
                want = _reference_mh_sample(A, y0, basis, kind, cfg, chains)
                assert mh_sample(A, y0, basis, kind, cfg, chains) == want


def test_batch_means_se_matches_float_batch_means():
    # the standard error of the batch means, each batch of b = isqrt(m) hits
    # averaged in floats; the integer formula differs only in rounding
    rng = random.Random(11)
    for m in (0, 1, 3, 4, 8, 9, 50, 1000, 1001):
        hits = [int(rng.random() < 0.3) for _ in range(m)]
        b = math.isqrt(m)
        if b < 2:
            assert _batch_means_se(hits) == 0.0
            continue
        means = [sum(hits[k * b : (k + 1) * b]) / b for k in range(m // b)]
        grand = sum(means) / len(means)
        var = sum((x - grand) ** 2 for x in means) / (len(means) - 1)
        want = math.sqrt(var / len(means))
        assert math.isclose(_batch_means_se(hits), want, rel_tol=1e-12, abs_tol=1e-15)


def test_mh_sample_golden():
    # pinned: the move index is drawn as Random.randrange draws it, so a
    # Python whose randrange changed would show here
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    cfg = ChainConfig(seed=2024, burn_in=1000, samples=5000)
    # the standard error comes from integer batch counts, so no float sum,
    # which Python 3.12 made compensated, moves its last bit
    se = 0.013094093748814897
    for kind in ("deviance", "pearson"):
        res = mh_sample(A, (3, 1, 0, 2, 2, 0, 1, 3), markov_basis(A), kind, cfg, chains=2)
        assert res.p_value == 0.2884
        assert res.std_error == se
        assert res.samples_used == 10000


def _conditional_corpus():
    """(A, largest total) per model of the pinned conditional outputs."""
    ff3 = full_factorial(3)
    me3 = main_effects(3)
    two_factor = [term(3, 1, 2), term(3, 1, 3), term(3, 2, 3)]
    models = [
        (build_covariate_matrix(ff3, me3), 16),
        (build_covariate_matrix(ff3, me3 + [term(3, 1, 2)]), 16),
        (build_covariate_matrix(ff3, me3 + two_factor), 24),  # no three-way
        (build_covariate_matrix(full_factorial(4), main_effects(4)), 12),
    ]
    for contrast in ("baseline", "symmetric", "complex"):
        models.append(
            (build_covariate_matrix(full_factorial(2, 3), main_effects(2), contrast), 18)
        )
    return models


# sha256 over the fits, chain results and exact p-values of a seeded corpus,
# as the per-state statistic and the dict-keyed transition table gave them;
# the same on Python 3.10-3.13
CONDITIONAL_OUTPUTS_SHA256 = (
    "2a7dc69a059f49cda4c579fdf0df4a39e9314f0a6076367ac91aa24ccafafad9"
)


def test_conditional_outputs_are_pinned():
    rng = random.Random(43)
    digest = hashlib.sha256()
    for A, top in _conditional_corpus():
        basis = markov_basis(A)
        for _ in range(5):
            y0 = _random_counts(rng, A.n, rng.randint(1, top))
            fit = fit_null_glm(A, y0)
            digest.update(f"{y0} {fit!r}\n".encode())
            for kind in ("pearson", "deviance"):
                cfg = ChainConfig(
                    seed=rng.randrange(2**32),
                    burn_in=rng.randint(0, 500),
                    samples=rng.randint(1, 4000),
                    thinning=rng.randint(1, 3),
                )
                chains = rng.randint(1, 3)
                res = mh_sample(A, y0, basis, kind, cfg, chains, fit=fit)
                digest.update(f"{cfg} {chains} {res!r}\n".encode())
                digest.update(f"{exact_p_value(A, y0, kind, fit=fit)!r}\n".encode())
    assert digest.hexdigest() == CONDITIONAL_OUTPUTS_SHA256
