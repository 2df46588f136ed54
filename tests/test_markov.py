import functools
import hashlib
import itertools
import random
import re

import pytest

from algdoe import (
    BudgetError,
    Design,
    InputError,
    ScaleError,
    build_covariate_matrix,
    enumerate_fiber,
    exact_p_value,
    fiber_connected,
    full_factorial,
    markov_basis,
)
from algdoe import PolyRing, TermOrder, Word, regular_design_from_words
from algdoe.covariates import recode_integer
from algdoe.errors import EstimabilityError
from algdoe.groebner import (
    Budget,
    GroebnerBasis,
    buchberger,
    reduce_basis,
    spolynomials_reduce_to_zero,
)
from algdoe import markov
from algdoe.linalg import column_dots, hermite, kernel_lattice
from algdoe.markov import MarkovBasis, _reduce, _saturate, _saturation_sequence

from conftest import main_effects, term


def kernel_residual(A, move) -> tuple[int, ...]:
    """A~' z for a move; all zeros iff the move is a kernel vector."""
    return column_dots(A.recoded, move)


def test_markov_basis_2x2_fixture(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    basis = markov_basis(A)
    assert len(basis.moves) == 1
    z = basis.moves[0]
    assert z == (1, -1, -1, 1) or z == (-1, 1, 1, -1)


def test_saturated_model_empty_basis(d22):
    A = build_covariate_matrix(
        d22, main_effects(2) + [term(2, 1, 2)]
    )
    basis = markov_basis(A)
    assert basis.moves == ()


def test_intercept_only_moves():
    d = full_factorial(2)
    A = build_covariate_matrix(d, [term(2)])
    basis = markov_basis(A)
    # moves of the form e_i - e_j spanning all total-preserving changes
    assert len(basis.moves) == 3
    for z in basis.moves:
        assert sorted(z) == [-1, 0, 0, 1]
    for total in range(1, 5):
        y0 = (total, 0, 0, 0)
        assert fiber_connected(A, y0, basis)


def test_moves_lie_in_kernel(d22, w16):
    for d, terms in ((d22, main_effects(2)), (w16, main_effects(7))):
        A = build_covariate_matrix(d, terms)
        basis = markov_basis(A)
        for z in basis.moves:
            assert not any(kernel_residual(A, z))


def test_fiber_fixture(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    fiber = enumerate_fiber(A, (1, 1, 1, 1))
    assert fiber == [(0, 2, 2, 0), (1, 1, 1, 1), (2, 0, 0, 2)]


def test_fiber_singleton_for_saturated_model(d22):
    A = build_covariate_matrix(d22, main_effects(2) + [term(2, 1, 2)])
    assert enumerate_fiber(A, (1, 2, 3, 4)) == [(1, 2, 3, 4)]


def test_fiber_intercept_only_compositions():
    d = Design(1, 2, ((1,), (-1,)), "pm1")
    A = build_covariate_matrix(d, [term(1)])
    fiber = enumerate_fiber(A, (0, 2))
    assert fiber == [(0, 2), (1, 1), (2, 0)]


def test_fiber_caps():
    d = full_factorial(2)
    A = build_covariate_matrix(d, [term(2)])
    with pytest.raises(ScaleError):
        enumerate_fiber(A, (40, 0, 0, 0))
    with pytest.raises(ScaleError, match="^run count 4 exceeds the cap 3$"):
        enumerate_fiber(A, (1, 1, 1, 1), max_runs=3)


def test_negative_caps_are_input_errors(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    with pytest.raises(InputError, match="max_total"):
        enumerate_fiber(A, (1, 1, 1, 1), max_total=-1)
    with pytest.raises(InputError, match="max_runs"):
        enumerate_fiber(A, (1, 1, 1, 1), max_runs=0)
    with pytest.raises(InputError, match="max_pairs"):
        Budget(max_pairs=-1)
    with pytest.raises(InputError, match="max_terms"):
        Budget(max_terms=-1)
    assert enumerate_fiber(A, (0, 0, 0, 0), max_total=0) == [(0, 0, 0, 0)]


def test_fiber_node_cap(monkeypatch):
    # 2^3 main effects at total 16 takes 1 010 search nodes (2 285 when every
    # run tried every count)
    from algdoe import markov

    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    monkeypatch.setattr(markov, "MAX_FIBER_NODES", 1000)
    with pytest.raises(ScaleError, match=r"after 1000 nodes with \d+ points found"):
        enumerate_fiber(A, (2,) * 8)
    with pytest.raises(ScaleError, match="1000 nodes"):
        fiber_connected(A, (2,) * 8, markov_basis(A))


def test_fiber_is_emitted_in_lexicographic_order():
    # exact_p_value bisects the list, and enumerate_fiber does not sort it
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    fiber = enumerate_fiber(A, (2,) * 8)
    assert len(fiber) == 425
    assert fiber == sorted(fiber)


# (1, 0, 0, 0) changes the total, so from (0, 2, 2, 0) it leads out of the
# fiber at every step; the walk stays in the fiber and stops
STRAY = (1, 0, 0, 0)


def test_move_outside_the_kernel_adds_no_edge(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    assert not fiber_connected(A, (0, 2, 2, 0), MarkovBasis(4, (STRAY,)))


def test_stray_move_beside_a_markov_basis_still_connects(d22):
    A = build_covariate_matrix(d22, main_effects(2))
    moves = markov_basis(A).moves + (STRAY,)
    assert fiber_connected(A, (0, 2, 2, 0), MarkovBasis(4, moves))


def _brute_force_fiber(A, y0, same_total):
    """Oracle: the points with the exact sufficient statistic of y0 among
    ``same_total``, the points of {0..N}^n with the total N of y0."""
    target = A.sufficient_statistic(y0)
    return [y for y in same_total if A.sufficient_statistic(y) == target]


@functools.lru_cache(maxsize=None)
def _same_total(n, total):
    # itertools.product lists the points in sorted order
    space = itertools.product(range(total + 1), repeat=n)
    return tuple(y for y in space if sum(y) == total)


def _random_counts(rng, n, total):
    y0 = [0] * n
    for _ in range(total):
        y0[rng.randrange(n)] += 1
    return tuple(y0)


def test_fiber_matches_brute_force(three_level_integer):
    ff3 = full_factorial(3)
    ff33 = full_factorial(2, 3)
    cases = [
        (build_covariate_matrix(full_factorial(2), main_effects(2)), 5),
        (build_covariate_matrix(ff3, main_effects(3)), 4),
        (build_covariate_matrix(ff3, main_effects(3) + [term(3, 1, 2)]), 4),
        (build_covariate_matrix(full_factorial(1, 3), [term(1)]), 6),
    ]
    for contrast in ("baseline", "symmetric", "complex"):
        cases.append((build_covariate_matrix(ff33, main_effects(2), contrast), 3))
        cases.append(
            (build_covariate_matrix(three_level_integer, main_effects(3), contrast), 3)
        )
    rng = random.Random(12)
    for A, total in cases:
        same_total = _same_total(A.n, total)
        for _ in range(3):
            y0 = _random_counts(rng, A.n, total)
            assert enumerate_fiber(A, y0) == _brute_force_fiber(A, y0, same_total)


def _pivots_above_one(A):
    """The forced runs of the fiber search whose pivot is above 1, with it."""
    recoded = recode_integer(A)
    forced = markov._forced_runs(recoded, [0] * len(recoded))
    return {p: pivot for p, (_, pivot, _) in forced.items() if pivot > 1}


def test_forced_runs_with_pivots_above_one(three_level_integer):
    ff33 = full_factorial(2, 3)
    cases = [
        # runs counted from 0: run 1, with pivot 2, lies between the free
        # runs 0 and 2
        (build_covariate_matrix(full_factorial(3), main_effects(3) + [term(3, 1, 2)]),
         {1: 2}, 5),
        (build_covariate_matrix(ff33, main_effects(2), "symmetric"), {2: 8, 6: 8}, 3),
        (build_covariate_matrix(ff33, main_effects(2), "complex"), {2: 3, 6: 3}, 3),
        (build_covariate_matrix(three_level_integer, main_effects(3), "symmetric"),
         {2: 8, 3: 24, 6: 8}, 3),
        (build_covariate_matrix(three_level_integer, main_effects(3), "complex"),
         {2: 3, 3: 3, 4: 3, 6: 3}, 3),
    ]
    rng = random.Random(30)
    for A, pivots, total in cases:
        assert _pivots_above_one(A) == pivots
        same_total = _same_total(A.n, total)
        for _ in range(2):
            y0 = _random_counts(rng, A.n, total)
            assert enumerate_fiber(A, y0) == _brute_force_fiber(A, y0, same_total)


def test_forced_count_with_a_remainder_ends_its_branch(monkeypatch):
    # 1, x1, x3 and x1*x2 on five runs of 2^3: the form's row (1, 2, 0, 0, 0)
    # forces y[1] = (t - y[0]) / 2, which is no integer when t - y[0] is odd
    runs = ((-1, -1, -1), (-1, -1, 1), (-1, 1, -1), (1, -1, 1), (1, 1, -1))
    terms = [term(3), term(3, 1), term(3, 3), term(3, 1, 2)]
    A = build_covariate_matrix(Design(3, 2, runs, "pm1"), terms)
    assert _pivots_above_one(A) == {1: 2}
    remainders = []

    def divmod_spy(a, b):
        q, r = divmod(a, b)
        if r:
            remainders.append((a, b))
        return q, r

    monkeypatch.setattr(markov, "divmod", divmod_spy, raising=False)
    y0 = (0, 2, 1, 0, 1)
    fiber = enumerate_fiber(A, y0)
    assert (3, 2) in remainders  # t = 4 and y[0] = 1
    assert fiber == _brute_force_fiber(A, y0, _same_total(5, 4))
    assert len(fiber) == 2


def test_fiber_2_4_main_effects_within_node_budget(monkeypatch):
    # round-robin counts, total 12: 59 100 search nodes with the forced runs
    # solved (82 590 when every run tried every count)
    from algdoe import markov

    A = build_covariate_matrix(full_factorial(4), main_effects(4))
    monkeypatch.setattr(markov, "MAX_FIBER_NODES", 200_000)
    y0 = tuple(1 if i < 12 else 0 for i in range(16))
    fiber = enumerate_fiber(A, y0)
    assert len(fiber) == 7830
    assert y0 in fiber


def test_budget_error_suggests_enumeration():
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    with pytest.raises(BudgetError) as exc:
        markov_basis(A, budget=Budget(max_pairs=2))
    assert "enumeration" in str(exc.value)


def test_budget_error_reports_saturation_progress():
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    with pytest.raises(BudgetError) as exc:
        markov_basis(A, budget=Budget(max_pairs=2))
    progress = r"saturating p\d+ \(\d+ of \d+ variables done\)"
    assert re.search(progress, str(exc.value))
    counts = (
        r"\d+ pairs made, \d+ skipped by the coprime criterion, "
        r"\d+ by the Gebauer-Moeller criteria, peak basis size \d+"
    )
    assert re.search(counts, str(exc.value))


# the pair cap of the conditional benchmark workload (perfbench/workloads.json)
CAP = Budget(max_pairs=30000)

# moves of the toric elimination that the kernel-lattice engine replaced,
# pinned as computed by it on the full factorials in run order
GOLDEN_2_3_MAIN = (
    (-1, 0, 0, 1, 1, 0, 0, -1),
    (-1, 0, 1, 0, 0, 1, 0, -1),
    (-1, 0, 1, 0, 1, 0, -1, 0),
    (-1, 1, 0, 0, 0, 0, 1, -1),
    (-1, 1, 0, 0, 1, -1, 0, 0),
    (-1, 1, 1, -1, 0, 0, 0, 0),
    (0, -1, 0, 1, 0, 1, 0, -1),
    (0, 0, -1, 1, 0, 0, 1, -1),
    (0, 0, 0, 0, -1, 1, 1, -1),
)
GOLDEN_2_3_MAIN_X1X2 = (
    (-1, 1, 0, 0, 0, 0, 1, -1),
    (-1, 1, 0, 0, 1, -1, 0, 0),
    (-1, 1, 1, -1, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 1, -1),
    (0, 0, -1, 1, 1, -1, 0, 0),
    (0, 0, 0, 0, -1, 1, 1, -1),
)
GOLDEN_3X3_MAIN = (
    (-1, 0, 1, 0, 0, 0, 1, 0, -1),
    (-1, 0, 1, 1, 0, -1, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 1, -1, 0),
    (-1, 1, 0, 1, -1, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 1, -1),
    (0, -1, 1, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, -1, 0, 1, 1, 0, -1),
    (0, 0, 0, -1, 1, 0, 1, -1, 0),
    (0, 0, 0, 0, -1, 1, 0, 1, -1),
)


def test_golden_moves():
    ff3 = full_factorial(3)
    cases = (
        (build_covariate_matrix(ff3, main_effects(3)), GOLDEN_2_3_MAIN),
        (
            build_covariate_matrix(ff3, main_effects(3) + [term(3, 1, 2)]),
            GOLDEN_2_3_MAIN_X1X2,
        ),
        (
            build_covariate_matrix(full_factorial(2, 3), main_effects(2), "baseline"),
            GOLDEN_3X3_MAIN,
        ),
    )
    for A, moves in cases:
        assert markov_basis(A, CAP).moves == moves


def test_2_4_main_effects_count_and_connectivity():
    A = build_covariate_matrix(full_factorial(4), main_effects(4))
    basis = markov_basis(A, CAP)
    assert len(basis.moves) == 55
    for y0 in (
        (1,) * 4 + (0,) * 12,
        (1, 0, 0, 1) + (0,) * 8 + (0, 1, 1, 0),
        (2,) + (0,) * 14 + (2,),
    ):
        assert fiber_connected(A, y0, basis)


def test_no_three_way_single_degree_four_move():
    two_way = [term(3, 1, 2), term(3, 1, 3), term(3, 2, 3)]
    A = build_covariate_matrix(full_factorial(3), main_effects(3) + two_way)
    basis = markov_basis(A, CAP)
    assert basis.moves == ((1, -1, -1, 1, -1, 1, 1, -1),)
    for y0 in ((1,) * 8, (2, 0, 1, 1, 0, 2, 1, 1), (3, 1, 0, 2, 2, 0, 1, 3)):
        assert fiber_connected(A, y0, basis)


def test_3x3_moves_independent_of_contrast():
    d = full_factorial(2, 3)
    for contrast in ("baseline", "symmetric", "complex"):
        A = build_covariate_matrix(d, main_effects(2), contrast)
        basis = markov_basis(A, CAP)
        assert basis.moves == GOLDEN_3X3_MAIN
        for y0 in ((1,) * 9, (2, 0, 1, 0, 1, 0, 1, 1, 0)):
            assert fiber_connected(A, y0, basis)


def test_non_kernel_lattice_vector_is_caught(d22, monkeypatch):
    import algdoe.markov as markov

    A = build_covariate_matrix(d22, main_effects(2))
    monkeypatch.setattr(
        markov, "kernel_lattice", lambda recoded, n: ((1, -1, 0, 0),)
    )
    with pytest.raises(AssertionError):
        markov_basis(A)


def _random_model(rng):
    m = rng.randint(1, 3)
    pool = list(full_factorial(m).runs)
    n = rng.randint(2, min(8, len(pool)))
    d = Design(m, 2, tuple(sorted(rng.sample(pool, n))), "pm1")
    terms = [term(m)]
    for j in range(1, m + 1):
        if rng.random() < 0.6:
            terms.append(term(m, j))
    from algdoe.errors import EstimabilityError

    try:
        return build_covariate_matrix(d, terms)
    except EstimabilityError:
        return None


def test_recoding_preserves_fibers(three_level_integer, d22):
    # membership in the fiber is decided by the recoded matrix; every member
    # must carry the identical exact sufficient statistic of the original
    # matrix, and no non-member with the same total may
    rng = random.Random(31)
    cases = [
        (build_covariate_matrix(d22, main_effects(2)), (2, 1, 0, 1)),
        (
            build_covariate_matrix(
                three_level_integer, main_effects(3), "symmetric"
            ),
            (1, 0, 1, 1, 0, 1, 0, 1, 1),
        ),
    ]
    for A, y0 in cases:
        target = A.sufficient_statistic(y0)
        fiber = set(enumerate_fiber(A, y0))
        assert all(A.sufficient_statistic(y) == target for y in fiber)
        total = sum(y0)
        for _ in range(200):
            y = [0] * A.n
            for _ in range(total):
                y[rng.randrange(A.n)] += 1
            y = tuple(y)
            assert (A.sufficient_statistic(y) == target) == (y in fiber)


def test_random_fibers_connected():
    rng = random.Random(2024)
    checked = 0
    while checked < 12:
        A = _random_model(rng)
        if A is None:
            continue
        basis = markov_basis(A)
        total = rng.randint(1, 8)
        weights = [rng.random() for _ in range(A.n)]
        scale = sum(weights)
        y0 = [int(round(w * total / scale)) for w in weights]
        if sum(y0) == 0:
            y0[0] = 1
        assert fiber_connected(A, tuple(y0), basis)
        for z in basis.moves:
            assert not any(kernel_residual(A, z))
        checked += 1


def _lattice_ideal(A):
    """Generators p^z+ - p^z- of the lattice ideal of the kernel basis, and
    their ring."""
    lattice = kernel_lattice(recode_integer(A), A.n)
    ring = PolyRing(tuple(f"p{i + 1}" for i in range(A.n)))
    gens = [
        ring.poly({tuple(max(v, 0) for v in z): 1, tuple(max(-v, 0) for v in z): -1})
        for z in lattice
    ]
    return ring, gens


def _reference_moves(A, budget=CAP):
    """Alg. 12.3 of Sturmfels (1996) through the generic polynomial engine,
    sharing no skip rule with markov: one groebner.buchberger call per run
    variable p1..pn, each element then divided by the power of that variable
    common to its two terms, and reduce_basis under grevlex(p1..pn) at the
    end."""
    n = A.n
    ring, gens = _lattice_ideal(A)
    if not gens:
        return ()
    for k in range(n):
        prec = tuple(i for i in range(n) if i != k) + (k,)
        gb = buchberger(gens, TermOrder.grevlex(n, prec), budget=budget)
        gens = []
        for g in gb.elements:
            common = min(e[k] for e in g.terms)
            gens.append(ring.poly(
                {e[:k] + (e[k] - common,) + e[k + 1:]: c for e, c in g.terms.items()}
            ))
    toric = reduce_basis(GroebnerBasis(TermOrder.grevlex(n), tuple(gens)))
    moves = []
    for g in toric.elements:
        (e1, c1), (e2, _) = g.terms.items()
        pos, neg = (e1, e2) if c1 == 1 else (e2, e1)
        moves.append(tuple(a - b for a, b in zip(pos, neg)))
    return tuple(sorted(moves))


CONTRASTS = ("baseline", "symmetric", "complex")


def _random_cross_route_model(rng, k):
    """Fractions of 2^3 or 2^4 with m+2 to 12 runs, random main effects and
    sometimes a two-factor interaction; every fourth case is instead a
    fraction of the 3x3 under contrast k mod 3."""
    if k % 4 == 3:
        pool = list(full_factorial(2, 3).runs)
        d = Design(2, 3, tuple(sorted(rng.sample(pool, rng.randint(7, 9)))), "integer")
        return build_covariate_matrix(d, main_effects(2), CONTRASTS[k % 3])
    m = rng.randint(3, 4)
    pool = list(full_factorial(m).runs)
    n = rng.randint(m + 2, min(12, len(pool)))
    d = Design(m, 2, tuple(sorted(rng.sample(pool, n))), "pm1")
    terms = [term(m)] + [term(m, j) for j in range(1, m + 1) if rng.random() < 0.8]
    if rng.random() < 0.4:
        terms.append(term(m, *rng.sample(range(1, m + 1), 2)))
    return build_covariate_matrix(d, terms)


def test_moves_match_generic_engine_random_models():
    rng = random.Random(606)
    checked = contrasts = 0
    while checked < 36:
        try:
            A = _random_cross_route_model(rng, checked)
        except EstimabilityError:
            continue
        assert markov_basis(A, CAP).moves == _reference_moves(A)
        contrasts += A.design.s == 3
        checked += 1
    assert contrasts == 9


def _reference_step(ring, binomials, k):
    """One saturation step through the generic engine: buchberger under
    grevlex with p_k last, each element divided by the power of p_k common to
    its two terms, then reduce_basis; as sorted (lead, trail) pairs."""
    n = ring.nvars
    order = TermOrder.grevlex(n, tuple(i for i in range(n) if i != k) + (k,))
    gb = buchberger([ring.poly({a: 1, b: -1}) for a, b in binomials], order, CAP)
    divided = []
    for g in gb.elements:
        common = min(e[k] for e in g.terms)
        divided.append(ring.poly(
            {e[:k] + (e[k] - common,) + e[k + 1:]: c for e, c in g.terms.items()}
        ))
    pairs = []
    for g in reduce_basis(GroebnerBasis(order, tuple(divided))).elements:
        lead = g.leading_monomial(order)
        (trail,) = set(g.terms) - {lead}
        assert (g.terms[lead], g.terms[trail]) == (1, -1)
        pairs.append((lead, trail))
    return sorted(pairs)


def test_saturation_steps_match_generic_engine_random_models():
    # each step, fed the binomials of the step before, on the models above
    rng = random.Random(606)
    checked = 0
    while checked < 36:
        try:
            A = _random_cross_route_model(rng, checked)
        except EstimabilityError:
            continue
        checked += 1
        n = A.n
        lattice = kernel_lattice(recode_integer(A), n)
        ring = PolyRing(tuple(f"p{i + 1}" for i in range(n)))
        gens = [
            (tuple(max(v, 0) for v in z), tuple(max(-v, 0) for v in z))
            for z in lattice
        ]
        for k in _saturation_sequence(n, lattice):
            if not gens:
                break
            step = _saturate(gens, k, CAP.max_pairs)
            assert sorted(step) == _reference_step(ring, gens, k)
            gens = step


def test_buchberger_binomial_ideals_certify():
    # the engines above share their pair criteria; this check uses none
    rng = random.Random(808)
    checked = 0
    while checked < 8:
        try:
            A = _random_cross_route_model(rng, checked)
        except EstimabilityError:
            continue
        _, gens = _lattice_ideal(A)
        order = TermOrder.grevlex(A.n, tuple(rng.sample(range(A.n), A.n)))
        assert spolynomials_reduce_to_zero(buchberger(gens, order, budget=CAP))
        checked += 1


def test_moves_match_generic_engine_resolution_iii_fraction():
    A = _resolution_iii_fraction()
    moves = markov_basis(A, CAP).moves
    assert len(moves) == 33
    assert moves == _reference_moves(A)


def test_resolution_iv_fraction_move_degrees(w16):
    # the 16-run 2^(7-3) resolution IV main-effects model: 7 moves of degree
    # 2 and 70 of degree 4, as the generic engine gives them (10 s there)
    moves = markov_basis(build_covariate_matrix(w16, main_effects(7)), CAP).moves
    degrees = sorted(sum(abs(v) for v in z) // 2 for z in moves)
    assert degrees == [2] * 7 + [4] * 70


def test_reduce_tail_reduces_trails():
    # {x2 - x3, x1^2 - x1x2} is a Groebner basis under grevlex with x3 last
    # (coprime leads); the reduced one replaces the trail x1x2 by x1x3
    basis = [((2, 0, 0), (1, 1, 0)), ((0, 1, 0), (0, 0, 1))]
    assert sorted(_reduce(basis, TermOrder.grevlex(3).key)) == [((0, 1, 0), (0, 0, 1)), ((2, 0, 0), (1, 0, 1))]


# -- the memo of Markov bases per kernel lattice ----------------------------

NO_THREE_WAY = [term(3, 1, 2), term(3, 1, 3), term(3, 2, 3)]


def _conditional_models():
    """The models of the conditional benchmark workload
    (perfbench/conditional.py), in its order."""
    ff3, ff33 = full_factorial(3), full_factorial(2, 3)
    return [
        build_covariate_matrix(ff3, main_effects(3)),
        build_covariate_matrix(ff3, main_effects(3) + [term(3, 1, 2)]),
        *(build_covariate_matrix(ff33, main_effects(2), c) for c in CONTRASTS),
        build_covariate_matrix(full_factorial(4), main_effects(4)),
        build_covariate_matrix(ff3, main_effects(3) + NO_THREE_WAY),
    ]


def _resolution_iii_fraction():
    # the 16-run 2^(7-3) fraction x5 = x1x2, x6 = x1x3, x7 = x2x3
    words = (
        Word((1, 1, 0, 0, 1, 0, 0), 1),
        Word((1, 0, 1, 0, 0, 1, 0), 1),
        Word((0, 1, 1, 0, 0, 0, 1), 1),
    )
    return build_covariate_matrix(regular_design_from_words(7, words), main_effects(7))


def test_warm_basis_equals_cold_basis(d22, w16):
    models = _conditional_models() + [
        build_covariate_matrix(d22, main_effects(2)),
        build_covariate_matrix(d22, main_effects(2) + [term(2, 1, 2)]),
        build_covariate_matrix(full_factorial(2), [term(2)]),
        build_covariate_matrix(w16, main_effects(7)),
        _resolution_iii_fraction(),
    ]
    for A in models:
        warm = markov_basis(A, CAP)
        # a hit returns the very basis that the miss computed
        assert markov_basis(A, CAP) is warm
        markov._lattice_basis.cache_clear()
        assert markov_basis(A, CAP) == warm


def test_three_contrasts_share_one_entry():
    markov._lattice_basis.cache_clear()
    d = full_factorial(2, 3)
    bases = [markov_basis(build_covariate_matrix(d, main_effects(2), c), CAP)
             for c in CONTRASTS]
    info = markov._lattice_basis.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    assert bases[0] is bases[1] is bases[2]


def test_smaller_budget_after_success_still_raises():
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    assert markov_basis(A, CAP).moves == GOLDEN_2_3_MAIN
    with pytest.raises(BudgetError, match=r"saturating p\d+ \(\d+ of \d+ variables done\)"):
        markov_basis(A, Budget(max_pairs=2))


def test_raised_error_leaves_no_entry():
    markov._lattice_basis.cache_clear()
    A = build_covariate_matrix(full_factorial(3), main_effects(3))
    with pytest.raises(BudgetError):
        markov_basis(A, Budget(max_pairs=2))
    assert markov._lattice_basis.cache_info().currsize == 0


@pytest.mark.parametrize("terms", [main_effects(2), main_effects(3) + NO_THREE_WAY])
def test_moves_spanning_a_sublattice_are_caught(terms, monkeypatch):
    # both models have a single move; doubled, it spans a sublattice of index 2
    # that still lies in the kernel, so only the lattice certificate sees it
    A = build_covariate_matrix(full_factorial(len(terms[0])), terms)
    saturate = markov._saturate

    def doubled(binomials, k, max_pairs):
        out = saturate(binomials, k, max_pairs)
        if k == A.n - 1:
            (lead, trail), *rest = out
            out = [(tuple(2 * v for v in lead), tuple(2 * v for v in trail)), *rest]
        return out

    markov._lattice_basis.cache_clear()
    monkeypatch.setattr(markov, "_saturate", doubled)
    with pytest.raises(AssertionError, match="sublattice"):
        markov_basis(A, CAP)
    assert markov._lattice_basis.cache_info().currsize == 0


def test_hermite_form_is_the_lattice_invariant():
    rng = random.Random(41)
    for _ in range(50):
        n, r = rng.randint(2, 6), rng.randint(2, 4)
        basis = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(r)]
        # elementary changes of a spanning set keep its lattice, and its form
        mixed = [list(z) for z in basis]
        for _ in range(10):
            i, j = rng.sample(range(r), 2)
            q = rng.randint(-2, 2)
            mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
        form = hermite(basis)
        assert hermite(mixed[::-1] + [[0] * n]) == form
        for k, row in enumerate(form):
            c = max(j for j, v in enumerate(row) if v)
            assert row[c] > 0
            assert all(0 <= above[c] < row[c] for above in form[:k])
            assert all(below[c] == 0 for below in form[k + 1:])
    assert hermite([(2, 0), (0, 1)]) != hermite([(1, 0), (0, 1)])


def _markov_corpus():
    """The conditional workload's models, which include the golden ones, and
    the resolution III fraction, then 200 models drawn the way _random_model
    draws them."""
    models = _conditional_models() + [_resolution_iii_fraction()]
    rng = random.Random(2027)
    drawn = 0
    while drawn < 200:
        A = _random_model(rng)
        if A is not None:
            models.append(A)
            drawn += 1
    return models


# sha256 of the corpus's moves as the saturation computed them before the
# memo existed
MARKOV_CORPUS_SHA256 = (
    "8cd50e3b4dffd06c228e21099fa749703ef81aae7451c58624e37b78d78a93d4"
)


def test_markov_corpus_is_unchanged():
    models = _markov_corpus()
    markov._lattice_basis.cache_clear()
    for _ in ("cold", "warm"):
        digest = hashlib.sha256()
        for A in models:
            digest.update(f"{A.n} {markov_basis(A, CAP).moves!r}\n".encode())
        assert digest.hexdigest() == MARKOV_CORPUS_SHA256
    # every model of the warm pass was a hit
    info = markov._lattice_basis.cache_info()
    assert info.hits >= len(models)
    assert info.currsize == info.misses


def _fiber_corpus():
    """Every corpus model with at most 16 runs, each with a seeded y0: a
    total of n/2 to n + 4 on up to 9 runs, 4 to 8 on more."""
    rng = random.Random(77)
    cases = []
    for A in _markov_corpus():
        if A.n > 16:
            continue
        total = rng.randint(A.n // 2, A.n + 4) if A.n <= 9 else rng.randint(4, 8)
        cases.append((A, _random_counts(rng, A.n, total)))
    return cases


# sha256 of the corpus's fibers and exact p-values as the search computed
# them when it tried every count of every run
FIBER_CORPUS_SHA256 = (
    "1e9b6aa382786463a8ef9049d1a4e89bae0a07805f17968635f7c1cb49dd3e99"
)


def test_fiber_corpus_is_unchanged():
    digest = hashlib.sha256()
    for A, y0 in _fiber_corpus():
        fiber = enumerate_fiber(A, y0)
        p = [exact_p_value(A, y0, kind).p_exact for kind in ("deviance", "pearson")]
        digest.update(f"{A.n} {y0} {fiber!r} {p!r}\n".encode())
    assert digest.hexdigest() == FIBER_CORPUS_SHA256


def _greedy_lattice(recoded, n):
    """A second route to the kernel basis and its saturation sequence: bring
    [A | I] to echelon form by Euclid on each column, keep the identity part
    of the rows whose A part became zero, then, last coordinate first, make
    every coordinate that can be one a unit vector by more row operations."""

    def gcd_pivot(rows, start, c):
        while live := [i for i in range(start, len(rows)) if rows[i][c]]:
            p = min(live, key=lambda i: abs(rows[i][c]))
            if len(live) == 1:
                rows[start], rows[p] = rows[p], rows[start]
                return rows[start][c]
            for i in live:
                if i != p:
                    q = rows[i][c] // rows[p][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[p])]
        return 0

    ncon = len(recoded)
    rows = [[col[i] for col in recoded] + [int(i == j) for j in range(n)]
            for i in range(n)]
    rank = 0
    for c in range(ncon):
        if gcd_pivot(rows, rank, c):
            rank += 1
    basis = [row[ncon:] for row in rows[rank:]]
    unit = set()
    for c in reversed(range(n)):
        done = len(unit)
        if abs(gcd_pivot(basis, done, c)) != 1:
            continue
        piv = basis[done]
        if piv[c] < 0:
            piv[:] = [-v for v in piv]
        for i, row in enumerate(basis):
            if i != done and row[c]:
                basis[i] = [a - row[c] * b for a, b in zip(row, piv)]
        unit.add(c)
    return [tuple(z) for z in basis], [k for k in range(n - 1) if k not in unit] + [n - 1]


def _moves_along(lattice, saturate):
    """The moves of saturating the lattice ideal by ``saturate`` in order."""
    gens = [
        (tuple(max(v, 0) for v in z), tuple(max(-v, 0) for v in z)) for z in lattice
    ]
    for k in saturate if gens else ():
        gens = _saturate(gens, k, CAP.max_pairs)
    return tuple(sorted(tuple(a - b for a, b in zip(lead, trail)) for lead, trail in gens))


def test_kernel_lattice_matches_greedy_unit_reduction():
    # the greedy pass's sequence skips only unit coordinates, a subset of the
    # coordinates that _saturation_sequence skips; both give one reduced basis
    for A in _markov_corpus():
        lattice = kernel_lattice(recode_integer(A), A.n)
        basis, saturate = _greedy_lattice(recode_integer(A), A.n)
        assert set(lattice) == set(basis)
        assert _moves_along(lattice, saturate) == markov_basis(A, CAP).moves


def test_kernel_lattice_is_its_own_hermite_form():
    # last coordinate first: a vector's pivot is its last nonzero coordinate
    for A in _markov_corpus():
        recoded = recode_integer(A)
        lattice = kernel_lattice(recoded, A.n)
        pivots = [max(k for k, v in enumerate(z) if v) for z in lattice]
        assert pivots == sorted(pivots, reverse=True)
        assert len(set(pivots)) == len(pivots)
        for i, (z, c) in enumerate(zip(lattice, pivots)):
            assert z[c] > 0
            assert all(0 <= above[c] < z[c] for above in lattice[:i])
            assert not any(column_dots(recoded, z))
            if z[c] == 1:
                # a unit coordinate: 0 in every other basis vector
                assert [w[c] for w in lattice] == [int(w is z) for w in lattice]
        assert hermite(lattice) == lattice


def test_shared_columns_without_a_positive_entry_need_no_saturation():
    # 1, x1 and x1*x2 on the 3x3 under the symmetric contrast: the form has
    # pivots of 2 on p9 and p8, which are no unit coordinates, and its shared
    # columns p1, p4 and p7 are negative in both vectors, so no column rises
    A = build_covariate_matrix(
        full_factorial(2, 3), [term(2), term(2, 1), term(2, 1, 2)], "symmetric"
    )
    lattice = kernel_lattice(recode_integer(A), A.n)
    assert lattice == ((-1, 0, 1, -1, 0, 1, -2, 0, 2), (-1, 1, 0, -1, 1, 0, -2, 2, 0))
    assert _saturation_sequence(A.n, lattice) == [8]
    assert markov_basis(A, CAP).moves == _reference_moves(A)


def test_cold_bases_of_the_workload_saturate_by_few_variables(monkeypatch):
    # one completion per saturated variable: at most two on each conditional
    # model, where skipping only the unit coordinates takes six on 2^4 main
    # effects (p1, p2, p3, p5, p9 and p16)
    saturated = []

    def counted(binomials, k, max_pairs):
        saturated.append(k + 1)
        return saturate(binomials, k, max_pairs)

    saturate = markov._saturate
    monkeypatch.setattr(markov, "_saturate", counted)
    expected = [[1, 8], [1, 8], [1, 9], [1, 9], [1, 9], [1, 16], [8]]
    for A, variables in zip(_conditional_models(), expected, strict=True):
        markov._lattice_basis.cache_clear()
        saturated.clear()
        markov_basis(A, CAP)
        assert saturated == variables
