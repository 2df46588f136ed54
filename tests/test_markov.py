import random
import re

import pytest

from algdoe import (
    BudgetError,
    Design,
    ScaleError,
    build_covariate_matrix,
    enumerate_fiber,
    fiber_connected,
    full_factorial,
    markov_basis,
)
from algdoe.groebner import Budget
from algdoe.markov import kernel_residual


def term(m, *idx):
    return tuple(1 if i + 1 in idx else 0 for i in range(m))


def main_effects(m):
    return [term(m)] + [term(m, j) for j in range(1, m + 1)]


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
        if d is w16:
            # the 16-run basis is too heavy for the desk budget; skip the toric
            # computation and only exercise the kernel check on the small case
            continue
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
        markov, "_kernel_lattice", lambda recoded, n: ([(1, -1, 0, 0)], set())
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
