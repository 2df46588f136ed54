import hashlib
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from algdoe import (
    Design,
    InputError,
    ScaleError,
    SearchSpec,
    d_criterion,
    d_optimal_search,
    full_factorial,
)
from algdoe import doptimal
from algdoe.doptimal import _greedy_exchange, _null_cofactor, _signed_sums
from algdoe.linalg import adjugate, bareiss, int_det, kernel_lattice

from conftest import random_two_level_design


def test_int_det_basics():
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_det([[4]]) == 4


def test_int_det_matches_permanent_free_expansion():
    rng = random.Random(8)
    import itertools

    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            # count inversions for the permutation sign
            inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if seen[i] > seen[j]
            )
            sign = -1 if inv % 2 else 1
            prod = 1
            for i in range(n):
                prod *= m[i][perm[i]]
            expected += sign * prod
        assert int_det(m) == expected


def test_d_criterion_fixtures(f1):
    assert d_criterion(full_factorial(2)) == 64
    assert d_criterion(f1) == 256
    short = Design(3, 2, ((1, 1, 1), (-1, -1, -1)), "pm1")
    assert d_criterion(short) == 0  # n < m + 1 forces rank deficiency


def test_d_criterion_invariances():
    rng = random.Random(5)
    for _ in range(10):
        d = random_two_level_design(rng, 3, n=rng.randint(4, 8))
        base = d_criterion(d)
        permuted = Design(3, 2, tuple(rng.sample(d.runs, d.n)), "pm1")
        assert d_criterion(permuted) == base
        j = rng.randrange(3)
        flipped_runs = tuple(
            tuple(-v if i == j else v for i, v in enumerate(run)) for run in d.runs
        )
        assert d_criterion(Design(3, 2, flipped_runs, "pm1")) == base


def test_exhaustive_m2_n4():
    res = d_optimal_search(SearchSpec(m=2, n=4))
    assert res.best_det == 64
    assert len(res.optima) == 1
    assert res.optima[0].runs == full_factorial(2).runs
    assert res.class_histogram() == {"full-factorial": 1}


def test_exhaustive_m3_n4_finds_both_half_fractions():
    res = d_optimal_search(SearchSpec(m=3, n=4))
    assert res.best_det == 256
    assert len(res.optima) == 2
    assert res.class_histogram() == {"regular": 2}
    words = {tuple(c.words) for c in res.classifications}
    signs = {w[0].sign for w in words}
    assert signs == {-1, 1}  # the two opposite half fractions


def test_exhaustive_rejects_too_few_runs():
    # 4 runs cannot give the 6 main-effect parameters of m=5 a nonsingular
    # X'X; the search refuses before it builds any of the C(32, 4) subsets
    for m, n in ((5, 4), (6, 5)):
        with pytest.raises(InputError, match="cannot make X'X nonsingular"):
            d_optimal_search(SearchSpec(m=m, n=n))
    greedy = d_optimal_search(SearchSpec(m=5, n=4, mode="greedy-exchange", restarts=2))
    assert greedy.best_det == 0


def test_greedy_never_beats_exhaustive():
    exhaustive = d_optimal_search(SearchSpec(m=3, n=4))
    greedy = d_optimal_search(
        SearchSpec(m=3, n=4, mode="greedy-exchange", seed=17, restarts=8)
    )
    assert greedy.best_det <= exhaustive.best_det
    assert not greedy.exhaustive


def test_greedy_deterministic_given_seed():
    a = d_optimal_search(SearchSpec(m=3, n=5, mode="greedy-exchange", seed=3, restarts=4))
    b = d_optimal_search(SearchSpec(m=3, n=5, mode="greedy-exchange", seed=3, restarts=4))
    assert a.best_det == b.best_det
    assert a.optima[0].runs == b.optima[0].runs


def _direct_det(runs) -> int:
    """det(X'X) of the main effect model, from a freshly built Gram matrix."""
    rows = [(1,) + tuple(run) for run in runs]
    p = len(rows[0])
    return int_det(
        [[sum(r[a] * r[b] for r in rows) for b in range(p)] for a in range(p)]
    )


@pytest.mark.parametrize(
    "m,n",
    [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
     (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (4, 10), (4, 12), (4, 16)],
)
def test_exhaustive_matches_brute_force_filter(m, n):
    candidates = list(itertools.product((-1, 1), repeat=m))
    dets = {s: _direct_det(s) for s in itertools.combinations(candidates, n)}
    best = max(dets.values())
    res = d_optimal_search(SearchSpec(m=m, n=n))
    assert res.best_det == best
    assert [d.runs for d in res.optima] == [s for s, v in dets.items() if v == best]


@pytest.mark.parametrize(
    "m,n,best,count,digest",
    [
        (5, 6, 25_600, 320,
         "9e13af2d692bd62da4e2bfa91a13273723646dd7fedaa0aeaedb395d380e45ad"),
        (5, 7, 65_536, 1_920,
         "e5d9ad1458cc9ebc0ff9cbe679751d2ec22c8f061839bdadcea2ac113db37092"),
    ],
)
def test_exhaustive_m5_optima_are_pinned(m, n, best, count, digest):
    # too many subsets for the brute-force filter, so the optima's runs are
    # pinned by a hash
    res = d_optimal_search(SearchSpec(m=m, n=n))
    assert res.best_det == best
    assert len(res.optima) == count
    runs = repr([d.runs for d in res.optima]).encode()
    assert hashlib.sha256(runs).hexdigest() == digest


@pytest.mark.parametrize("m,n,most", [(4, 8, 100), (4, 6, 300)])
def test_exhaustive_scores_few_determinants(monkeypatch, m, n, most):
    # a count, not a clock: the column-sum classes whose Hadamard bound falls
    # below the optimum are never scored, and one determinant serves every
    # leaf with the same X'X: (4, 8) has 960 sorted leaves and (4, 6) 469
    res = d_optimal_search(SearchSpec(m=m, n=n))
    calls = []
    monkeypatch.setattr(doptimal, "bareiss", lambda rows: calls.append(0) or bareiss(rows))
    best, optima = doptimal._exhaustive(list(itertools.product((-1, 1), repeat=m)), n)
    assert (best, len(optima)) == (res.best_det, len(res.optima))
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("m,n", [(3, 4), (4, 8)])
def test_exhaustive_scores_gram_matrices_of_pm1_rows(monkeypatch, m, n):
    # at n a power of two a lane of (2n - 1).bit_length() bits overflows only
    # where two columns agree on every run, a leaf that is never optimal; every
    # X'X scored must still be a Gram matrix of n rows of +-1: diagonal n,
    # each entry at most n in absolute value and of n's parity
    scored = []
    monkeypatch.setattr(doptimal, "bareiss",
                        lambda rows: scored.append([row[:] for row in rows]) or bareiss(rows))
    doptimal._exhaustive(list(itertools.product((-1, 1), repeat=m)), n)
    assert scored
    for gram in scored:
        assert [gram[a][a] for a in range(m + 1)] == [n] * (m + 1)
        assert all(abs(v) <= n and (v - n) % 2 == 0 for row in gram for v in row), gram


def test_d_criterion_is_the_det_of_the_gram_matrix_of_the_model_rows():
    # X'X off the packed columns, in any run order, is the Gram matrix of the
    # rows (1, x)
    rng = random.Random(4202)
    for _ in range(400):
        m = rng.randint(1, 7)
        d = random_two_level_design(rng, m, n=rng.randint(1, min(20, 2**m)))
        d = Design(m, 2, tuple(rng.sample(d.runs, d.n)), "pm1")
        assert d_criterion(d) == _direct_det(d.runs)


def _hadamard_bound(runs) -> int:
    n = len(runs)
    return math.prod(n * n - sum(col) ** 2 for col in zip(*runs))


def test_det_is_within_the_hadamard_bound_of_its_column_sums():
    # det(X'X) n^(m-1) <= prod(n^2 - s_j^2), the bound the search orders by
    rng = random.Random(4101)
    for _ in range(300):
        m = rng.randint(1, 5)
        d = random_two_level_design(rng, m)
        n = d.n
        assert _direct_det(d.runs) * n ** (m - 1) <= _hadamard_bound(d.runs)
    # equality on the regular half fraction D = ABC: orthogonal, balanced columns
    half = [run + (math.prod(run),) for run in full_factorial(3).runs]
    assert _direct_det(half) == 8**5
    assert _direct_det(half) * 8**3 == _hadamard_bound(half) == 64**4


@pytest.mark.parametrize("m,n", [(3, 5), (4, 6), (4, 7)])
def test_exhaustive_optima_are_closed_under_the_symmetry_group(m, n):
    # the search scores one sorted member per orbit and rebuilds the rest,
    # so every factor transposition and sign flip must map optima to optima
    optima = {d.runs for d in d_optimal_search(SearchSpec(m=m, n=n)).optima}
    images = []
    for t in range(m - 1):
        swap = list(range(m))
        swap[t], swap[t + 1] = t + 1, t
        images.append(lambda run, swap=swap: tuple(run[j] for j in swap))
    for t in range(m):
        images.append(
            lambda run, t=t: tuple(-v if j == t else v for j, v in enumerate(run))
        )
    for runs in optima:
        for image in images:
            assert tuple(sorted(map(image, runs))) in optima


def _rank(rows) -> int:
    """Rank over Q, by Gauss-Jordan elimination on Fractions."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(matrix[0])):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                ratio = matrix[r][col] / matrix[rank][col]
                matrix[r] = [a - ratio * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def _direct_hill_climb(spec):
    """The greedy exchange with every trial evaluated from scratch; returns
    (best det, sorted runs, (start rank, final det) of every restart that
    began singular)."""
    candidates = list(itertools.product((-1, 1), repeat=spec.m))
    rng = random.Random(spec.seed)
    best, best_runs, singular_starts = -1, None, []
    for _ in range(max(1, spec.restarts)):
        current = rng.sample(candidates, spec.n)
        det = _direct_det(current)
        start_rank = _rank([(1,) + run for run in current]) if det == 0 else None
        improved = True
        while improved:
            improved = False
            swap = None
            selected = set(current)
            for i in range(len(current)):
                for in_pt in candidates:
                    if in_pt in selected:
                        continue
                    trial = list(current)
                    trial[i] = in_pt
                    trial_det = _direct_det(trial)
                    if trial_det > det:
                        det = trial_det
                        swap = (i, in_pt)
            if swap is not None:
                i, in_pt = swap
                current[i] = in_pt
                improved = True
        if start_rank is not None:
            singular_starts.append((start_rank, det))
        if det > best:
            best = det
            best_runs = tuple(sorted(current))
    return best, best_runs, singular_starts


def test_greedy_matches_direct_hill_climb():
    rng = random.Random(29)
    singular_starts = []
    specs = [
        SearchSpec(m=m, n=rng.randint(m + 1, m + 3), mode="greedy-exchange",
                   seed=rng.randrange(2**31), restarts=rng.randint(1, 2))
        for m in (rng.randint(3, 6) for _ in range(24))
    ]
    # 4 runs cannot span the 6 parameters of m = 5 with rank above p - 2
    specs.append(SearchSpec(m=5, n=4, mode="greedy-exchange", seed=3, restarts=2))
    for spec in specs:
        best, runs, singular = _direct_hill_climb(spec)
        singular_starts += [(spec.m + 1 - rank, det) for rank, det in singular]
        res = d_optimal_search(spec)
        assert res.best_det == best, spec
        assert res.optima[0].runs == runs, spec
    # both singular cases are exercised: a start of rank p - 1 that climbs
    # out through the null-vector scores, and a start of rank <= p - 2 that
    # stops at det 0
    assert any(deficit == 1 and det > 0 for deficit, det in singular_starts)
    assert any(deficit >= 2 for deficit, _ in singular_starts)
    assert all(det == 0 for deficit, det in singular_starts if deficit >= 2)


def test_adjugate_of_symmetric_matrices():
    # adj G G = det G I; the back substitution fills only up to the diagonal
    rng = random.Random(12)
    for _ in range(40):
        p = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(rng.randint(1, 8))]
        gram = [[sum(r[a] * r[b] for r in rows) for b in range(p)] for a in range(p)]
        det, adj = adjugate(gram)
        assert det == int_det(gram)
        if det == 0:
            assert adj is None
            continue
        product = [[sum(adj[a][k] * gram[k][b] for k in range(p)) for b in range(p)]
                   for a in range(p)]
        assert product == [[det * (a == b) for b in range(p)] for a in range(p)]


def _reference_greedy(spec):
    """The greedy exchange scored one (position, candidate) pair at a time by
    the rank-one identity; returns (best det, sorted runs, the rank deficit
    p - rank of every restart's start)."""
    candidates = list(itertools.product((-1, 1), repeat=spec.m))
    rows = [(1,) + run for run in candidates]
    p = spec.m + 1

    def dot(a, b):
        return sum(map(operator.mul, a, b))

    rng = random.Random(spec.seed)
    best, best_runs, deficits = -1, (), []
    for _ in range(spec.restarts):
        current = rng.sample(range(len(candidates)), spec.n)
        deficits.append(p - _rank([rows[k] for k in current]))
        while True:
            chosen = [rows[k] for k in current]
            gram = [[dot(a, b) for b in zip(*chosen)] for a in zip(*chosen)]
            base, adj = adjugate(gram)
            det = base
            if adj is not None:
                adj_rows = [[dot(a, r) for a in adj] for r in rows]
                quad = [dot(ar, r) for ar, r in zip(adj_rows, rows)]
            else:
                lattice = kernel_lattice(chosen, p)
                if len(lattice) != 1:  # rank <= p - 2: every swap leaves det 0
                    break
                z = lattice[0]
                shadow = [dot(z, r) ** 2 for r in rows]
                kappa = [_null_cofactor(gram, rows[out], z) for out in current]
            swap = None
            selected = set(current)
            for i, out in enumerate(current):
                if adj is not None:
                    adj_out = adj_rows[out]
                    kept = base - quad[out]
                for k, row in enumerate(rows):
                    if k in selected:
                        continue
                    if adj is None:
                        trial_det = kappa[i] * shadow[k]
                    else:
                        cross = dot(adj_out, row)
                        trial_det = ((base + quad[k]) * kept + cross * cross) // base
                    if trial_det > det:
                        det = trial_det
                        swap = (i, k)
            if swap is None:
                break
            i, k = swap
            current[i] = k
        if det > best:
            best = det
            best_runs = tuple(candidates[k] for k in sorted(current))
    return best, best_runs, deficits


def test_greedy_sweeps_match_pairwise_reference():
    rng = random.Random(35)
    specs = []
    for m in range(1, 9):
        size = 2**m
        sizes = [1, size] + [rng.randint(1, min(size, m + 4)) for _ in range(38)]
        specs += [
            SearchSpec(m=m, n=n, mode="greedy-exchange",
                       seed=rng.randrange(2**31), restarts=rng.randint(1, 2))
            for n in sizes
        ]
    deficits = set()
    for spec in specs:
        best, runs, starts = _reference_greedy(spec)
        candidates = list(itertools.product((-1, 1), repeat=spec.m))
        assert _greedy_exchange(spec, candidates) == (best, runs), spec
        deficits.update(starts)
    assert len(specs) >= 300
    # starts of full rank, of rank p - 1 and of rank <= p - 2 all occur
    assert {0, 1} <= deficits and max(deficits) >= 2


@pytest.mark.parametrize("m", range(1, 11))
def test_signed_sums_are_dot_products_with_every_candidate(m):
    rng = random.Random(m)
    for _ in range(3):
        w = [rng.randint(-2**70, 2**70) for _ in range(m + 1)]
        big, negative = rng.sample(range(m + 1), 2)
        w[big], w[negative] = 2**64 + rng.randrange(2**64), -rng.randrange(1, 2**64)
        expected = [
            sum(a * b for a, b in zip((1,) + run, w))
            for run in itertools.product((-1, 1), repeat=m)
        ]
        assert _signed_sums(w) == expected


def _null_vector(rows):
    """The kernel lattice's one vector when it has rank one, else None."""
    lattice = kernel_lattice(rows, len(rows[0]))
    return lattice[0] if len(lattice) == 1 else None


def test_null_vector_scores_equal_direct_determinants():
    # at rank p - 1 every swap's det(X'X) is kappa_i (u.z)^2
    rng = random.Random(41)
    candidates = list(itertools.product((-1, 1), repeat=4))
    tried = 0
    while tried < 6:
        runs = rng.sample(candidates, rng.randint(5, 7))
        rows = [(1,) + run for run in runs]
        if _rank(rows) != 4:
            continue
        tried += 1
        z = _null_vector(rows)
        assert math.gcd(*z) == 1
        assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in rows)
        gram = [[sum(r[a] * r[b] for r in rows) for b in range(5)] for a in range(5)]
        for i, out in enumerate(rows):
            kappa = _null_cofactor(gram, out, z)
            for u in candidates:
                swapped = runs[:i] + [u] + runs[i + 1:]
                shadow = sum(a * b for a, b in zip((1,) + u, z)) ** 2
                assert kappa * shadow == _direct_det(swapped)
    # four runs of m = 5 have rank at most p - 2
    assert _null_vector([(1,) + run for run in full_factorial(5).runs[:4]]) is None


def test_scale_cap():
    with pytest.raises(ScaleError):
        d_optimal_search(SearchSpec(m=6, n=12))


@pytest.mark.parametrize("mode", ["exhaustive", "greedy-exchange"])
def test_scale_cap_checked_before_listing_candidates(mode):
    # listing 2^40 candidate runs first would exhaust memory
    with pytest.raises(ScaleError):
        d_optimal_search(SearchSpec(m=40, n=41, mode=mode))


@pytest.mark.parametrize(
    "spec, count",
    [
        (SearchSpec(m=23, n=100_000), r"C\(2\^23, 100000\) subsets"),
        (SearchSpec(m=20_000, n=5, mode="greedy-exchange"), r"2\^20000 candidate runs"),
    ],
)
def test_scale_cap_names_counts_symbolically(spec, count):
    # both counts have more digits than Python's int-to-str limit allows,
    # and C(2^23, 10^5) takes about a second to compute in full
    with pytest.raises(ScaleError, match=count):
        d_optimal_search(spec)


def test_spec_validation():
    with pytest.raises(InputError):
        SearchSpec(m=2, n=5)
    with pytest.raises(InputError):
        SearchSpec(m=2, n=2, mode="annealing")


def test_spec_rejects_zero_restarts():
    for mode in ("exhaustive", "greedy-exchange"):
        with pytest.raises(InputError, match="restarts"):
            SearchSpec(m=3, n=4, mode=mode, restarts=0)


def test_exhaustive_search_needs_no_recursion_per_run():
    # C(128, 127) subsets of 127 runs each: a walk that recursed once per
    # chosen run would need over a hundred frames
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        res = d_optimal_search(SearchSpec(7, 127))
    finally:
        sys.setrecursionlimit(limit)
    assert len(res.optima) == 128
    without_first = Design(7, 2, full_factorial(7).runs[1:], "pm1")
    assert res.best_det == d_criterion(without_first)
