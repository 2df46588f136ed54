import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from algdoe import doptimal
from algdoe.errors import InputError
from algdoe.linalg import (Echelon, cleared, column_dots, gf2_dependencies, hermite, int_det,
                           kernel_lattice)


def _random_matrix(rng):
    """An r x n integer matrix; some rows are combinations of others, so the
    rank is often short, also on square matrices."""
    r, n = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
    for i in range(1, r):
        if rng.random() < 0.25:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            j, k = rng.randrange(i), rng.randrange(i)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


def test_eliminations_agree_on_random_matrices():
    # four routes to the rank: the fraction-free echelon over Q, the Hermite
    # normal form over Z, the Bareiss determinant and the kernel lattice
    rng = random.Random(3600)
    square = short = 0
    for _ in range(400):
        rows = _random_matrix(rng)
        n = len(rows[0])
        ech = Echelon()
        rank = sum(ech.insert(row, i) is None for i, row in enumerate(rows))
        form = hermite(rows)
        assert rank == len(form)
        if len(rows) == n:
            square += 1
            short += rank < n
            pivots = [row[max(k for k, v in enumerate(row) if v)] for row in form]
            # the form is triangular, so its pivots multiply to the index
            assert abs(int_det(rows)) == (math.prod(pivots) if rank == n else 0)
        lattice = kernel_lattice(rows, n)
        assert len(lattice) == n - rank
        assert all(not any(column_dots(rows, z)) for z in lattice)
    assert square >= 50 and short >= 10


def _cleared_by_comprehension(values):
    """The comprehension ``cleared`` replaced, kept as its reference."""
    scale = math.lcm(*(a.denominator for a in values))
    return [a.numerator * (scale // a.denominator) for a in values], scale


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0, 1, -1, 7],
        [True, False, True],
        [Fraction(4, 2), Fraction(-6, 3), Fraction(0)],
        [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)],
        [3, Fraction(-1, 4), True, Fraction(8, 2), -5],
        [Fraction(1, 2**61), -(2**70)],
    ],
    ids=["empty", "ints", "bools", "integral-fractions", "fractions", "mixed", "wide"],
)
def test_cleared_matches_the_comprehension(values):
    got, want = cleared(values), _cleared_by_comprehension(values)
    assert got == want
    assert [type(a) for a in got[0]] == [type(a) for a in want[0]] == [int] * len(values)
    assert type(got[1]) is int


def test_cleared_of_random_vectors_matches_the_comprehension():
    rng = random.Random(4410)
    for _ in range(300):
        values = [
            rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
            for _ in range(rng.randint(0, 8))
        ]
        assert cleared(values) == _cleared_by_comprehension(values)
        assert cleared(tuple(values)) == _cleared_by_comprehension(values)


def test_int_det_refuses_entries_that_are_not_integers():
    # the package's integer rule: an entry that equals an int (True, 1.0,
    # Fraction(1), Decimal(1)) is read as that int, any other is refused
    for entry in (1.5, Fraction(1, 2), "3", "1", None, float("nan")):
        with pytest.raises(InputError, match=r"^determinant of a matrix with non-integer entries$"):
            int_det([[entry, 0], [0, 2]])
    for entry in (True, 1.0, Fraction(1), Decimal(1)):
        assert int_det([[entry, 0], [0, 3]]) == 3
        assert type(int_det([[entry, 1], [1, 3]])) is int
    assert int_det([[Fraction(4, 2), 1.0], [1, 3]]) == 5
    assert int_det([]) == 1
    assert int_det([[2, 1], [1, 3]]) == 5
    assert doptimal.int_det is int_det


def test_gf2_dependencies_of_random_point_sets():
    # points in an affine subspace of random dimension, against brute force:
    # the words are every mask constant on the points, reduced, one dependent
    # column each, and the independent columns number the span's dimension
    rng = random.Random(3914)
    for _ in range(300):
        m = rng.randint(1, 7)
        basis = [rng.getrandbits(m) for _ in range(rng.randint(0, m))]
        shift = rng.getrandbits(m)
        span = {0}
        for b in basis:
            span |= {v ^ b for v in span}
        points = [shift ^ v for v in rng.sample(sorted(span), rng.randint(1, len(span)))]
        n = len(points)
        # column j holds bit m-1-j of each point, point i at bit n-1-i
        columns = [sum((p >> m - 1 - j & 1) << n - 1 - i for i, p in enumerate(points))
                   for j in range(m)]
        words, free = gf2_dependencies(columns, n)
        constant = [w for w in range(1, 1 << m)
                    if len({(w & p).bit_count() & 1 for p in points}) == 1]
        generated = {0}
        for w in words:
            generated |= {v ^ w for v in generated}
        assert generated - {0} == set(constant)
        assert words == sorted(words) and len(words) + len(free) == m
        assert free == sorted(free)
        dependent = [m - w.bit_length() for w in words]
        assert sorted(dependent + free) == list(range(m))
        for w, j in zip(words, dependent):
            assert all(w >> m - 1 - d & 1 == (d == j) for d in dependent)
