import math
import random
from fractions import Fraction

import pytest

from algdoe import doptimal
from algdoe.errors import InputError
from algdoe.linalg import Echelon, column_dots, hermite, int_det, kernel_lattice


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


def test_int_det_refuses_entries_that_are_not_integers():
    for matrix in ([[1.5, 0], [0, 2]], [[Fraction(1, 2), 0], [0, 2]], [["3", 0], [0, 1]]):
        with pytest.raises(InputError):
            int_det(matrix)
    assert int_det([]) == 1
    assert int_det([[True, 0], [0, 3]]) == 3
    assert doptimal.int_det is int_det
