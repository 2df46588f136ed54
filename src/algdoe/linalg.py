"""Exact linear algebra, one elimination per job: the fraction-free
:class:`Echelon` over Q, the GF(2) echelon of bitmasks (:func:`gf2_insert`)
and the column dependencies it finds (:func:`gf2_dependencies`), the integer
Hermite normal form (:func:`hermite`) and Bareiss determinants
(:func:`int_det`).  It imports nothing from algdoe but its errors, so that
every other module can import it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, whole


def cleared(values) -> tuple[list[int], int]:
    """The rationals ``values`` times the lcm of their denominators, as ints,
    and that lcm.  Both attributes are read in C; when the lcm is 1, as on
    every value vector of a pm1 or integer design, the numerators are the
    answer and nothing is multiplied."""
    denominators = list(map(operator.attrgetter("denominator"), values))
    numerators = list(map(operator.attrgetter("numerator"), values))
    scale = lcm(*denominators)
    if scale == 1:
        return numerators, 1
    return [a * (scale // b) for a, b in zip(numerators, denominators)], scale


def dot(a, b):
    return sum(map(operator.mul, a, b))


def column_dots(columns, v) -> tuple:
    """A'v, for the matrix A with these ``columns``."""
    return tuple(dot(col, v) for col in columns)


class Echelon:
    """Incremental exact row echelon form over Q.

    Every stored row is zero at the pivots of the rows stored before it and
    remembers which combination of the independent inserted vectors it is.

    Elimination is fraction-free.  Each vector is cleared to integers by the
    lcm of its denominators, and every stored row is an integer vector
    together with its integer combination of the cleared vectors.  A step is
    a cross-multiplication, a*vec - b*row with a/b the pivot ratio in lowest
    terms.  The vector being reduced carries its combination along and,
    whenever a step scales it, sheds the factor that its entries share with
    that scale.  Each new row is divided by the gcd of its entries and its
    combination.  A dependent vector's relation becomes Fractions at the end.
    """

    def __init__(self):
        # (pivot, row, (label, lcm)) per independent vector: the integer vector
        # followed by its combination of the cleared vectors, up to its own
        self._rows: list[tuple[int, list[int], tuple]] = []

    def insert(self, vec, label):
        """Add ``vec`` under ``label`` and return None when it is independent
        of the vectors kept so far; otherwise keep nothing and return the
        relation ``{label: a}`` of kept vectors with vec + sum(a * kept) = 0."""
        n = len(vec)
        vec, scale = cleared(vec)
        # vec is [v | c] with v = total * (the cleared input) + sum(c[i] * w_i),
        # w_i the cleared vector of row i; a stored row [r | c] has r = sum(c[i] * w_i)
        vec += [0] * len(self._rows)
        total = 1
        for k, row, _ in self._rows:
            b = vec[k]
            if b:
                a = row[k]  # positive
                g = gcd(a, b)
                a //= g
                b //= g
                # row i combines the vectors 0..i only, and vec's entries past
                # len(row) are still zero, so they need no scaling
                if a == 1:
                    vec[: len(row)] = [x - b * y for x, y in zip(vec, row)]
                else:
                    vec[: len(row)] = [a * x - b * y for x, y in zip(vec, row)]
                    total *= a
                    # divide out what total shares with every entry; the
                    # gcd starts from the small total, which keeps it cheap
                    g = gcd(total, *vec)
                    if g > 1:
                        vec = [x // g for x in vec]
                        total //= g
        k = next((i for i in range(n) if vec[i]), None)
        if k is None:
            return {
                lab: Fraction(c * lab_scale, total * scale)
                for c, (_, _, (lab, lab_scale)) in zip(vec[n:], self._rows)
                if c
            }
        vec.append(total)
        g = gcd(*vec)
        if vec[k] < 0:
            g = -g
        self._rows.append((k, [a // g for a in vec], (label, scale)))
        return None


def gf2_insert(rows: dict[int, int], v: int, data: int = -1) -> int:
    """Reduce v by ``rows``, a fully reduced GF(2) echelon keyed by lowest set
    bit; the remainder, returned, joins it if nonzero under the low ``data`` bits."""
    for lead, row in rows.items():
        if v >> lead & 1:
            v ^= row
    if v & data:
        lead = (v & -v).bit_length() - 1
        for other, row in rows.items():
            if row >> lead & 1:
                rows[other] = row ^ v
        rows[lead] = v
    return v


def gf2_dependencies(columns: list[int], n: int) -> tuple[list[int], list[int]]:
    """The GF(2) dependencies among the m packed ``columns`` of n points,
    point i at bit n-1-i, each column taken relative to the first point.

    Returns the words and the independent columns.  A word is an m-bit mask,
    bit m-1-j standing for column j, whose columns sum to a constant over the
    points; the words are a reduced basis of all such masks, in ascending
    order, and each holds one dependent column, its highest bit, beside
    independent ones below it.  The r independent columns, in ascending
    order, are m minus the number of words: the dimension of the points'
    affine span.  Columns go in last first, each tagged with its bit above
    the n data bits, so a column that reduces to zero data leaves its word.
    """
    m = len(columns)
    data = (1 << n) - 1
    span: dict[int, int] = {}
    words, free = [], []
    for j in reversed(range(m)):
        col = columns[j]
        relative = col ^ data if col >> n - 1 else col
        rest = gf2_insert(span, 1 << n + m - 1 - j | relative, data)
        if rest & data:
            free.append(j)
        else:
            words.append(rest >> n)
    return words, free[::-1]


def hermite(vectors) -> tuple[tuple[int, ...], ...]:
    """The Hermite normal form of the lattice the integer vectors span, taken
    last coordinate first: its nonzero rows, each pivot (its last nonzero
    entry) positive, every entry above a pivot in [0, pivot), and the pivots
    moving left row by row.  Equal forms mean equal lattices."""
    rows = [list(z) for z in vectors]
    rank = 0
    for c in reversed(range(len(rows[0]) if rows else 0)):
        # Euclid on column c of rows[rank:] by unimodular row operations,
        # until at most one of them is nonzero there
        while len(live := [i for i in range(rank, len(rows)) if rows[i][c]]) > 1:
            p = min(live, key=lambda i: abs(rows[i][c]))
            for i in live:
                if i != p:
                    q = rows[i][c] // rows[p][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[p])]
        if not live:
            continue
        rows[rank], rows[live[0]] = rows[live[0]], rows[rank]
        row = rows[rank]
        if row[c] < 0:
            row[:] = [-v for v in row]
        for i in range(rank):
            if q := rows[i][c] // row[c]:
                rows[i] = [a - q * b for a, b in zip(rows[i], row)]
        rank += 1
    return tuple(map(tuple, rows[:rank]))


def kernel_lattice(columns, n: int) -> tuple[tuple[int, ...], ...]:
    """The Hermite normal form of {z in Z^n : col . z = 0 for every one of
    the integer ``columns``}.  Row operations on the rows [e_i | A_i], A the
    matrix with those columns, keep each vector of Z^n paired with its image
    under A, and the form pivots in the A part first, so its rows with a zero
    A part are the kernel's form.  Markov bases saturate by the coordinates
    that these pivots leave, the early ones: on 2^4 main effects the first
    bases then hold 60 binomials, not 132 and 143."""
    rows = [[int(j == i) for j in range(n)] + [col[i] for col in columns]
            for i in range(n)]
    return tuple(row[:n] for row in hermite(rows) if not any(row[n:]))


def int_det(matrix) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination, 1
    for 0 x 0; an entry that equals no int (``errors.whole``) is an InputError."""
    rows = [list(row) for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise InputError("determinant of a non-square matrix")
    # the exact-int test first: it is the common case and the cheaper check
    if not all(type(a) is int for row in rows for a in row):
        rows = [list(map(whole, row)) for row in rows]
        if any(None in row for row in rows):
            raise InputError("determinant of a matrix with non-integer entries")
    return bareiss(rows) if rows else 1


def bareiss(m) -> int:
    """The determinant of the leading square block of the nonempty integer
    rows ``m``, by Bareiss elimination below the block's diagonal, in place;
    columns past the block are carried along.  Afterwards ``m[k][k]`` is the
    (k+1)-th leading minor of the block with its rows swapped, unless a
    singular block stopped the elimination early."""
    n = len(m)
    width = len(m[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row_k = m[k]
        pivot_value = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot_value - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot_value
    return sign * m[n - 1][n - 1]


def adjugate(gram) -> tuple[int, list[list[int]] | None]:
    """det G of a symmetric integer matrix and, when det G != 0, its integer
    adjugate adj G = det G * G^-1 (None otherwise).

    Bareiss elimination of [G | I] leaves [U | R] with U upper triangular
    and U G^-1 = R, so U adj G = det G * R is solved by back substitution
    up to the diagonal, the rest following by symmetry; each division is
    exact because adj G is integral.
    """
    p = len(gram)
    m = [list(row) + [int(i == j) for j in range(p)] for i, row in enumerate(gram)]
    det = bareiss(m)
    if det == 0:
        return 0, None
    adj = [[0] * p for _ in range(p)]
    for i in range(p - 1, -1, -1):
        row = m[i]
        for c in range(i + 1):
            adj[i][c] = adj[c][i] = (
                det * row[p + c] - dot(row[i + 1:p], adj[c][i + 1:])) // row[i]
    return det, adj
