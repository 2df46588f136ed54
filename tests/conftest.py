import math
from itertools import compress

import pytest

from algdoe import Design, Word, full_factorial, regular_design_from_words
from algdoe.designs import WORD_LEVELS, _unpack, product_index
from algdoe.linalg import gf2_insert

L8_WORDS = (
    Word((1, 1, 1, 0, 0, 0, 0), -1),
    Word((1, 0, 0, 1, 1, 0, 0), -1),
    Word((0, 1, 0, 1, 0, 1, 0), -1),
    Word((1, 1, 0, 1, 0, 0, 1), +1),
)

# orthogonal array table: rows as published
L8_RUNS = (
    (-1, -1, -1, -1, -1, -1, -1),
    (-1, -1, -1, 1, 1, 1, 1),
    (-1, 1, 1, -1, -1, 1, 1),
    (-1, 1, 1, 1, 1, -1, -1),
    (1, -1, 1, -1, 1, -1, 1),
    (1, -1, 1, 1, -1, 1, -1),
    (1, 1, -1, -1, 1, 1, -1),
    (1, 1, -1, 1, -1, -1, 1),
)

# 2^{7-3}: x1x2x4x5 = x1x3x4x6 = x2x3x4x7 = 1, tabulated from all-plus down
W16_WORDS = (
    Word((1, 1, 0, 1, 1, 0, 0), +1),
    Word((1, 0, 1, 1, 0, 1, 0), +1),
    Word((0, 1, 1, 1, 0, 0, 1), +1),
)

THREE_LEVEL_RUNS = (
    (0, 0, 0),
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 1, 1),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
    (2, 2, 2),
)


@pytest.fixture(scope="session")
def l8():
    return Design(7, 2, L8_RUNS, "pm1")


@pytest.fixture(scope="session")
def w16():
    d = regular_design_from_words(7, W16_WORDS)
    return Design(7, 2, tuple(sorted(d.runs, reverse=True)), "pm1")


@pytest.fixture(scope="session")
def f1():
    return Design(3, 2, ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)), "pm1")


@pytest.fixture(scope="session")
def f2():
    return Design(3, 2, ((1, 1, 1), (1, -1, -1), (-1, 1, -1)), "pm1")


@pytest.fixture(scope="session")
def f3():
    return Design(3, 2, ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)), "pm1")


@pytest.fixture(scope="session")
def d22():
    # run order: ++, +-, -+, --
    return Design(2, 2, ((1, 1), (1, -1), (-1, 1), (-1, -1)), "pm1")


@pytest.fixture(scope="session")
def three_level_integer():
    return Design(3, 3, THREE_LEVEL_RUNS, "integer")


@pytest.fixture(scope="session")
def three_level_complex():
    return Design(3, 3, THREE_LEVEL_RUNS, "complex")


def extend_design(d: Design, relations) -> Design:
    """The design with columns appended per the factor relations."""
    relations = list(relations)
    runs = tuple(
        run + tuple(rel.sign * math.prod(compress(run, rel.word)) for rel in relations)
        for run in d.runs
    )
    return Design(d.m + len(relations), 2, runs, "pm1")


def product_element(idx: int, m: int, levels) -> tuple[int, ...]:
    """The element at position idx of ``itertools.product(levels, repeat=m)``:
    the one-element form of ``designs._unpack``."""
    return _unpack((idx,), m, levels)[0]


def gf2_independent(vectors) -> bool:
    """Whether the 0/1 exponent vectors are independent over GF(2)."""
    rows: dict[int, int] = {}
    return all(gf2_insert(rows, product_index(v, WORD_LEVELS)) for v in vectors)


def term(m, *idx):
    """The exponent vector over x1..xm of the product of the x_i, i in idx."""
    return tuple(1 if i + 1 in idx else 0 for i in range(m))


def main_effects(m):
    """The intercept and the m main effects, as exponent vectors."""
    return [term(m)] + [term(m, j) for j in range(1, m + 1)]


def random_two_level_design(rng, m, n=None):
    pool = list(full_factorial(m).runs)
    if n is None:
        n = rng.randint(1, len(pool))
    return Design(m, 2, tuple(sorted(rng.sample(pool, n))), "pm1")
