"""Input builders and exact helpers shared by the workloads.

Nothing here calls algdoe beyond constructing its input records, so the
oracles built on these helpers do not share code with the functions they
check.
"""

from __future__ import annotations

import itertools


class Failure(Exception):
    """An oracle mismatch: ``check`` names the oracle, ``defect`` names the
    recorded seed defect the mismatch matches, if any."""

    def __init__(self, check: str, detail: str, defect: str | None = None):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail
        self.defect = defect


def expect(condition: bool, check: str, detail: str = "", defect: str | None = None):
    if not condition:
        raise Failure(check, detail, defect)


def spread(bounds, count: int, i: int) -> int:
    """The i-th of ``count`` sizes spread evenly over the inclusive range
    ``bounds``, so every run draws the same multiset of sizes and only the
    inputs of each size depend on the seed."""
    lo, hi = bounds
    return lo + (i * (hi - lo + 1)) // count


def pm1_point(index: int, m: int) -> tuple[int, ...]:
    return tuple(-1 if (index >> k) & 1 else 1 for k in range(m))


def random_fraction_runs(rng, m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """n distinct runs of the 2^m full factorial, sorted."""
    return tuple(sorted(pm1_point(i, m) for i in rng.sample(range(2**m), n)))


def regular_fraction(rng, m: int, k: int):
    """A random regular 2^(m-k) fraction and its defining words.

    Words are drawn in echelon form: word i holds its own dependent factor
    plus a nonempty subset of the free factors, so the k words are
    independent over GF(2).  Returns (runs, [(bits, sign), ...]).
    """
    dependent = sorted(rng.sample(range(m), k))
    free = [j for j in range(m) if j not in dependent]
    words = []
    for dep in dependent:
        support = [j for j in free if rng.random() < 0.5]
        if not support:
            support = [rng.choice(free)]
        bits = tuple(1 if (j == dep or j in support) else 0 for j in range(m))
        words.append((dep, support, bits, rng.choice((-1, 1))))
    runs = []
    for values in itertools.product((-1, 1), repeat=len(free)):
        x = [0] * m
        for j, v in zip(free, values):
            x[j] = v
        for dep, support, _, sign in words:
            prod = sign
            for j in support:
                prod *= x[j]
            x[dep] = prod
        runs.append(tuple(x))
    return tuple(sorted(runs)), [(bits, sign) for _, _, bits, sign in words]


def value_vector(runs, mono) -> tuple[int, ...]:
    out = []
    for run in runs:
        prod = 1
        for v, e in zip(run, mono):
            if e:
                prod *= v
        out.append(prod)
    return tuple(out)


def word_holds(runs, bits, sign) -> bool:
    return all(v == sign for v in value_vector(runs, bits))


def int_det(matrix) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def main_effect_det(runs) -> int:
    """det(X'X) for the intercept plus main-effect columns."""
    rows = [(1,) + tuple(r) for r in runs]
    p = len(rows[0])
    return int_det([[sum(r[i] * r[j] for r in rows) for j in range(p)] for i in range(p)])


def design_text(m: int, s: int, coding: str, runs) -> str:
    lines = [f"m={m} s={s} coding={coding}"]
    lines += [" ".join(str(v) for v in run) for run in runs]
    return "\n".join(lines) + "\n"


def mono_name(mono) -> str:
    if not any(mono):
        return "1"
    return "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(mono) if e
    )
