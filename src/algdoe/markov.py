"""Markov bases from the kernel lattice plus saturation, and exhaustive fiber
enumeration.

The toric ideal of the recoded nonnegative covariate matrix is computed in
the run variables p1..pn alone (Sturmfels, *Groebner Bases and Convex
Polytopes*, 1996, Alg. 12.3): a Z-basis of its integer kernel gives the
lattice ideal J = <p^z+ - p^z->, which is saturated by one variable at a
time.  The basis is the kernel's Hermite normal form taken last coordinate
first, and its coordinates with pivot 1 are unit vectors that need no
saturation.  Each step is a Buchberger completion under the package's
grevlex :class:`~algdoe.orders.TermOrder` with that variable last, done
directly on binomials x^lead - x^trail held as pairs of exponent tuples: a
monomial u is reduced by an element whose lead divides it to
u - lead + trail, and the leads and S-pairs are kept by the Gebauer-Moeller
bookkeeping of the generic engine, :class:`algdoe.groebner._Completion`.
The binomials of the resulting reduced basis are moves that connect every
fiber.  A basis is computed once per run count, Hermite normal form and pair
budget and kept in a memo; each new one is certified to generate the whole
kernel lattice, not a sublattice, by comparing the Hermite normal form of
its moves with the lattice's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import add, sub

from .covariates import CovariateMatrix, _check_counts, recode_integer
from .errors import BudgetError, InputError, ScaleError
from .groebner import Budget, DEFAULT_BUDGET, _Completion
from .orders import TermOrder

MAX_FIBER_NODES = 10_000_000  # ~40 s at ~4 us per node (2 vCPU, Python 3.11)
MAX_FIBER_TOTAL = 30  # default caps of exhaustive enumeration
MAX_FIBER_RUNS = 16


@dataclass(frozen=True)
class MarkovBasis:
    """Integer kernel moves of the recoded covariate matrix, stored up to sign."""

    n: int
    moves: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for z in self.moves:
            if len(z) != self.n:
                raise InputError("move length does not match the run count")


def markov_basis(A: CovariateMatrix, budget: Budget = DEFAULT_BUDGET) -> MarkovBasis:
    """Markov basis of the fibers {y >= 0 : A'y = A'y0}.

    Kernel lattice plus saturation: the lattice ideal of the Hermite normal
    form of the kernel of the recoded matrix, last coordinate first, is
    saturated by one run variable at a time.
    Each step completes the binomials to a Groebner basis under grevlex with
    that variable last, on integer exponent vectors, divides every element by
    the power of the variable common to its two terms (Bayer-Stillman; valid
    because the intercept makes every binomial homogeneous) and reduces the
    quotients; the last step, p_n, leaves the reduced basis under
    grevlex(p1..pn).  Variables whose pivot in the form is 1 are unit
    vectors and need no step.  The moves are its binomials, lead minus trail,
    sorted.

    The basis depends on the kernel lattice alone, so the saturation is
    memoized on the run count, that form and ``budget.max_pairs``
    (:func:`_lattice_basis`): matrices with the same kernel lattice, such as
    one model under different contrast schemes, share one computation.
    Every call certifies the lattice basis and the moves to be kernel
    vectors of its own recoded matrix.  ``budget.max_pairs``
    bounds the S-pairs made by each completion; exceeding it raises
    BudgetError saying how far the saturation got and what the completion
    did, with a hint to use exhaustive enumeration.  ``budget.max_terms``
    does not apply: every element has two terms.
    """
    recoded = recode_integer(A)
    n = A.n
    lattice = _kernel_lattice(recoded, n)
    _certify_kernel(recoded, lattice)
    basis = _lattice_basis(n, lattice, budget.max_pairs)
    _certify_kernel(recoded, basis.moves)
    return basis


@functools.lru_cache(maxsize=256)
def _lattice_basis(n: int, lattice, max_pairs: int) -> MarkovBasis:
    """The reduced Markov basis of the lattice whose Hermite normal form, last
    coordinate first, is ``lattice``, certified to generate that lattice.
    Its arguments are every input of the saturation, so a budget error is
    raised alike on every call, and errors are not cached."""
    if not lattice:
        # trivial kernel: every fiber is a singleton
        return MarkovBasis(n, ())

    gens = [
        (tuple(max(v, 0) for v in z), tuple(max(-v, 0) for v in z)) for z in lattice
    ]
    # p_n comes last, so that the final quotients are a basis under
    # grevlex(p1..pn) itself
    saturate = _saturation_sequence(n, lattice)
    for done, k in enumerate(saturate):
        try:
            gens = _saturate(gens, k, max_pairs)
        except BudgetError as exc:
            raise BudgetError(
                f"{exc}, while saturating p{k + 1} ({done} of {len(saturate)} "
                "variables done); for small problems use exhaustive fiber "
                "enumeration instead"
            ) from exc

    moves = sorted(tuple(map(sub, lead, trail)) for lead, trail in gens)
    # the moves' form in the lattice's coordinate order, last coordinate first
    if tuple(row[::-1] for row in _hermite(z[::-1] for z in moves)) != lattice:
        raise AssertionError("the moves generate a proper sublattice of the kernel")
    return MarkovBasis(n, tuple(moves))


def _normal_form(u, leads: _Completion, step):
    """While lead i divides x^u, replace u by u - lead + trail = u + step[i]."""
    while (i := leads.divisor(u)) is not None:
        u = tuple(map(add, u, step[i]))
    return u


def _reduce(binomials, key):
    """The reduced Groebner basis from a Groebner basis of binomials (lead,
    trail) under the order whose sort key is ``key``: drop every element whose
    lead another kept lead divides, then replace each trail by its normal
    form."""
    kept = _Completion(len(binomials[0][0]))
    step = []
    for lead, trail in sorted(binomials, key=lambda g: key(g[0])):
        if kept.divisor(lead) is None:
            kept.index(lead)
            step.append(tuple(map(sub, trail, lead)))
    return [
        (lead, _normal_form(tuple(map(add, lead, s)), kept, step))
        for lead, s in zip(kept.lead, step)
    ]


def _saturate(binomials, k: int, max_pairs: int):
    """The reduced basis of the saturation by p_k: complete under grevlex with
    p_k last and the other variables in order, divide the power of p_k common
    to lead and trail out of each element and reduce.

    A binomial x^lead - x^trail is held as its lead, numbered in the shared
    pair bookkeeping, and step = trail - lead, so the S-binomial of a pair
    (i, j) with lcm l is x^(l + step_i) - x^(l + step_j)."""
    n = len(binomials[0][0])
    key = TermOrder.grevlex(n, tuple(i for i in range(n) if i != k) + (k,)).key
    completion = _Completion(n, key, max_pairs)
    step = []

    def insert(a, b):
        a = _normal_form(a, completion, step)
        b = _normal_form(b, completion, step)
        if a != b:
            if key(a) < key(b):
                a, b = b, a
            completion.insert(a)
            step.append(tuple(map(sub, b, a)))

    gens = [(a, b) if key(a) > key(b) else (b, a) for a, b in binomials]
    for a, b in sorted(gens, key=lambda g: key(g[0])):
        insert(a, b)
    while (pair := completion.pop()) is not None:
        i, j, lcm = pair
        insert(tuple(map(add, lcm, step[i])), tuple(map(add, lcm, step[j])))

    divided = []
    for i in completion.minimal():
        lead = completion.lead[i]
        trail = tuple(map(add, lead, step[i]))
        common = min(lead[k], trail[k])
        divided.append((lead[:k] + (lead[k] - common,) + lead[k + 1:],
                        trail[:k] + (trail[k] - common,) + trail[k + 1:]))
    return _reduce(divided, key)


def _kernel_lattice(recoded, n: int) -> tuple[tuple[int, ...], ...]:
    """The Hermite normal form of {z in Z^n : col . z = 0 for every column
    of ``recoded``}, taken last coordinate first: each vector's pivot is its
    last nonzero coordinate.

    Each row [A_i | e_(n-1-i)] (A = the recoded matrix with one row per run,
    the identity's columns reversed) pairs a vector of Z^n with its image
    under A, and row operations keep that pairing; so in the Hermite normal
    form of the rows, those whose A part is zero are the kernel's form, read
    back in run order.  Taking the last coordinates first
    leaves the early ones to saturate: on 2^4 main effects the first bases
    then hold 60 binomials, not 132 and 143.
    """
    ncon = len(recoded)
    rows = [[col[i] for col in recoded] + [int(j == n - 1 - i) for j in range(n)]
            for i in range(n)]
    return tuple(row[ncon:][::-1] for row in _hermite(rows) if not any(row[:ncon]))


def _saturation_sequence(n: int, lattice) -> list[int]:
    """The run coordinates to saturate by, in order, p_n last: all but the
    pivots equal to 1 of the lattice basis.  Such a pivot is a unit
    coordinate, as the Hermite normal form makes every other entry of its
    column 0, and a unit coordinate moves monotonically along the path of
    basis steps from 0 to any lattice vector z, so p^z+ - p^z- times a
    monomial free of its variable lies in the lattice ideal: the ideal needs
    no saturation by that variable."""
    pivots = [max(k for k, v in enumerate(z) if v) for z in lattice]
    unit = {k for z, k in zip(lattice, pivots) if z[k] == 1}
    return [k for k in range(n - 1) if k not in unit] + [n - 1]


def _hermite(vectors) -> tuple[tuple[int, ...], ...]:
    """The Hermite normal form of the lattice the integer vectors span: its
    nonzero rows, each pivot positive and every entry above a pivot in
    [0, pivot).  Equal forms mean equal lattices."""
    rows = [list(z) for z in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
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


def _residual(recoded, move) -> tuple[int, ...]:
    return tuple(sum(c * z for c, z in zip(col, move)) for col in recoded)


def _certify_kernel(recoded, vectors):
    for z in vectors:
        if any(_residual(recoded, z)):
            raise AssertionError(f"{z} is not a kernel vector of the recoded matrix")


def enumerate_fiber(
    A: CovariateMatrix,
    y0,
    max_total: int = MAX_FIBER_TOTAL,
    max_runs: int = MAX_FIBER_RUNS,
):
    """The complete fiber of y0: all nonnegative integer y with A'y = A'y0.

    Bounded depth-first search over the recoded nonnegative matrix; requires
    the total of y0 and the run count to stay within the caps, and stops with
    :class:`ScaleError` after MAX_FIBER_NODES search nodes.
    """
    if max_total < 0:
        raise InputError(f"max_total must be nonnegative, got {max_total}")
    if max_runs < 1:
        raise InputError(f"max_runs must be at least 1, got {max_runs}")
    y0 = _check_counts(A.n, y0)
    total = sum(y0)
    if total > max_total:
        raise ScaleError(f"fiber total {total} exceeds the cap {max_total}")
    if A.n > max_runs:
        raise ScaleError(f"run count {A.n} exceeds the cap {max_runs}")

    recoded = recode_integer(A)
    targets = [sum(c * v for c, v in zip(col, y0)) for col in recoded]
    n = A.n
    ncon = len(recoded)
    # suffix minima and maxima over the runs not yet assigned bound what
    # they can add to each constraint: the unassigned counts are nonnegative
    # and sum to what remains of the total, so a branch whose constraint
    # would overshoot even at the minimum, or fall short even at the
    # maximum, holds no fiber point
    suffix_min = [[min(col[i:], default=0) for i in range(n + 1)] for col in recoded]
    suffix_max = [[max(col[i:], default=0) for i in range(n + 1)] for col in recoded]

    out = []
    y = [0] * n
    nodes = 0

    def rec(i: int, remaining: int, partial: list[int]):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_FIBER_NODES:
            raise ScaleError(
                f"fiber search stopped after {MAX_FIBER_NODES} nodes "
                f"with {len(out)} points found"
            )
        if i == n:
            if remaining == 0 and partial == targets:
                out.append(tuple(y))
            return
        for v in range(remaining + 1):
            y[i] = v
            ok = True
            rest = remaining - v
            for j in range(ncon):
                acc = partial[j] + recoded[j][i] * v
                if acc + suffix_min[j][i + 1] * rest > targets[j]:
                    ok = False
                    break
                if acc + suffix_max[j][i + 1] * rest < targets[j]:
                    ok = False
                    break
            if ok:
                rec(
                    i + 1,
                    remaining - v,
                    [partial[j] + recoded[j][i] * v for j in range(ncon)],
                )
        y[i] = 0

    # runs in order, each count ascending: the points come out sorted, as
    # exact_p_value's bisect needs
    rec(0, total, [0] * ncon)
    return out


def fiber_connected(A: CovariateMatrix, y0, basis: MarkovBasis, **caps) -> bool:
    """BFS oracle: do the basis moves connect the whole fiber of y0?

    The walk steps only to points of the enumerated fiber: a move that
    leaves the fiber, off the orthant or outside the kernel, adds no edge.
    """
    start = _check_counts(A.n, y0)
    fiber = set(enumerate_fiber(A, start, **caps))
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for z in basis.moves:
            for sign in (1, -1):
                nxt = tuple(a + sign * b for a, b in zip(cur, z))
                if nxt in fiber and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen == fiber
