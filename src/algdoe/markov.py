"""Markov bases from the kernel lattice plus saturation, and exhaustive fiber
enumeration.

The toric ideal of the recoded nonnegative covariate matrix is computed in
the run variables p1..pn alone (Sturmfels, *Groebner Bases and Convex
Polytopes*, 1996, Alg. 12.3): a Z-basis of its integer kernel gives the
lattice ideal J = <p^z+ - p^z->, which is saturated by one variable at a
time.  The basis is the kernel's Hermite normal form taken last coordinate
first, and only its shared columns with a positive entry, or only those with
a negative entry, need saturation, whichever are fewer.  Each step is a
Buchberger completion under the package's grevlex
:class:`~algdoe.orders.TermOrder` with that variable last, done
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

from .covariates import CovariateMatrix
from .errors import BudgetError, InputError, ScaleError, int_arg, int_counts, int_fields, whole
from .groebner import Budget, DEFAULT_BUDGET, _Completion
from .linalg import column_dots, hermite, kernel_lattice
from .orders import TermOrder

MAX_FIBER_NODES = 10_000_000  # ~50 s at ~5 us per node (2 vCPU, Python 3.11)
MAX_FIBER_TOTAL = 30  # default caps of exhaustive enumeration
MAX_FIBER_RUNS = 16


@dataclass(frozen=True)
class MarkovBasis:
    """Integer kernel moves of the recoded covariate matrix, stored up to sign.
    An entry that equals an int, such as 1.0, is stored as that int."""

    n: int
    moves: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        int_fields(self, "n")
        moves = []
        for z in map(tuple, self.moves):
            if len(z) != self.n:
                raise InputError("move length does not match the run count")
            ints = tuple(map(whole, z))
            if None in ints:
                v = z[ints.index(None)]
                raise InputError(f"move entries must be integers, found {v!r} in {z}")
            moves.append(ints)
        object.__setattr__(self, "moves", tuple(moves))


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
    grevlex(p1..pn).  Only the columns of the form that two or more vectors
    share need a step, and only the rising ones (with a positive entry) or
    only the falling ones, whichever are fewer (:func:`_saturation_sequence`).
    The moves are its binomials, lead minus trail, sorted.

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
    recoded = A.recoded
    n = A.n
    lattice = kernel_lattice(recoded, n)
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
    if hermite(moves) != lattice:
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


def _saturation_sequence(n: int, lattice) -> list[int]:
    """The run coordinates to saturate by, in order, p_n last: of the columns
    that two or more basis vectors share, those with a positive entry
    (rising) or those with a negative one (falling), whichever are fewer.

    For z = sum of c_i b_i, walk from 0 to z by the steps -b_i with c_i < 0,
    then by the steps b_i with c_i > 0.  A coordinate with no positive entry
    rises and then falls, and one that a single vector touches is monotone,
    so the walk keeps both at or above min(0, z_k): p^w (p^z+ - p^z-) lies in
    J for some w on the rising coordinates, and the toric ideal is J : (their
    product)^infinity.  The reverse walk gives the falling ones.  A pivot 1
    and p_n are never shared, and the reduced basis is unique, so the moves
    do not depend on which variables are skipped."""
    shared = [(k, c) for k, c in enumerate(zip(*lattice)) if sum(map(bool, c)) > 1]
    rising = [k for k, c in shared if max(c) > 0]
    falling = [k for k, c in shared if min(c) < 0]
    return min(rising, falling, key=len) + [n - 1]


def _certify_kernel(recoded, vectors):
    for z in vectors:
        if any(column_dots(recoded, z)):
            raise AssertionError(f"{z} is not a kernel vector of the recoded matrix")


def _forced_runs(recoded, targets) -> dict[int, tuple[int, int, list]]:
    """The runs whose count the earlier runs force: run p maps to
    (t, h_p, [(k, h_k) for each earlier run k with h_k != 0]), and
    y_p = (t - sum of h_k y_k) / h_p.

    Each is the pivot of one row of the Hermite normal form of the rows
    [target | col], one per column of ``recoded``, a row's pivot sitting at
    its last nonzero run.  Row operations keep the solutions, so the form's
    rows hold for y exactly when A'y = A'y0 does.  The intercept makes the
    last run a pivot."""
    forced = {}
    for t, *h in hermite([t, *col] for col, t in zip(recoded, targets)):
        p = max(k for k, v in enumerate(h) if v)
        forced[p] = (t, h[p], [(k, v) for k, v in enumerate(h[:p]) if v])
    return forced


def enumerate_fiber(
    A: CovariateMatrix,
    y0,
    max_total: int = MAX_FIBER_TOTAL,
    max_runs: int = MAX_FIBER_RUNS,
):
    """The complete fiber of y0: all nonnegative integer y with A'y = A'y0,
    sorted.

    Depth-first search over the runs in order.  The Hermite normal form of
    the constraint rows, runs taken last first, gives each of its rows a
    pivot at its last nonzero run, whose count the earlier runs then force;
    every other run tries, in ascending order, the counts that the suffix
    bounds leave it, and the trailing block of forced runs is solved at
    once.  Requires the total of y0 and the run count to stay within the
    caps, and stops with :class:`ScaleError` after MAX_FIBER_NODES search
    nodes.
    """
    max_total = int_arg("max_total", max_total)
    max_runs = int_arg("max_runs", max_runs)
    if max_total < 0:
        raise InputError(f"max_total must be nonnegative, got {max_total}")
    if max_runs < 1:
        raise InputError(f"max_runs must be at least 1, got {max_runs}")
    y0 = int_counts(A.n, y0)
    total = sum(y0)
    if total > max_total:
        raise ScaleError(f"fiber total {total} exceeds the cap {max_total}")
    if A.n > max_runs:
        raise ScaleError(f"run count {A.n} exceeds the cap {max_runs}")

    recoded = A.recoded
    targets = column_dots(recoded, y0)
    n = A.n
    forced = _forced_runs(recoded, targets)
    first = n  # runs first..n-1 are all forced
    while first - 1 in forced:
        first -= 1
    # the runs after i add to a constraint between the least and the most of
    # their entries times the count still to place, r - v once run i takes
    # v.  So the gap g of the constraint (its target minus what the runs
    # before i add) needs least (r - v) <= g - a_i v <= most (r - v), which
    # holds v to (a_i - least) v <= g - least r and (a_i - most) v >= g - most r.
    # Run i - 1's count kept the gap within the bounds of runs i onwards
    # (y0, in its own fiber, keeps run 0's), so where a_i is the least (most)
    # of run i + 1 onwards, g - least r >= 0 (g - most r <= 0) holds already
    bounds = []
    for i in range(first):
        suffixes = [(col[i], min(col[i + 1:]), max(col[i + 1:])) for col in recoded]
        bounds.append([(a - least, least, a - most, most)
                       for a, least, most in suffixes])

    rows = list(zip(*recoded))  # run i's entries of the constraints
    out = []
    y = [0] * n
    nodes = 0

    def solve(t, pivot, earlier):
        """The count a forced run takes, or None when it is no integer."""
        q, r = divmod(t - sum(y[k] * h for k, h in earlier), pivot)
        return None if r else q

    def rec(i: int, remaining: int, gaps: list[int]):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_FIBER_NODES:
            raise ScaleError(
                f"fiber search stopped after {MAX_FIBER_NODES} nodes "
                f"with {len(out)} points found"
            )
        if i == first:
            # the forced runs fix the rest, total included
            for p in range(first, n):
                v = solve(*forced[p])
                if v is None or v < 0:
                    return
                y[p] = v
            out.append(tuple(y))
            return
        lo, hi = 0, remaining
        for g, (c_least, least, c_most, most) in zip(gaps, bounds[i]):
            u = g - least * remaining  # c_least v <= u
            if c_least > 0:
                hi = min(hi, u // c_least)
            elif c_least < 0:
                lo = max(lo, -(-u // c_least))
            w = g - most * remaining  # c_most v >= w
            if c_most > 0:
                lo = max(lo, -(-w // c_most))
            elif c_most < 0:
                hi = min(hi, w // c_most)
        if i in forced:
            v = solve(*forced[i])
            counts = (v,) if v is not None and lo <= v <= hi else ()
        else:
            counts = range(lo, hi + 1)
        for v in counts:
            y[i] = v
            rec(i + 1, remaining - v, [g - a * v for g, a in zip(gaps, rows[i])])

    # runs in order, each count ascending: the points come out sorted, as
    # exact_p_value's bisect needs
    rec(0, total, targets)
    return out


def fiber_connected(A: CovariateMatrix, y0, basis: MarkovBasis, **caps) -> bool:
    """Oracle by a depth-first walk: do the basis moves connect the whole
    fiber of y0?

    The walk steps only to points of the enumerated fiber: a move that
    leaves the fiber, off the orthant or outside the kernel, adds no edge.
    """
    start = int_counts(A.n, y0)
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
