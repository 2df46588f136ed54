"""Markov bases from the kernel lattice plus saturation, and exhaustive fiber
enumeration.

The toric ideal of the recoded nonnegative covariate matrix is computed in
the run variables p1..pn alone (Sturmfels, *Groebner Bases and Convex
Polytopes*, 1996, Alg. 12.3): a Z-basis of its integer kernel gives the
lattice ideal J = <p^z+ - p^z->, which is saturated by one variable at a
time with the Buchberger engine of :mod:`algdoe.groebner`.  The binomials of
the resulting reduced basis are moves that connect every fiber.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covariates import CovariateMatrix, recode_integer
from .errors import BudgetError, InputError, ScaleError
from .groebner import Budget, DEFAULT_BUDGET, GroebnerBasis, buchberger, reduce_basis
from .orders import TermOrder
from .polynomials import PolyRing, Polynomial

MAX_FIBER_NODES = 10_000_000  # ~50 s of search at ~5 us per node


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

    Kernel lattice plus saturation: the lattice ideal of a Z-basis of the
    kernel of the recoded matrix is saturated by one run variable at a time,
    each step a grevlex basis with that variable last whose binomials are
    divided by the power of it common to their two terms (Bayer-Stillman;
    valid because the intercept makes every binomial homogeneous).  Variables
    on which the lattice basis is a unit vector need no step.  The moves are
    the binomials of the reduced basis under grevlex(p1..pn), lead minus
    trail, sorted, and each is certified to be a kernel vector.  ``budget``
    bounds each Buchberger call of the sequence; exceeding it raises
    BudgetError saying how far the saturation got, with a hint to use
    exhaustive enumeration.
    """
    recoded = recode_integer(A)
    n = A.n
    lattice, unit = _kernel_lattice(recoded, n)
    _certify_kernel(recoded, lattice)
    if not lattice:
        # trivial kernel: every fiber is a singleton
        return MarkovBasis(n, ())

    ring = PolyRing(tuple(f"p{i + 1}" for i in range(n)))
    one = ring.field.coerce(1)
    gens = [
        Polynomial(
            ring,
            {tuple(max(v, 0) for v in z): one, tuple(max(-v, 0) for v in z): -one},
        )
        for z in lattice
    ]
    # p_n comes last, so that the final quotients are a basis under
    # grevlex(p1..pn) itself
    saturate = [k for k in range(n - 1) if k not in unit] + [n - 1]
    for done, k in enumerate(saturate):
        prec = tuple(i for i in range(n) if i != k) + (k,)
        try:
            gb = buchberger(gens, TermOrder.grevlex(n, prec), budget=budget)
        except BudgetError as exc:
            raise BudgetError(
                f"{exc} while saturating p{k + 1} ({done} of {len(saturate)} "
                "variables done); for small problems use exhaustive fiber "
                "enumeration instead"
            ) from exc
        gens = [_divide_out(g, k) for g in gb.elements]
    toric = reduce_basis(GroebnerBasis(TermOrder.grevlex(n), tuple(gens)))

    moves = []
    for g in toric.elements:
        terms = list(g.terms.items())
        if len(terms) != 2 or terms[0][1] + terms[1][1] != 0:
            raise AssertionError(f"toric generator {g!r} is not a binomial difference")
        (e1, c1), (e2, c2) = terms
        pos, neg = (e1, e2) if c1 == 1 else (e2, e1)
        moves.append(tuple(a - b for a, b in zip(pos, neg)))
    _certify_kernel(recoded, moves)
    moves.sort()
    return MarkovBasis(n, tuple(moves))


def _kernel_lattice(recoded, n: int):
    """A Z-basis of {z in Z^n : col . z = 0 for every column of ``recoded``},
    and the coordinates on which it is the identity.

    Unimodular integer row operations on [A | I] (A = the recoded matrix with
    one row per run) bring A to echelon form; the identity part of the rows
    whose A part became zero is a basis.  More row operations on that basis
    then make as many coordinates as possible unit vectors (1 in one basis
    vector, 0 in the others).  Such a coordinate moves monotonically along
    the path of basis steps from 0 to any lattice vector z, so p^z+ - p^z-
    times a monomial free of its variable lies in the lattice ideal: the
    ideal needs no saturation by that variable.
    """
    ncon = len(recoded)
    rows = [[col[i] for col in recoded] + [int(i == j) for j in range(n)]
            for i in range(n)]
    rank = 0
    for c in range(ncon):
        if _gcd_pivot(rows, rank, c):
            rank += 1
    basis = [row[ncon:] for row in rows[rank:]]
    unit = set()
    done = 0
    # last coordinates first, leaving the early ones to saturate: on 2^4 main
    # effects the first bases then hold 60 binomials, not 132 and 143
    for c in reversed(range(n)):
        if abs(_gcd_pivot(basis, done, c)) != 1:
            continue
        piv = basis[done]
        if piv[c] < 0:
            piv[:] = [-v for v in piv]
        for i, row in enumerate(basis):
            if i != done and row[c]:
                basis[i] = [a - row[c] * b for a, b in zip(row, piv)]
        unit.add(c)
        done += 1
    return [tuple(z) for z in basis], unit


def _gcd_pivot(rows, start: int, c: int) -> int:
    """Euclid on column ``c`` of ``rows[start:]`` by unimodular row
    operations, in place: afterwards only ``rows[start]`` may be nonzero in
    that column.  Returns its entry there, the gcd up to sign (0 if none)."""
    while True:
        live = [i for i in range(start, len(rows)) if rows[i][c]]
        if not live:
            return 0
        p = min(live, key=lambda i: abs(rows[i][c]))
        if len(live) == 1:
            rows[start], rows[p] = rows[p], rows[start]
            return rows[start][c]
        for i in live:
            if i != p:
                q = rows[i][c] // rows[p][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[p])]


def _divide_out(g: Polynomial, k: int) -> Polynomial:
    """The binomial g divided by the power of p_k common to its two terms."""
    common = min(e[k] for e in g.terms)
    if not common:
        return g
    return Polynomial(
        g.ring, {e[:k] + (e[k] - common,) + e[k + 1 :]: c for e, c in g.terms.items()}
    )


def _residual(recoded, move) -> tuple[int, ...]:
    return tuple(sum(c * z for c, z in zip(col, move)) for col in recoded)


def _certify_kernel(recoded, vectors):
    for z in vectors:
        if any(_residual(recoded, z)):
            raise AssertionError(f"{z} is not a kernel vector of the recoded matrix")


def kernel_residual(A: CovariateMatrix, move) -> tuple[int, ...]:
    """A~' z for a move; all zeros iff the move is a kernel vector."""
    return _residual(recode_integer(A), move)


def enumerate_fiber(
    A: CovariateMatrix,
    y0,
    max_total: int = 30,
    max_runs: int = 16,
):
    """The complete fiber of y0: all nonnegative integer y with A'y = A'y0.

    Bounded depth-first search over the recoded nonnegative matrix; requires
    the total of y0 and the run count to stay within the caps, and stops with
    :class:`ScaleError` after MAX_FIBER_NODES search nodes.
    """
    y0 = tuple(int(v) for v in y0)
    if any(v < 0 for v in y0):
        raise InputError("observations must be nonnegative integers")
    if len(y0) != A.n:
        raise InputError("observation length does not match the run count")
    total = sum(y0)
    if total > max_total:
        raise ScaleError(f"fiber total {total} exceeds the cap {max_total}")
    if A.n > max_runs:
        raise ScaleError(f"run count {A.n} exceeds the cap {max_runs}")

    recoded = recode_integer(A)
    targets = [sum(c * v for c, v in zip(col, y0)) for col in recoded]
    n = A.n
    ncon = len(recoded)
    # suffix maxima let the search prune constraints that cannot be reached
    suffix_max = []
    for col in recoded:
        sm = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            sm[i] = max(sm[i + 1], col[i])
        suffix_max.append(sm)

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
            for j in range(ncon):
                acc = partial[j] + recoded[j][i] * v
                if acc > targets[j]:
                    ok = False
                    break
                if acc + suffix_max[j][i + 1] * (remaining - v) < targets[j]:
                    ok = False
                    break
            if ok:
                rec(
                    i + 1,
                    remaining - v,
                    [partial[j] + recoded[j][i] * v for j in range(ncon)],
                )
        y[i] = 0

    rec(0, total, [0] * ncon)
    out.sort()
    return out


def fiber_connected(A: CovariateMatrix, y0, basis: MarkovBasis, **caps) -> bool:
    """BFS oracle: do the basis moves connect the whole fiber of y0?"""
    fiber = set(enumerate_fiber(A, y0, **caps))
    if not fiber:
        return True
    start = tuple(int(v) for v in y0)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for z in basis.moves:
            for sign in (1, -1):
                nxt = tuple(a + sign * b for a, b in zip(cur, z))
                if any(v < 0 for v in nxt) or nxt in seen:
                    continue
                seen.add(nxt)
                frontier.append(nxt)
    return seen == fiber
