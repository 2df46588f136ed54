"""Markov bases from the kernel lattice plus saturation, and exhaustive fiber
enumeration.

The toric ideal of the recoded nonnegative covariate matrix is computed in
the run variables p1..pn alone (Sturmfels, *Groebner Bases and Convex
Polytopes*, 1996, Alg. 12.3): a Z-basis of its integer kernel gives the
lattice ideal J = <p^z+ - p^z->, which is saturated by one variable at a
time.  Each step is a Buchberger completion done directly on binomials
x^lead - x^trail held as pairs of exponent tuples: a monomial u is reduced
by an element whose lead divides it to u - lead + trail, divisibility is
first filtered by the support bitmask of each lead, and S-pairs are pruned
by the coprime and chain criteria in the form of Gebauer and Moeller (*J.
Symb. Comput.* 6, 1988) when they are made.  The binomials of the resulting
reduced basis are moves that connect every fiber.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from itertools import compress
from operator import add, and_, le, neg, not_, or_, sub

from .covariates import CovariateMatrix, _check_counts, recode_integer
from .errors import BudgetError, InputError, ScaleError
from .groebner import Budget, DEFAULT_BUDGET

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
    kernel of the recoded matrix is saturated by one run variable at a time.
    Each step completes the binomials to a Groebner basis under grevlex with
    that variable last, on integer exponent vectors, divides every element by
    the power of the variable common to its two terms (Bayer-Stillman; valid
    because the intercept makes every binomial homogeneous) and reduces the
    quotients; the last step, p_n, leaves the reduced basis under
    grevlex(p1..pn).  Variables on which the lattice basis is a unit vector
    need no step.  The moves are its binomials, lead minus trail, sorted,
    and each is certified to be a kernel vector.  ``budget.max_pairs`` bounds
    the S-pairs made by each completion; exceeding it raises BudgetError
    saying how far the saturation got and what the completion did, with a
    hint to use exhaustive enumeration.  ``budget.max_terms`` does not apply:
    every element has two terms.
    """
    recoded = recode_integer(A)
    n = A.n
    lattice, unit = _kernel_lattice(recoded, n)
    _certify_kernel(recoded, lattice)
    if not lattice:
        # trivial kernel: every fiber is a singleton
        return MarkovBasis(n, ())

    gens = [
        (tuple(max(v, 0) for v in z), tuple(max(-v, 0) for v in z)) for z in lattice
    ]
    # p_n comes last, so that the final quotients are a basis under
    # grevlex(p1..pn) itself
    saturate = [k for k in range(n - 1) if k not in unit] + [n - 1]
    for done, k in enumerate(saturate):
        prec = [i for i in range(n) if i != k] + [k]
        completion = _Completion(budget, n)
        try:
            gens = completion.saturate(gens, prec)
        except BudgetError as exc:
            raise BudgetError(
                f"{exc} while saturating p{k + 1} ({done} of {len(saturate)} "
                f"variables done): {completion.made} pairs made, "
                f"{completion.coprime} skipped by the coprime criterion, "
                f"{completion.chain} by the Gebauer-Moeller criteria, peak "
                f"basis size {completion.peak}; for small problems use "
                "exhaustive fiber enumeration instead"
            ) from exc

    moves = sorted(tuple(map(sub, lead, trail)) for lead, trail in gens)
    _certify_kernel(recoded, moves)
    return MarkovBasis(n, tuple(moves))


def _key(u):
    """Sort key of a monomial under grevlex, the last coordinate least
    significant: degree, then the smaller exponent at the last difference is
    the greater monomial."""
    return sum(u), tuple(map(neg, reversed(u)))


def _members(bits: int):
    """The positions of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _Basis:
    """Binomials x^lead - x^trail that reduce monomials, held as lead and
    step = trail - lead, indexed by the order they were added in.

    The support bitmasks of the leads are stored transposed: ``using[v]`` has
    bit i set when lead i uses variable v, and ``active`` has bit i set while
    element i is in the basis.  So the elements whose support lies inside
    that of a monomial, the only ones whose lead can divide it, are one OR
    over its zero coordinates away."""

    def __init__(self, n: int):
        self.lead = []
        self.step = []
        self.using = [0] * n
        self.active = 0

    def add(self, lead, trail) -> int:
        i = len(self.lead)
        bit = 1 << i
        for v in compress(range(len(lead)), lead):
            self.using[v] |= bit
        self.active |= bit
        self.lead.append(lead)
        self.step.append(tuple(map(sub, trail, lead)))
        return i

    def divisor(self, u):
        """An element of the basis whose lead divides x^u, or None."""
        outside = functools.reduce(or_, compress(self.using, map(not_, u)), 0)
        for i in _members(self.active & ~outside):
            if all(map(le, self.lead[i], u)):
                return i
        return None

    def normal_form(self, u):
        """While some lead divides x^u, replace u by u - lead + trail."""
        while (i := self.divisor(u)) is not None:
            u = tuple(map(add, u, self.step[i]))
        return u

    def elements(self):
        """(lead, trail) of each element of the basis."""
        return [
            (self.lead[i], tuple(map(add, self.lead[i], self.step[i])))
            for i in _members(self.active)
        ]


def _reduce(binomials, n: int):
    """The reduced Groebner basis from a Groebner basis of binomials (lead,
    trail): drop every element whose lead another kept lead divides, then
    replace each trail by its normal form."""
    kept = _Basis(n)
    for lead, trail in sorted(binomials, key=lambda g: _key(g[0])):
        if kept.divisor(lead) is None:
            kept.add(lead, trail)
    return [(lead, kept.normal_form(trail)) for lead, trail in kept.elements()]


class _Completion:
    """One Buchberger completion of homogeneous binomials under grevlex with
    the last coordinate least significant, with the pair criteria of
    Gebauer and Moeller, and the counters a BudgetError reports."""

    def __init__(self, budget: Budget, n: int):
        self.max_pairs = budget.max_pairs
        self.n = n
        self.basis = _Basis(n)  # every element added; ``active`` is minimal
        # S-pairs by creation number: (i, j, lcm of leads i and j), the live
        # ones as a bitset, and their lcm supports transposed as in _Basis
        self.pairs = []
        self.live = 0
        self.pairs_using = [0] * n
        self.heap = []  # (grevlex key of the lcm, pair number)
        self.made = self.coprime = self.chain = self.peak = 0

    def saturate(self, binomials, prec):
        """The reduced basis of the saturation by the variable ``prec[-1]``,
        in the original coordinates: complete under grevlex with precedence
        ``prec``, divide the last coordinate out and reduce."""
        gens = []
        for a, b in binomials:
            a, b = tuple(a[p] for p in prec), tuple(b[p] for p in prec)
            gens.append((a, b) if _key(a) > _key(b) else (b, a))
        for a, b in sorted(gens, key=lambda g: _key(g[0])):
            self._insert(a, b)
        step = self.basis.step
        while self.heap:
            _, p = heapq.heappop(self.heap)
            if self.live >> p & 1:
                self.live ^= 1 << p
                i, j, lcm = self.pairs[p]
                self._insert(
                    tuple(map(add, lcm, step[i])), tuple(map(add, lcm, step[j]))
                )
        divided = []
        for lead, trail in self.basis.elements():
            common = min(lead[-1], trail[-1])
            divided.append((lead[:-1] + (lead[-1] - common,),
                            trail[:-1] + (trail[-1] - common,)))
        inverse = sorted(range(self.n), key=prec.__getitem__)
        return [
            (tuple(lead[p] for p in inverse), tuple(trail[p] for p in inverse))
            for lead, trail in _reduce(divided, self.n)
        ]

    def _insert(self, a, b):
        """Reduce x^a - x^b; if it is not zero, add it to the basis and
        update the pairs by the Gebauer-Moeller criteria."""
        basis = self.basis
        a = basis.normal_form(a)
        b = basis.normal_form(b)
        if a == b:
            return
        if _key(a) < _key(b):
            a, b = b, a
        lead = basis.lead
        size = basis.active.bit_count()
        self.made += size
        if self.made > self.max_pairs:
            raise BudgetError(f"pair budget exceeded ({self.made} > {self.max_pairs})")
        # basis elements whose lead shares a variable with a, and those whose
        # support contains that of a (candidates for multiples of a)
        sharing = basis.active & functools.reduce(or_, compress(basis.using, a), 0)
        covering = functools.reduce(and_, compress(basis.using, a), basis.active)
        h = basis.add(a, b)

        # criterion B: drop a pair (i, j) when lead h divides its lcm strictly
        # in both of lcm(i, h) and lcm(j, h)
        pairs = self.pairs
        candidates = functools.reduce(and_, compress(self.pairs_using, a), self.live)
        for p in _members(candidates):
            i, j, lcm = pairs[p]
            if (
                all(map(le, a, lcm))
                and tuple(map(max, lead[i], a)) != lcm
                and tuple(map(max, lead[j], a)) != lcm
            ):
                self.live ^= 1 << p
                self.chain += 1

        # new pairs (i, h): those with disjoint leads are skipped by
        # Buchberger's first criterion; of the others, criterion M drops a
        # pair whose lcm is a multiple of another's (of equal lcms it keeps
        # the last).  A coprime pair needs no part in M: its lcm divides that
        # of (k, h) only if lead i divides lead k, and the basis is minimal.
        self.coprime += size - sharing.bit_count()
        lcms = [(tuple(map(max, lead[i], a)), i) for i in _members(sharing)]
        new = sorted((sum(lcm), lcm, i) for lcm, i in lcms)
        kept = []
        for idx, (_, lcm, i) in enumerate(new):
            if (idx + 1 < len(new) and new[idx + 1][1] == lcm) or any(
                all(map(le, k, lcm)) for k in kept
            ):
                self.chain += 1
                continue
            kept.append(lcm)
            p = len(pairs)
            pairs.append((i, h, lcm))
            self.live |= 1 << p
            for v in compress(range(self.n), lcm):
                self.pairs_using[v] |= 1 << p
            heapq.heappush(self.heap, (_key(lcm), p))

        # elements whose lead a divides leave the basis (their pairs stay)
        for k in _members(covering):
            if all(map(le, a, lead[k])):
                basis.active ^= 1 << k
        self.peak = max(self.peak, basis.active.bit_count())


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
    start = _check_counts(A.n, y0)
    fiber = set(enumerate_fiber(A, start, **caps))
    if not fiber:
        return True
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
