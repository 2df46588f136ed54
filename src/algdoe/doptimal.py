"""Desk-scale D-optimality search for two-level main effect models.

The criterion det(X'X), with X the n x (m+1) model matrix of the intercept
and the factor columns, is evaluated exactly over the integers by
fraction-free elimination.  Entry (a, b) of X'X, a J-characteristic of the
design (Deng & Tang, *Statist. Sinica* 9, 1999), is n - 2 popcount(c_a XOR
c_b) on its packed columns c_1..c_m, with c_0 = 0 for the intercept.

Exhaustive search returns the true optimum with every maximizer; it needs
n >= m+1 runs, since with fewer every subset has det(X'X) = 0.  Permuting
the factors or flipping the sign of one leaves det(X'X) unchanged.  The 2^m
sign flips map the candidate runs onto each other simply transitively, so
every subset has a flip image that contains the first candidate, the
all-minus run; factor permutations fix that run, so the image can also be
taken with non-decreasing factor column sums.  The search therefore
enumerates exactly the C(2^m - 1, n - 1) subsets that contain the first
candidate, sums X'X for each from rows packed into one int, and keeps the
leaves with sorted column sums s, bucketed by s and by X'X.  Hadamard's
inequality on the centred Gram matrix (Galil & Kiefer, *Ann. Statist.* 8,
1980) gives

    det(X'X) <= n^(1-m) prod_j (n^2 - s_j^2),

so the classes of column sums are scored best bound first, with one
determinant per distinct X'X, and the scoring stops at the first class whose
bound is below the best determinant.  The maximizers found are closed under
the m single-factor flips and the m - 1 adjacent factor transpositions, and
all of them are returned in the order of ``itertools.combinations``.  The
cap still counts all C(2^m, n) subsets.

Greedy exchange is a seeded hill climb with restarts and makes no optimality
claim.  Each sweep scores every swap of a design run v for a candidate u
exactly from G = X'X, D = det G and the integer adjugate A = adj G, taken
once per sweep, by the rank-one update identity (Fedorov, *Theory of Optimal
Experiments*, 1972)

    D det(G - vv' + uu') = (D + u'Au)(D - v'Av) + (u'Av)^2,

and ranks the swaps by its right side, whose terms are listed for all 2^m
runs u at once as signed sums (Yates' doubling, 1937): one list per row of A
gives every Au and u'Au, one per design run v every u'Av.  While D = 0 the
rank of X decides: one swap changes it by at most one, so below p - 1,
p = m + 1, no swap makes det > 0 and the climb stops.  At rank p - 1, with
z the primitive integer null vector of X, the one vector of its kernel
lattice, every swap at position i scores kappa_i (u.z)^2, where kappa_i =
det(G - vv' + zz') / (z.z)^2 is computed once per position.
Both modes list the 2^m candidate runs, so each checks its cap first.

Every returned optimum is checked against ``d_criterion`` before it is
returned, on the packed columns that classification then reuses.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import defaultdict
from dataclasses import dataclass

from .designs import Design
from .errors import InputError, ScaleError, int_fields
from .indicators import DesignClass, classify_design
from .linalg import adjugate, bareiss, dot, int_det, kernel_lattice

EXHAUSTIVE_CAP = 10_000_000
MAX_CANDIDATES = 2**20


@dataclass(frozen=True)
class SearchSpec:
    m: int
    n: int
    mode: str = "exhaustive"  # or "greedy-exchange"
    seed: int = 0
    restarts: int = 20

    def __post_init__(self):
        int_fields(self, "m", "n", "restarts")
        if self.mode not in ("exhaustive", "greedy-exchange"):
            raise InputError(f"unknown search mode {self.mode!r}")
        if self.n < 1 or self.m < 1:
            raise InputError("need at least one run and one factor")
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        # n > 2^m, without building 2^m
        if (self.n - 1).bit_length() > self.m:
            raise InputError("run count exceeds the candidate pool")


@dataclass(frozen=True)
class SearchResult:
    spec: SearchSpec
    best_det: int
    optima: tuple[Design, ...]
    classifications: tuple[DesignClass, ...]
    exhaustive: bool

    def class_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for c in self.classifications:
            hist[c.tag] = hist.get(c.tag, 0) + 1
        return dict(sorted(hist.items()))


def _model_rows(runs) -> list[tuple[int, ...]]:
    return [(1,) + tuple(run) for run in runs]


def d_criterion(d: Design) -> int:
    """det(X'X) of the main effect model matrix, exactly."""
    if d.s != 2:
        raise InputError("the D criterion is defined for two-level designs")
    n, columns = d.n, (0, *d._columns)
    return int_det([[n - 2 * (a ^ b).bit_count() for b in columns] for a in columns])


def _gram(rows) -> list[list[int]]:
    cols = list(zip(*rows))
    return [[dot(a, b) for b in cols] for a in cols]


def d_optimal_search(spec: SearchSpec) -> SearchResult:
    if spec.mode == "exhaustive":
        if spec.n < spec.m + 1:
            raise InputError(
                f"{spec.n} runs cannot make X'X nonsingular for {spec.m + 1} "
                "parameters: every subset has det 0"
            )
        if _subsets_exceed(spec.m, spec.n, EXHAUSTIVE_CAP):
            raise ScaleError(
                f"exhaustive search over C(2^{spec.m}, {spec.n}) subsets exceeds "
                f"the cap of {EXHAUSTIVE_CAP}"
            )
    elif spec.m >= MAX_CANDIDATES.bit_length():  # 2^m > MAX_CANDIDATES
        raise ScaleError(
            f"greedy exchange over 2^{spec.m} candidate runs exceeds the cap "
            f"of {MAX_CANDIDATES}"
        )
    candidates = list(itertools.product((-1, 1), repeat=spec.m))
    if spec.mode == "exhaustive":
        best, optima = _exhaustive(candidates, spec.n)
        runs_list = [tuple(candidates[c] for c in subset) for subset in optima]
    else:
        best, runs = _greedy_exchange(spec, candidates)
        runs_list = [runs]
    designs = tuple(Design(spec.m, 2, runs, "pm1") for runs in runs_list)
    for d in designs:
        if d_criterion(d) != best:
            raise AssertionError(f"search optimum {best} is not det(X'X) of {d.runs}")
    return SearchResult(
        spec,
        best,
        designs,
        tuple(classify_design(d) for d in designs),
        spec.mode == "exhaustive",
    )


def _subsets_exceed(m: int, n: int, cap: int) -> bool:
    """Whether C(2^m, n) > cap, for 1 <= n <= 2^m, building no integer
    much larger than cap."""
    if m >= cap.bit_length():  # C(2^m, n) >= 2^m > cap unless n = 2^m
        return n.bit_length() <= m
    size, count = 1 << m, 1
    for i in range(min(n, size - n)):  # C(size, i) grows with i up to here
        count = count * (size - i) // (i + 1)
        if count > cap:
            return True
    return False


def _exhaustive(candidates, n: int) -> tuple[int, list[tuple[int, ...]]]:
    """The optimum and every maximizing n-subset of candidate indices, sorted.

    The candidates are the full factorial in product order, so a factor is a
    bit of the index: XOR-ing an index with a bit flips that factor, and
    swapping two adjacent bits swaps two adjacent factors.  Each model row r
    is packed into one int: entry (a, b) of the strict upper triangle of rr'
    is stored as r_a r_b + 1 in a lane wide enough for the sum of n rows, so
    that summing the packed rows of a subset sums its X'X without carries;
    the diagonal of X'X is n.  The lanes of the factor column sums, entries
    (0, j), are the top field: the key of a leaf's class of column sums s,
    under which the sorted leaves are bucketed by their packed X'X.  A class
    is scored only while its bound prod(n^2 - s_j^2) is at least the best
    determinant times n^(m-1).
    """
    size = len(candidates)
    rows = _model_rows(candidates)
    m = len(rows[0]) - 1
    width = (2 * n).bit_length()
    lane = (1 << width) - 1
    # (a, b) pairs of X'X entries, factor pairs low and (0, 1)..(0, m) on top
    pairs = [(a, b) for a in reversed(range(m + 1)) for b in range(a + 1, m + 1)]
    top = width * (len(pairs) - m)
    packed = [
        sum((r[a] * r[b] + 1) << width * q for q, (a, b) in enumerate(pairs))
        for r in rows
    ]

    def column_sums(key):
        return [(key >> width * j & lane) - n for j in range(m)]

    # column sums -> None if unsorted, else packed X'X -> subsets without 0
    classes: dict[int, defaultdict | None] = {}
    add = functools.partial(sum, start=packed[0])
    for rest, total in zip(
        itertools.combinations(range(1, size), n - 1),
        map(add, itertools.combinations(packed[1:], n - 1)),
    ):
        key = total >> top
        try:
            grams = classes[key]
        except KeyError:
            sums = column_sums(key)
            grams = classes[key] = (
                defaultdict(list) if all(map(operator.le, sums, sums[1:])) else None
            )
        if grams is not None:
            grams[total].append(rest)

    scored = sorted(
        (
            (math.prod(n * n - s * s for s in column_sums(key)), key)
            for key, grams in classes.items()
            if grams is not None
        ),
        reverse=True,
    )
    scale = n ** (m - 1)
    best = -1
    found: list[tuple[int, ...]] = []
    for bound, key in scored:
        if bound < best * scale:
            break
        for total, subsets in classes[key].items():
            gram = [[n] * (m + 1) for _ in range(m + 1)]
            for q, (a, b) in enumerate(pairs):
                gram[a][b] = gram[b][a] = (total >> width * q & lane) - n
            det = bareiss(gram)
            if det > best:
                best = det
                found.clear()
            if det == best:
                found += [(0,) + rest for rest in subsets]
    return best, _closure(found, m)


def _closure(subsets, m: int) -> list[tuple[int, ...]]:
    """Every image of the sorted index tuples ``subsets`` under factor
    permutations and sign flips, sorted.

    det(X'X) is invariant under both, so the images of the scored maximizers
    are every maximizer: sign flips take any subset to one containing
    candidate 0, and a factor permutation then sorts its column sums without
    moving candidate 0.  The orbits are closed under the m single-factor
    flips and the m - 1 adjacent transpositions, which generate the group;
    each generator is a table of candidate indices, since factor j is bit
    m - 1 - j of an index.
    """
    size = 1 << m
    generators = [[c ^ (1 << j) for c in range(size)] for j in range(m)]
    generators += [
        [c ^ (3 << j) if (c >> j ^ c >> j + 1) & 1 else c for c in range(size)]
        for j in range(m - 1)
    ]
    orbit = set(subsets)
    todo = list(subsets)
    while todo:
        subset = todo.pop()
        for table in generators:
            image = tuple(sorted(map(table.__getitem__, subset)))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return sorted(orbit)


def _greedy_exchange(spec: SearchSpec, candidates) -> tuple[int, tuple]:
    """Best det(X'X) and sorted runs over the seeded restarts of the climb.

    Each sweep lists the scores of all candidates at each design position,
    masks the used ones, and applies the first swap with the largest det if
    it beats the current design; the climb stops at the first sweep without
    an improving swap.  Designs are held as candidate indices, which draw the
    same runs from the rng as the candidates do and index every score list.
    """
    rows = _model_rows(candidates)
    columns = list(zip(*candidates))
    rng = random.Random(spec.seed)
    best = -1
    best_runs: tuple[tuple[int, ...], ...] = ()
    for _ in range(spec.restarts):
        current = rng.sample(range(len(candidates)), spec.n)
        while True:
            gram = _gram([rows[k] for k in current])
            det, adj = adjugate(gram)
            if adj is not None:
                sums = [_signed_sums(row) for row in adj]  # (Au)_c for every u
                grown = [det + q for q in sums[0]]  # D + u'Au for every u
                for signs, au in zip(columns, sums[1:]):
                    grown = [g + a if s > 0 else g - a for g, a, s in zip(grown, au, signs)]
            else:
                lattice = kernel_lattice([rows[k] for k in current], len(gram))
                if len(lattice) != 1:  # rank <= p - 2: every swap leaves det 0
                    break
                z = lattice[0]
                shadow = [s * s for s in _signed_sums(z)]
            top, swap = det * det, None  # D times the det to beat; 0 if singular
            for i, out in enumerate(current):
                if adj is None:
                    kappa = _null_cofactor(gram, rows[out], z)
                    trial = [kappa * s for s in shadow]
                else:  # Av is read off sums at v, and u'Av is its signed sum
                    kept = 2 * det - grown[out]
                    cross = _signed_sums([au[out] for au in sums])
                    trial = [g * kept + c * c for g, c in zip(grown, cross)]
                for k in current:
                    trial[k] = -1
                value = max(trial)
                if value > top:
                    top, swap = value, (i, trial.index(value))
            if swap is None:
                break
            i, k = swap
            current[i] = k
        if det > best:
            best = det
            best_runs = tuple(candidates[k] for k in sorted(current))
    return best, best_runs


def _null_cofactor(gram, out, z) -> int:
    """kappa with det(G - vv' + uu') = kappa * (u.z)^2 for every run u, where
    G = X'X has rank p - 1 with null vector z and v = ``out`` is a run of X.

    M = G - vv' is singular with Mz = 0, so adj M = kappa zz' and
    det(M + uu') = u' adj(M) u; kappa is det(M + zz') / (z.z)^2, an integer
    because adj M is integral and z is primitive.
    """
    p = len(z)
    det = bareiss([[gram[a][b] - out[a] * out[b] + z[a] * z[b] for b in range(p)]
                   for a in range(p)])
    return det // dot(z, z) ** 2


def _signed_sums(w) -> list[int]:
    """w.r for every candidate row r = (1, +-1, ..., +-1), in product order."""
    sums = [w[0]]
    for wj in reversed(w[1:]):
        sums = [v - wj for v in sums] + [v + wj for v in sums]
    return sums
