"""Covariate matrices for Poisson log-linear null models on designs.

The matrix always carries the all-ones intercept as its first column; the
remaining columns realize main effects and interactions under a contrast
scheme.  Two-level factors contribute one plus/minus-one column per term.
A factor at prime level s > 2 contributes s-1 columns per main effect:

  baseline    indicator columns for the first s-1 levels,
  symmetric   (s-1) at the level, -1 at the last level, 0 otherwise,
  complex     a single column of s-th roots of unity per power 1..s-1 of the
              level, carried exactly in the cyclotomic field.

All schemes span the same rational row space together with the intercept, so
they define the same conditional sample space; ``recode_integer`` reduces any
of them to a nonnegative integer matrix with an identical fiber.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, prod

from .cyclotomic import CyclotomicNumber, Echelon, _cleared, omega
from .designs import Design, _columns, _product, parse_monomial
from .errors import EstimabilityError, InputError
from .orders import monomial_name

CONTRASTS = ("baseline", "symmetric", "complex")

Term = tuple[int, ...]  # square-free exponent vector over the factors


@dataclass(frozen=True)
class CovariateMatrix:
    """Exact n x nu covariate matrix with full column rank.

    ``columns`` is column-major; entries are Fractions, or CyclotomicNumbers
    under the complex contrast.  The first column is identically one.
    """

    design: Design
    terms: tuple[Term, ...]
    contrast: str | None
    labels: tuple[str, ...]
    columns: tuple[tuple[object, ...], ...]

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def rows(self):
        return [
            tuple(col[i] for col in self.columns) for i in range(self.n)
        ]

    def sufficient_statistic(self, y) -> tuple:
        y = _check_counts(self.n, y)
        return tuple(sum(c * v for c, v in zip(col, y)) for col in self.columns)


def _check_counts(n: int, y) -> tuple[int, ...]:
    """The counts y as ints; InputError unless they are n nonnegative integers."""
    y = tuple(y)
    if len(y) != n:
        raise InputError(f"expected {n} counts, found {len(y)}")
    for v in y:
        if not (isinstance(v, numbers.Real) and isfinite(v) and v == int(v)):
            raise InputError(f"counts must be integers, found {v!r}")
        if v < 0:
            raise InputError(f"counts must be nonnegative, found {v!r}")
    return tuple(int(v) for v in y)


def parse_model_terms(text: str, m: int):
    """Parse a model file: one term per line plus an optional contrast tag."""
    terms: list[Term] = []
    contrast = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("contrast="):
            contrast = line.split("=", 1)[1].strip()
            if contrast not in CONTRASTS:
                raise InputError(f"unknown contrast {contrast!r}")
            continue
        terms.append(parse_monomial(line, m))
    return terms, contrast


def build_covariate_matrix(
    d: Design, terms, contrast: str | None = None
) -> CovariateMatrix:
    """Covariate matrix for the given model terms over the design runs.

    ``terms`` are square-free exponent vectors; the first must be the
    intercept.  Raises :class:`EstimabilityError` when the requested terms are
    confounded on the design, naming a completely aliased pair when one exists.
    """
    terms = [tuple(t) for t in terms]
    if not terms or any(terms[0]):
        raise InputError("the model must start with the intercept term '1'")
    for t in terms[1:]:
        name = monomial_name(t)
        if len(t) != d.m:
            raise InputError(
                f"bad model term {name}: {len(t)} exponents for {d.m} factors"
            )
        if not any(t):
            raise InputError(f"bad model term {name}: the intercept may only come first")
        if any(e not in (0, 1) for e in t):
            raise InputError(f"bad model term {name}: not square-free")
    if len(set(terms)) != len(terms):
        raise InputError("duplicate model terms")
    if d.s == 2:
        if contrast is not None:
            raise InputError("contrast schemes apply to designs with s > 2")
        labels, columns = _two_level_columns(d, terms)
    else:
        contrast = contrast or "baseline"
        if contrast not in CONTRASTS:
            raise InputError(f"unknown contrast {contrast!r}")
        labels, columns = _prime_level_columns(d, terms, contrast)
    _check_rank(labels, columns)
    return CovariateMatrix(
        d, tuple(terms), contrast, tuple(labels), tuple(columns)
    )


def _two_level_columns(d: Design, terms):
    labels = [monomial_name(t) for t in terms]
    packed = _columns(d)
    value = {"0": Fraction(1), "1": Fraction(-1)}.__getitem__
    columns = [tuple(map(value, f"{_product(packed, t):0{d.n}b}")) for t in terms]
    return labels, columns


def _prime_level_columns(d: Design, terms, contrast: str):
    s = d.s
    labels = ["1"]
    if contrast == "complex":
        columns = [tuple(omega(s, 0) for _ in d.runs)]
        for t in terms[1:]:
            factors = [i for i, e in enumerate(t) if e]
            # one complex column per power vector (1, b2, ..., bk); each column
            # carries s-1 rational coordinate dimensions
            for rest in itertools.product(range(1, s), repeat=len(factors) - 1):
                powers = (1,) + rest
                col = tuple(
                    omega(s, sum(p * run[i] for i, p in zip(factors, powers)) % s)
                    for run in d.runs
                )
                labels.append(_sub_label(t, powers, factors))
                columns.append(col)
        return labels, columns
    columns = [tuple(Fraction(1) for _ in d.runs)]
    for t in terms[1:]:
        factors = [i for i, e in enumerate(t) if e]
        # products of single-factor contrast columns, one per level combination
        for levels in itertools.product(range(s - 1), repeat=len(factors)):
            col = tuple(
                Fraction(prod(_contrast_value(contrast, s, run[i], lvl)
                              for i, lvl in zip(factors, levels)))
                for run in d.runs
            )
            labels.append(_sub_label(t, levels, factors))
            columns.append(col)
    return labels, columns


def _contrast_value(contrast: str, s: int, value: int, level: int) -> int:
    if contrast == "baseline":
        return int(value == level)
    # symmetric: sums to zero over a balanced factor
    if value == level:
        return s - 1
    return -1 if value == s - 1 else 0


def _sub_label(term: Term, subscripts, factors) -> str:
    base = monomial_name(term)
    if len(subscripts) == 1:
        return f"{base}[{subscripts[0]}]"
    return f"{base}[{','.join(str(x) for x in subscripts)}]"


def _check_rank(labels, columns):
    """Exact rank check; on failure name a completely aliased pair if any.

    The kept columns are independent, so a dependent column is a multiple of
    one earlier column exactly when its combination of them has one label.
    """
    ech = Echelon()
    for j, col in enumerate(columns):
        combo = ech.insert(col, j)
        if combo is not None:
            term = labels[j]
            other = labels[next(iter(combo))] if len(combo) == 1 else None
            if other is None:
                message = (f"term {term} is linearly dependent on the preceding "
                           "columns; the model is not estimable on this design")
            else:
                message = (f"term {term} is confounded with {other} on this design; "
                           "they cannot be estimated simultaneously")
            raise EstimabilityError(message, aliased=(term, other))


# -- integer recoding -----------------------------------------------------------


def recode_integer(A: CovariateMatrix) -> tuple[tuple[int, ...], ...]:
    """Nonnegative integer matrix (column-major) with the same fiber as A.

    Cyclotomic columns expand into their rational coordinate columns; each
    rational column is scaled to integers, shifted to be nonnegative using the
    intercept, and divided by its content.  All steps preserve the rational
    row space together with the all-ones vector, hence the fiber.
    """
    if any(c != 1 for c in A.columns[0]):
        raise InputError("recoding requires the all-ones intercept column")
    rational_cols = []
    for col in A.columns:
        if isinstance(col[0], CyclotomicNumber):
            rational_cols += zip(*(c.coords for c in col))
        else:
            rational_cols.append(col)
    out = {}  # insertion-ordered set
    for col in rational_cols:
        ints, _ = _cleared(col)
        low = min(0, *ints)
        ints = [v - low for v in ints]
        if g := gcd(*ints):  # an all-zero column adds nothing
            out[tuple(v // g for v in ints)] = None
    return tuple(out)
