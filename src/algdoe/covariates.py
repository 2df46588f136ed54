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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cyclotomic import CyclotomicNumber, Echelon, omega
from .designs import Design, _value_vector, monomial_name, parse_monomial
from .errors import EstimabilityError, InputError

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
        if len(y) != self.n:
            raise InputError("observation length does not match the run count")
        return tuple(
            sum(c * int(v) for c, v in zip(col, y)) for col in self.columns
        )


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
        if len(t) != d.m or any(e not in (0, 1) for e in t) or not any(t):
            raise InputError(f"bad model term {t}")
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
    columns = [tuple(Fraction(v) for v in _value_vector(d, t)) for t in terms]
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
            col = []
            for run in d.runs:
                entry = Fraction(1)
                for i, lvl in zip(factors, levels):
                    entry *= _contrast_value(contrast, s, run[i], lvl)
                col.append(entry)
            labels.append(_sub_label(t, levels, factors))
            columns.append(tuple(col))
    return labels, columns


def _contrast_value(contrast: str, s: int, value: int, level: int) -> Fraction:
    if contrast == "baseline":
        return Fraction(1 if value == level else 0)
    # symmetric: sums to zero over a balanced factor
    if value == level:
        return Fraction(s - 1)
    if value == s - 1:
        return Fraction(-1)
    return Fraction(0)


def _sub_label(term: Term, subscripts, factors) -> str:
    base = monomial_name(term)
    if len(subscripts) == 1:
        return f"{base}[{subscripts[0]}]"
    return f"{base}[{','.join(str(x) for x in subscripts)}]"


def _check_rank(labels, columns):
    """Exact rank check; on failure name a completely aliased pair if any."""
    ech = Echelon()
    for j, col in enumerate(columns):
        if ech.insert(col, j) is not None:
            raise EstimabilityError(
                _alias_message(labels, columns, j),
                aliased=_alias_pair(labels, columns, j),
            )


def _alias_pair(labels, columns, j):
    """Find an earlier column that is a constant multiple of column j."""
    col = columns[j]
    for i in range(j):
        other = columns[i]
        ratio = None
        ok = True
        for a, b in zip(col, other):
            if bool(a) != bool(b):
                ok = False
                break
            if a:
                r = a * b**-1
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    ok = False
                    break
        if ok:
            return (labels[j], labels[i])
    return (labels[j], None)


def _alias_message(labels, columns, j):
    pair = _alias_pair(labels, columns, j)
    if pair[1] is not None:
        return (
            f"term {pair[0]} is confounded with {pair[1]} on this design; "
            "they cannot be estimated simultaneously"
        )
    return (
        f"term {pair[0]} is linearly dependent on the preceding columns; "
        "the model is not estimable on this design"
    )


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
    rational_cols: list[list[Fraction]] = []
    for col in A.columns:
        if isinstance(col[0], CyclotomicNumber):
            order = col[0].order
            for k in range(order - 1):
                sub = [c.coords[k] for c in col]
                if any(sub):
                    rational_cols.append(sub)
        else:
            rational_cols.append([Fraction(c) for c in col])
    out: list[tuple[int, ...]] = []
    seen = set()
    for col in rational_cols:
        denom = 1
        for c in col:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = [int(c * denom) for c in col]
        low = min(ints)
        if low < 0:
            ints = [v - low for v in ints]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        tup = tuple(ints)
        if any(tup) and tup not in seen:
            seen.add(tup)
            out.append(tup)
    return tuple(out)
