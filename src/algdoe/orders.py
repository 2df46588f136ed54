"""Term orders on monomials: lex, graded lex, graded reverse lex, and block orders.

A monomial is a dense tuple of nonnegative integer exponents over a fixed
indeterminate universe.  Every order here is total and multiplicative, and is
realized through a sort key so that ``key(a) > key(b)`` iff ``a`` is greater.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .errors import DimensionError, InputError

Monomial = tuple[int, ...]

KINDS = ("lex", "grlex", "grevlex")


def _simple_key(kind: str, precedence: tuple[int, ...], a: Monomial):
    if kind == "lex":
        return tuple(a[p] for p in precedence)
    if kind == "grlex":
        return (sum(a[p] for p in precedence), tuple(a[p] for p in precedence))
    if kind == "grevlex":
        # degree first, then reverse lex on the reversed precedence: with equal
        # degrees the monomial with the smaller exponent in the least
        # significant differing variable is the greater one
        return (
            sum(a[p] for p in precedence),
            tuple(-a[p] for p in reversed(precedence)),
        )
    raise InputError(f"unknown term order kind {kind!r}")


@dataclass(frozen=True)
class TermOrder:
    """A total multiplicative order on monomials of a fixed universe size.

    ``precedence`` lists variable indices from most to least significant.  For
    ``kind == "block"`` the comparison runs block by block; ``blocks`` holds
    ``(variable_indices, inner_kind)`` pairs whose index tuples partition the
    precedence.  Any monomial containing a variable of an earlier block beats
    any monomial supported on later blocks only.
    """

    kind: str
    precedence: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, ...], str], ...] = ()
    _cache: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False, init=False
    )

    def __post_init__(self):
        n = len(self.precedence)
        if sorted(self.precedence) != list(range(n)):
            raise InputError("precedence must be a permutation of the universe")
        if self.kind == "block":
            flat = [v for vars_, _ in self.blocks for v in vars_]
            if tuple(flat) != self.precedence:
                raise InputError("blocks must partition the precedence in order")
            for _, k in self.blocks:
                if k not in KINDS:
                    raise InputError(f"unknown inner order kind {k!r}")
        elif self.kind not in KINDS:
            raise InputError(f"unknown term order kind {self.kind!r}")

    # -- construction ------------------------------------------------------

    @staticmethod
    def lex(nvars: int, precedence: tuple[int, ...] | None = None) -> "TermOrder":
        return TermOrder("lex", _prec(nvars, precedence))

    @staticmethod
    def grlex(nvars: int, precedence: tuple[int, ...] | None = None) -> "TermOrder":
        return TermOrder("grlex", _prec(nvars, precedence))

    @staticmethod
    def grevlex(nvars: int, precedence: tuple[int, ...] | None = None) -> "TermOrder":
        return TermOrder("grevlex", _prec(nvars, precedence))

    @staticmethod
    def block(blocks) -> "TermOrder":
        blocks = tuple((tuple(vars_), kind) for vars_, kind in blocks)
        precedence = tuple(v for vars_, _ in blocks for v in vars_)
        return TermOrder("block", precedence, blocks)

    # -- comparison ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.precedence)

    def key(self, a: Monomial):
        """Sort key; monomials compare the same way their keys do."""
        k = self._cache.get(a)
        if k is None:
            if len(a) != self.nvars:
                raise DimensionError(
                    f"monomial has {len(a)} exponents, universe has {self.nvars}"
                )
            if self.kind == "block":
                k = tuple(_simple_key(kind, vars_, a) for vars_, kind in self.blocks)
            else:
                k = _simple_key(self.kind, self.precedence, a)
            self._cache[a] = k
        return k

    def compare(self, a: Monomial, b: Monomial) -> int:
        """-1, 0, or +1 as ``a`` is less than, equal to, or greater than ``b``."""
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    # -- elimination --------------------------------------------------------

    def eliminates(self, drop: frozenset[int]) -> bool:
        """True if every monomial containing a drop variable beats every
        monomial free of them, so the drop variables can be eliminated."""
        if not drop:
            return True
        if self.kind == "lex":
            return drop == frozenset(self.precedence[: len(drop)])
        if self.kind == "block":
            seen: set[int] = set()
            for vars_, _ in self.blocks:
                if seen == drop:
                    return True
                if not set(vars_) <= drop:
                    return False
                seen |= set(vars_)
            return seen == drop
        return False


def _prec(nvars: int, precedence):
    if precedence is None:
        return tuple(range(nvars))
    precedence = tuple(precedence)
    if len(precedence) != nvars:
        raise InputError("precedence length must equal the universe size")
    return precedence


def compare(order: TermOrder, a: Monomial, b: Monomial) -> int:
    """Compare two monomials under the given order (-1, 0, or +1)."""
    return order.compare(a, b)
