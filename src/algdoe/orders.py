"""Term orders on monomials: lex, graded lex, graded reverse lex, and block orders.

A monomial is a dense tuple of nonnegative integer exponents over a fixed
indeterminate universe.  Every order here is total and multiplicative, and is
realized through a sort key so that ``key(a) > key(b)`` iff ``a`` is greater.
Orders are read from and written as text by :func:`parse_order` and
:func:`format_order`, so that a written order reads back as the same order.
Monomials and sums of terms, in polynomials and cyclotomic numbers alike, are
written here too, in the grammar that the polynomial parser reads.
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
    # grevlex, the one simple kind left: degree first, then reverse lex on the
    # reversed precedence, so with equal degrees the smaller exponent in the
    # least significant differing variable wins
    return (sum(a[p] for p in precedence), tuple(-a[p] for p in reversed(precedence)))


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


def _prec(nvars: int, precedence):
    if precedence is None:
        return tuple(range(nvars))
    precedence = tuple(precedence)
    if len(precedence) != nvars:
        raise InputError("precedence length must equal the universe size")
    return precedence


def parse_order(text: str, names, precedence: str | None = None) -> TermOrder:
    """Read an order over the variables ``names``, given in ring order.

    The forms are those :func:`format_order` writes: ``lex``, ``grlex`` or
    ``grevlex`` with the ring order as precedence, ``grevlex(x3,x1,x2)`` with
    the listed precedence, most significant first, and
    ``block:grevlex(x3);lex(x1,x2)`` with each block's variables and inner
    kind.  Input may also use the prefix shorthand ``block:x3,x``: each prefix
    collects, as one grevlex block, the variables not yet taken whose names
    start with it.  ``precedence`` (the CLI's ``--vars``) is a comma-separated
    list of every variable that sets the precedence of a bare kind or the
    sequence the prefixes are matched along; it cannot be combined with a
    form that names its variables.
    """
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if "(" in text:
        if precedence:
            raise InputError(
                "--vars cannot be combined with an order that names its variables"
            )
        if text.startswith("block:"):
            specs = text[len("block:"):].split(";")
            order = TermOrder.block(_named(spec, index) for spec in specs)
        else:
            vars_, kind = _named(text, index)
            order = TermOrder(kind, vars_)
        if order.nvars != nvars:
            raise InputError(f"order {text!r} must list every variable exactly once")
        return order
    base = tuple(range(nvars))
    if precedence:
        base = _indices(precedence, index)
        if sorted(base) != list(range(nvars)):
            raise InputError("--vars must list every variable exactly once")
    if text.startswith("block:"):
        return _prefix_blocks(text[len("block:"):], names, base)
    if text not in KINDS:
        raise InputError(f"unknown order {text!r}")
    return TermOrder(text, base)


def format_order(order: TermOrder, names) -> str:
    """The text of ``order`` over the variables ``names``, given in ring order;
    :func:`parse_order` reads it back as the same order."""

    def named(vars_, kind):
        return f"{kind}({','.join(names[i] for i in vars_)})"

    if order.kind == "block":
        return "block:" + ";".join(named(*block) for block in order.blocks)
    if order.precedence == tuple(range(order.nvars)):
        return order.kind
    return named(order.precedence, order.kind)


def _indices(text: str, index: dict) -> tuple[int, ...]:
    try:
        return tuple(index[v.strip()] for v in text.split(",") if v.strip())
    except KeyError as exc:
        raise InputError(f"unknown variable {exc.args[0]!r} in order") from exc


def _named(spec: str, index: dict) -> tuple[tuple[int, ...], str]:
    """``kind(v1,v2,...)`` as the listed variables' indices and the kind."""
    kind, paren, rest = spec.strip().partition("(")
    if not paren or not rest.endswith(")"):
        raise InputError(f"bad order {spec!r}: expected kind(v1,v2,...)")
    if kind not in KINDS:
        raise InputError(f"unknown term order kind {kind!r}")
    return _indices(rest[:-1], index), kind


def _prefix_blocks(text: str, names, base: tuple[int, ...]) -> TermOrder:
    prefixes = [p.strip() for p in text.split(",") if p.strip()]
    if not prefixes:
        raise InputError("block order needs at least one prefix")
    blocks = []
    assigned: set[int] = set()
    for prefix in prefixes:
        vars_ = tuple(
            i for i in base if names[i].startswith(prefix) and i not in assigned
        )
        if not vars_:
            raise InputError(f"no variables match block prefix {prefix!r}")
        assigned.update(vars_)
        blocks.append((vars_, "grevlex"))
    if len(assigned) != len(names):
        raise InputError("block prefixes must cover every variable")
    return TermOrder.block(blocks)


def monomial_name(mono: Monomial, names=None) -> str:
    """Text of a monomial, such as ``x1*x3^2``; ``1`` for the empty monomial.

    ``names`` defaults to x1, x2, ...
    """
    if not any(mono):
        return "1"
    if names is None:
        names = [f"x{i + 1}" for i in range(len(mono))]
    return "*".join(
        names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(mono) if e
    )


def _format_terms(terms, names) -> str:
    """Text of a nonempty sum of (monomial, coefficient text) pairs, in the
    order given, as polynomials and cyclotomic numbers are written: a
    coefficient of 1 or -1 leaves the bare monomial or its negation, and terms
    join with ``+`` unless they start with ``-``."""
    text = ""
    for mono, coeff in terms:
        if any(mono):
            name = monomial_name(mono, names)
            coeff = {"1": name, "-1": "-" + name}.get(coeff, f"{coeff}*{name}")
        text += coeff if not text or coeff.startswith("-") else "+" + coeff
    return text
